package fault

import (
	"math"
	"slices"
	"testing"

	"repro/internal/ib"
	"repro/internal/sim"
)

// TestSaltsIndependent checks that the three random levers draw apart on
// one key, and that the seed moves every draw.
func TestSaltsIndependent(t *testing.T) {
	const dir, flow, seq = 1<<32 | 2, 1<<32 | 7, 42
	wan, crc, tcp := chance(1, saltWAN, dir, flow, seq), chance(1, saltCorrupt, dir, flow, seq), chance(1, saltTCP, dir, flow, seq)
	if wan == crc || wan == tcp || crc == tcp {
		t.Errorf("lever salts collide on one key: wan %v, corrupt %v, tcp %v", wan, crc, tcp)
	}
	if chance(2, saltWAN, dir, flow, seq) == wan {
		t.Error("different seeds give the same WAN draw")
	}
}

// wanLink builds a two-HCA fabric on env and returns the link a plan arms.
func wanLink(env *sim.Env) *ib.Link {
	f := ib.NewFabric(env)
	a, b := f.AddHCA("a"), f.AddHCA("b")
	l := f.Connect(a, b, ib.DDR, ib.DefaultCableDelay)
	f.Finalize()
	return l
}

// verdicts returns the verdicts of n consecutive packets of one QP crossing
// one link direction, one per microsecond from at.
func verdicts(in *Injector, at sim.Time, n int) []bool {
	out := make([]bool, n)
	for i := range out {
		c := ib.Crossing{From: 3, To: 4, Src: 1, QP: 2, Tx: uint64(i), Wire: 2048}
		out[i] = in.dropCrossing(at+sim.Time(i)*sim.Microsecond, c)
	}
	return out
}

// TestInjectorDeterminism replays the same decision sequence twice and
// requires identical outcomes — the property the cross-parallelism
// byte-identity of the loss-* experiments rests on.
func TestInjectorDeterminism(t *testing.T) {
	wan := &Plan{Seed: 99, WANLoss: 0.1, WANCorrupt: 0.01}
	tcp := &Plan{Seed: 99, TCPLoss: 0.1}
	if a, b := verdicts(wan.ArmWAN(wanLink(sim.NewEnv())), 0, 5000), verdicts(wan.ArmWAN(wanLink(sim.NewEnv())), 0, 5000); !slices.Equal(a, b) {
		t.Error("WAN drop decisions differ between identical arms")
	}
	if a, b := verdicts(tcp.ArmTCP(), 0, 5000), verdicts(tcp.ArmTCP(), 0, 5000); !slices.Equal(a, b) {
		t.Error("TCP drop decisions differ between identical arms")
	}
}

// TestKeyedVerdictPinned pins the first 64 verdicts of a WANLoss+WANCorrupt
// plan and of a TCPLoss plan at a fixed seed over fixed keys (the corruption
// verdict is taken only for packets the loss spared). A change to the mixer,
// the key packing or the salts moves these values.
func TestKeyedVerdictPinned(t *testing.T) {
	mask := func(v []bool) (m uint64) {
		for i, d := range v {
			if d {
				m |= 1 << i
			}
		}
		return m
	}
	for _, c := range []struct {
		name string
		in   *Injector
		mask uint64
	}{
		{"wan", (&Plan{Seed: 2008, WANLoss: 0.1, WANCorrupt: 0.1}).ArmWAN(wanLink(sim.NewEnv())), 0x0008c02108024000},
		{"tcp", (&Plan{Seed: 2008, TCPLoss: 0.1}).ArmTCP(), 0x1020080200040000},
	} {
		if got := mask(verdicts(c.in, 0, 64)); got != c.mask {
			t.Errorf("%s: verdicts %#016x, want %#016x", c.name, got, c.mask)
		}
	}
}

// TestBernoulliRate checks the keyed draw's long-run drop fraction: over 10⁶
// distinct keys it lies inside the binomial 99.9 % interval of the rate
// (normal approximation, z = 3.29).
func TestBernoulliRate(t *testing.T) {
	const n = 1_000_000
	for _, p := range []float64{0.001, 0.01, 0.1} {
		in := (&Plan{Seed: 7, TCPLoss: p}).ArmTCP()
		drops := 0
		for i := uint64(0); i < n; i++ {
			if in.Drop(0, 5<<32|6, 40000<<32|2049, i) {
				drops++
			}
		}
		mean, sd := n*p, math.Sqrt(n*p*(1-p))
		if d := math.Abs(float64(drops) - mean); d > 3.29*sd {
			t.Errorf("loss %v dropped %d of %d keys, want %.0f ± %.0f", p, drops, n, mean, 3.29*sd)
		}
	}
}

// TestDownDominates checks a down link drops everything regardless of the
// loss lever, and that once a flap brings it back up, its verdicts are
// exactly those of the same plan that was never down.
func TestDownDominates(t *testing.T) {
	up := sim.Millisecond
	downThenUp := (&Plan{Seed: 1, WANLoss: 0.5, WANDown: true, WANFlaps: []FlapStep{{At: up}}}).ArmWAN(wanLink(sim.NewEnv()))
	for i, d := range verdicts(downThenUp, 0, 100) {
		if !d {
			t.Fatalf("packet %d survived a down link", i)
		}
	}
	neverDown := (&Plan{Seed: 1, WANLoss: 0.5}).ArmWAN(wanLink(sim.NewEnv()))
	if !slices.Equal(verdicts(downThenUp, up, 200), verdicts(neverDown, up, 200)) {
		t.Error("verdicts after the up edge differ from a link that was never down")
	}
}

// TestScheduleValidation exercises every rejection path of a flap schedule
// (negative and out-of-order steps) and checks that an accepted one arms
// nothing on the event heap: flaps are resolved at packet time.
func TestScheduleValidation(t *testing.T) {
	for _, p := range []*Plan{
		{WANFlaps: []FlapStep{{At: 2 * sim.Second, Down: true}, {At: sim.Second}}},
		{WANFlaps: []FlapStep{{At: -sim.Second, Down: true}}},
	} {
		env := sim.NewEnv()
		if err := AttachPlan(env, p); err == nil {
			t.Errorf("invalid flap schedule %v accepted", p.WANFlaps)
		}
		env.Shutdown()
	}
	env := sim.NewEnv()
	link := wanLink(env)
	p := &Plan{WANFlaps: []FlapStep{{At: sim.Second, Down: true}, {At: 2 * sim.Second}}}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.ArmWAN(link) == nil {
		t.Fatal("valid flap schedule armed no injector")
	}
	env.Run()
	if n := env.Executed(); n != 0 {
		t.Errorf("an armed flap schedule executed %d events", n)
	}
	env.Shutdown()
}

// TestScheduledFlapTakesEffect arms a down/up pair and probes the state
// around the edges.
func TestScheduledFlapTakesEffect(t *testing.T) {
	in := (&Plan{WANFlaps: []FlapStep{
		{At: sim.Millisecond, Down: true},
		{At: 3 * sim.Millisecond, Down: false},
	}}).ArmWAN(wanLink(sim.NewEnv()))
	if in.Drop(0, 0, 0, 0) {
		t.Error("link down before the first edge")
	}
	if !in.Drop(sim.Millisecond, 0, 0, 0) || !in.Drop(2*sim.Millisecond, 0, 0, 0) {
		t.Error("link not down from the down edge on")
	}
	if in.Drop(3*sim.Millisecond, 0, 0, 0) || in.Drop(4*sim.Millisecond, 0, 0, 0) {
		t.Error("link still down from the up edge on")
	}
}

// TestPlanValidate covers the plan-level validation surface.
func TestPlanValidate(t *testing.T) {
	bad := []Plan{
		{WANLoss: -0.1},
		{WANLoss: 1.1},
		{WANCorrupt: 2},
		{TCPLoss: -1},
		{WANLoss: math.NaN()},
		{WANCorrupt: math.NaN()},
		{TCPLoss: math.NaN()},
		{WANFlaps: []FlapStep{{At: -1}}},
		{WANFlaps: []FlapStep{{At: 2}, {At: 1}}},
	}
	for i, p := range bad {
		p := p
		if err := p.Validate(); err == nil {
			t.Errorf("invalid plan %d accepted", i)
		}
	}
	good := Plan{
		Seed: 9, WANLoss: 0.01, WANCorrupt: 0.001, TCPLoss: 0.02,
		WANFlaps: []FlapStep{{At: 1, Down: true}, {At: 2}},
	}
	if err := good.Validate(); err != nil {
		t.Errorf("valid plan rejected: %v", err)
	}
	if !good.Enabled() {
		t.Error("armed plan reports Enabled() == false")
	}
	if (&Plan{}).Enabled() {
		t.Error("zero plan reports Enabled() == true")
	}
}

// TestAttachPlanRejectsInvalid checks AttachPlan refuses a bad plan and
// leaves the environment clean.
func TestAttachPlanRejectsInvalid(t *testing.T) {
	env := sim.NewEnv()
	if err := AttachPlan(env, &Plan{WANLoss: 2}); err == nil {
		t.Fatal("invalid plan attached")
	}
	if PlanFromEnv(env) != nil {
		t.Error("rejected plan still discoverable from env")
	}
	env.Shutdown()
}
