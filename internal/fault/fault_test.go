package fault

import (
	"slices"
	"testing"

	"repro/internal/ib"
	"repro/internal/sim"
)

// TestRNGDeterminism pins the splitmix64 stream: same seed, same values,
// forever. Changing these constants silently would invalidate every
// recorded faulted experiment.
func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(12345), NewRNG(12345)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with equal seeds diverged at draw %d", i)
		}
	}
	// First draw of the seed-0 stream, as splitmix64 defines it.
	if got := NewRNG(0).Uint64(); got != 0xe220a8397b1dcdaf {
		t.Errorf("splitmix64(0) first draw = %#x, want 0xe220a8397b1dcdaf", got)
	}
}

// TestMixSeedIndependence checks that salted sub-streams differ from each
// other and from the base stream.
func TestMixSeedIndependence(t *testing.T) {
	if MixSeed(1, saltWAN) == MixSeed(1, saltTCP) {
		t.Error("WAN and TCP sub-seeds collide for the same base seed")
	}
	if MixSeed(1, saltWAN) == MixSeed(2, saltWAN) {
		t.Error("different base seeds give the same WAN sub-seed")
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

// verdicts draws n DropWire verdicts, one packet per microsecond from at.
func verdicts(in *Injector, at sim.Time, n int) []bool {
	out := make([]bool, n)
	for i := range out {
		out[i] = in.DropWire(at+sim.Time(i)*sim.Microsecond, 2048)
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

// TestPlanDrawOrderPinned pins the first 64 verdicts and Drops() of a
// WANLoss+WANCorrupt plan and of a TCPLoss plan at a fixed seed: the loss
// draw comes first, the corruption draw only for packets the loss spared,
// and a corrupted packet is not counted in Drops. A change to the seeding,
// the salts or the draw order moves these values.
func TestPlanDrawOrderPinned(t *testing.T) {
	mask := func(v []bool) (m uint64) {
		for i, d := range v {
			if d {
				m |= 1 << i
			}
		}
		return m
	}
	for _, c := range []struct {
		name  string
		in    *Injector
		mask  uint64
		drops int64
	}{
		{"wan", (&Plan{Seed: 2008, WANLoss: 0.1, WANCorrupt: 0.05}).ArmWAN(wanLink(sim.NewEnv())), 0x004210140409c100, 7},
		{"tcp", (&Plan{Seed: 2008, TCPLoss: 0.1}).ArmTCP(), 0x0000052088200004, 7},
	} {
		if got := mask(verdicts(c.in, 0, 64)); got != c.mask {
			t.Errorf("%s: verdicts %#016x, want %#016x", c.name, got, c.mask)
		}
		if got := c.in.Drops(); got != c.drops {
			t.Errorf("%s: Drops() = %d, want %d", c.name, got, c.drops)
		}
	}
}

// TestBernoulliRate sanity-checks the long-run drop frequency.
func TestBernoulliRate(t *testing.T) {
	in := (&Plan{Seed: 7, TCPLoss: 0.2}).ArmTCP()
	const n = 100000
	drops := 0
	for _, d := range verdicts(in, 0, n) {
		if d {
			drops++
		}
	}
	got := float64(drops) / n
	if got < 0.18 || got > 0.22 {
		t.Errorf("loss 0.2 dropped %.3f of packets", got)
	}
	if int64(drops) != in.Drops() {
		t.Errorf("Drops() = %d, observed %d", in.Drops(), drops)
	}
}

// TestDownDominates checks a down link drops everything regardless of the
// loss lever and draws no randomness doing so: once a flap brings it back
// up, its verdicts are exactly those of the same plan that was never down.
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
	if in.DropWire(0, 64) {
		t.Error("link down before the first edge")
	}
	if !in.DropWire(sim.Millisecond, 64) || !in.DropWire(2*sim.Millisecond, 64) {
		t.Error("link not down from the down edge on")
	}
	if in.DropWire(3*sim.Millisecond, 64) || in.DropWire(4*sim.Millisecond, 64) {
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
