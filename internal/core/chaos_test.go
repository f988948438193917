package core

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/ipoib"
	"repro/internal/sim"
	"repro/internal/tcpsim"
	"repro/internal/topo"
)

// TestDeadWANTerminates is the end-to-end recovery acceptance test: with
// the WAN permanently down, every experiment in the registry must
// terminate (no hang, no crash), and every WAN-dependent experiment must
// report explicit per-point errors rather than silent zeros or partial
// garbage.
func TestDeadWANTerminates(t *testing.T) {
	if testing.Short() {
		t.Skip("dead-WAN sweep skipped in -short mode")
	}
	opt := Options{Quick: true, Fault: &fault.Plan{Seed: 1, WANDown: true}}
	for _, id := range ExperimentIDs {
		id := id
		t.Run(id, func(t *testing.T) {
			res := RunWith(id, opt, RunnerOptions{Workers: 4})
			// table1 computes delay budgets without touching the WAN link,
			// and the loss-* family overrides the run-wide plan with its
			// own per-point plans (TestRunWideFaultOverride pins that);
			// everything else crosses the dead link and must surface
			// failures.
			if id == "table1" || strings.HasPrefix(id, "loss-") {
				if len(res.Errors) != 0 {
					t.Errorf("%s reported errors with WAN down: %v", id, res.Errors)
				}
				return
			}
			if len(res.Errors) == 0 {
				t.Fatalf("%s reported no point errors with WAN permanently down", id)
			}
			for _, e := range res.Errors {
				if e.Label == "" || e.Err == "" {
					t.Errorf("%s: empty error row %+v", id, e)
				}
			}
			// Every error row must have landed as a NaN cell (rendered ERR),
			// never as a fabricated number.
			nan := 0
			for _, tab := range res.Tables {
				for _, s := range tab.Series {
					for _, y := range s.Y {
						if math.IsNaN(y) {
							nan++
						}
					}
				}
			}
			if nan < len(res.Errors) {
				t.Errorf("%s: %d error rows but only %d NaN cells", id, len(res.Errors), nan)
			}
			if !strings.Contains(render(res), "ERR") {
				t.Errorf("%s: rendered output has no ERR cell despite %d errors", id, len(res.Errors))
			}
		})
	}
}

// TestDeadWANDeterministic checks that even failure output is reproducible:
// the same dead-WAN run, sequential vs parallel, renders byte-identically —
// error rows included.
func TestDeadWANDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("dead-WAN determinism check skipped in -short mode")
	}
	opt := Options{Quick: true, Fault: &fault.Plan{Seed: 1, WANDown: true}}
	for _, id := range []string{"fig5", "fig8", "loss-goodput"} {
		seq := render(RunWith(id, opt, RunnerOptions{Workers: 1}))
		par := render(RunWith(id, opt, RunnerOptions{Workers: 8}))
		if seq != par {
			t.Errorf("%s: dead-WAN output diverges across worker counts\n--- par=1 ---\n%s\n--- par=8 ---\n%s",
				id, seq, par)
		}
	}
}

// TestLossFamilyRepeatable runs each loss-* experiment twice at different
// worker counts and requires byte-identical output: the per-point seeded
// fault plans must make the injected randomness a pure function of the
// point identity.
func TestLossFamilyRepeatable(t *testing.T) {
	if testing.Short() {
		t.Skip("loss-family determinism sweep skipped in -short mode")
	}
	opt := Options{Quick: true}
	for _, id := range ExperimentIDs {
		if !strings.HasPrefix(id, "loss-") {
			continue
		}
		id := id
		t.Run(id, func(t *testing.T) {
			first := render(RunWith(id, opt, RunnerOptions{Workers: 8}))
			second := render(RunWith(id, opt, RunnerOptions{Workers: 3}))
			if first != second {
				t.Errorf("repeated runs diverge\n--- run 1 (par=8) ---\n%s\n--- run 2 (par=3) ---\n%s",
					first, second)
			}
			if strings.Contains(first, "ERR") {
				t.Errorf("loss experiment has failing points at its configured rates:\n%s", first)
			}
		})
	}
}

// TestRunWideFaultOverride checks the precedence rule: a point that
// installs its own plan (the loss-* family) overrides the run-wide chaos
// plan, so loss-goodput under a run-wide dead-WAN plan still measures its
// configured loss rates rather than failing everywhere.
func TestRunWideFaultOverride(t *testing.T) {
	if testing.Short() {
		t.Skip("fault override check skipped in -short mode")
	}
	opt := Options{Quick: true}
	clean := render(RunWith("loss-goodput", opt, RunnerOptions{Workers: 4}))
	opt.Fault = &fault.Plan{Seed: 1, WANDown: true}
	chaos := render(RunWith("loss-goodput", opt, RunnerOptions{Workers: 4}))
	if clean != chaos {
		t.Errorf("per-point plans did not override the run-wide plan\n--- clean ---\n%s\n--- chaos ---\n%s",
			clean, chaos)
	}
}

// TestPlansThatCannotFire: a run-wide plan whose levers cannot act — a
// zero loss probability, a flap whose edges fall after every point has
// finished — renders the bytes of no plan at all. The flap arms an injector
// on every WAN link, so each packet consults a lever at p = 0 there, and
// the fabric's health monitor holds the future edges.
func TestPlansThatCannotFire(t *testing.T) {
	if testing.Short() {
		t.Skip("inert-plan sweep skipped in -short mode")
	}
	opt := Options{Quick: true}
	plans := []struct {
		name string
		plan *fault.Plan
	}{
		{"wan-loss=0", &fault.Plan{Seed: 7, WANLoss: 0}},
		{"wan-flap=1000s:1s", &fault.Plan{Seed: 7, WANFlaps: []fault.FlapStep{
			{At: 1000 * sim.Second, Down: true}, {At: 1001 * sim.Second}}}},
	}
	for _, id := range []string{"fig3", "fig6", "fig9", "fig13", "loss-tcp"} {
		clean := render(RunWith(id, opt, RunnerOptions{Workers: 2}))
		for _, p := range plans {
			if got := render(RunWith(id, Options{Quick: true, Fault: p.plan}, RunnerOptions{Workers: 2})); got != clean {
				t.Errorf("%s under -fault %s differs from no plan\n--- no plan ---\n%s\n--- %s ---\n%s",
					id, p.name, clean, p.name, got)
			}
		}
	}
}

// TestPlanOnALinkNoRouteUses: on mesh4, multisite-nfs reads every file
// from m0, so the links among m1, m2 and m3 carry nothing, and a plan
// restricted to one of them renders the bytes of no plan, however hard it
// hits. The control, on a link the reads cross, must move them.
func TestPlanOnALinkNoRouteUses(t *testing.T) {
	if testing.Short() {
		t.Skip("unused-link plan sweep skipped in -short mode")
	}
	render := func(p *fault.Plan) string {
		return render(RunWith("multisite-nfs", Options{Quick: true, Topo: "mesh4", Fault: p}, RunnerOptions{Workers: 2}))
	}
	clean := render(nil)
	for _, c := range []struct {
		name  string
		plan  fault.Plan
		fires bool
	}{
		{"link=m1-m2:wan-loss=0.5,seed=7", fault.Plan{Seed: 7, Link: "m1-m2", WANLoss: 0.5}, false},
		{"link=m2-m3:wan-down", fault.Plan{Seed: 1, Link: "m2-m3", WANDown: true}, false},
		{"link=m0-m1:wan-loss=0.01,seed=7", fault.Plan{Seed: 7, Link: "m0-m1", WANLoss: 0.01}, true},
	} {
		if got := render(&c.plan); (got != clean) != c.fires {
			t.Errorf("multisite-nfs on mesh4 under -fault %s: changed %v, want %v\n--- no plan ---\n%s\n--- %s ---\n%s",
				c.name, got != clean, c.fires, clean, c.name, got)
		}
	}
}

// TestPerLinkPlanMatchesRunWide: on the paper testbed's one WAN link, a plan
// restricted to that link, named either way round, renders the bytes of the
// same plan unrestricted. Each plan moves at least one of its figures, so
// the relation is not between two inert plans (loss-tcp's per-point plans
// override a run-wide one).
func TestPerLinkPlanMatchesRunWide(t *testing.T) {
	if testing.Short() {
		t.Skip("per-link plan sweep skipped in -short mode")
	}
	render := func(id string, p *fault.Plan) string {
		return render(RunWith(id, Options{Quick: true, Fault: p}, RunnerOptions{Workers: 2}))
	}
	cases := []struct {
		name string
		plan fault.Plan
		ids  []string
	}{
		{"wan-loss=0.01,seed=7", fault.Plan{Seed: 7, WANLoss: 0.01}, []string{"fig5", "fig8", "loss-tcp"}},
		{"wan-flap=2ms:3ms", fault.Plan{Seed: 1, WANFlaps: []fault.FlapStep{
			{At: 2 * sim.Millisecond, Down: true}, {At: 5 * sim.Millisecond}}}, []string{"fig6", "fig9"}},
	}
	want := map[string]string{}
	for _, c := range cases {
		moved := false
		for _, id := range c.ids {
			want[c.name+" "+id] = render(id, &c.plan)
			moved = moved || want[c.name+" "+id] != render(id, nil)
		}
		if !moved {
			t.Fatalf("-fault %s changes none of %v", c.name, c.ids)
		}
	}
	for _, link := range []string{"A-B", "B-A"} {
		t.Run(link, func(t *testing.T) {
			for _, c := range cases {
				p := c.plan
				p.Link = link
				for _, id := range c.ids {
					if got := render(id, &p); got != want[c.name+" "+id] {
						t.Errorf("%s under -fault link=%s:%s differs from the run-wide plan\n--- run-wide ---\n%s\n--- link=%s ---\n%s",
							id, link, c.name, want[c.name+" "+id], link, got)
					}
				}
			}
		})
	}
}

// TestPerLinkDownDialTimesOut: a dial across a WAN link whose own fault
// plan takes it down retransmits its SYN until the retry budget runs out
// and fails with ErrConnectTimeout, exactly as under a run-wide plan. The
// handshake's recovery does not depend on where the plan came from.
func TestPerLinkDownDialTimesOut(t *testing.T) {
	env := sim.NewEnv()
	defer env.Shutdown()
	spec := topo.Paper(1, 1, sim.Millisecond)
	spec.Links[0].Fault = &fault.Plan{WANDown: true}
	nw, err := topo.Build(env, spec)
	if err != nil {
		t.Fatal(err)
	}
	net := ipoib.NewNetwork()
	sa := tcpsim.NewStack(net.Attach(nw.Site("A").Nodes[0].HCA, ipoib.Datagram, 0), tcpsim.Config{})
	sb := tcpsim.NewStack(net.Attach(nw.Site("B").Nodes[0].HCA, ipoib.Datagram, 0), tcpsim.Config{})
	bw, err := tcpThroughput(env, sa, sb, 1, 10*sim.Millisecond)
	if !errors.Is(err, tcpsim.ErrConnectTimeout) {
		t.Fatalf("dial across a per-link-down WAN: %v MB/s, err %v; want %v", bw, err, tcpsim.ErrConnectTimeout)
	}
}
