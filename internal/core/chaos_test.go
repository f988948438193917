package core

import (
	"bytes"
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

// renderWithErrors renders an experiment the way RunAllWith does — tables
// plus the per-point error lines — for byte-comparison.
func renderWithErrors(res Result) string {
	var buf bytes.Buffer
	for _, t := range res.Tables {
		t.Render(&buf)
	}
	RenderErrors(&buf, res.Errors)
	return buf.String()
}

// TestDeadWANTerminates is the end-to-end recovery acceptance test: with
// the WAN permanently down, every experiment in the registry must
// terminate (no hang, no crash), and every WAN-dependent experiment must
// report explicit per-point errors rather than silent zeros or partial
// garbage.
func TestDeadWANTerminates(t *testing.T) {
	if testing.Short() {
		t.Skip("dead-WAN sweep skipped in -short mode")
	}
	opt := Options{Quick: true}
	plan := &fault.Plan{Seed: 1, WANDown: true}
	for _, id := range ExperimentIDs {
		id := id
		t.Run(id, func(t *testing.T) {
			res := RunWith(id, opt, RunnerOptions{Workers: 4, Fault: plan})
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
			if !strings.Contains(renderWithErrors(res), "ERR") {
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
	opt := Options{Quick: true}
	plan := &fault.Plan{Seed: 1, WANDown: true}
	for _, id := range []string{"fig5", "fig8", "loss-goodput"} {
		seq := renderWithErrors(RunWith(id, opt, RunnerOptions{Workers: 1, Fault: plan}))
		par := renderWithErrors(RunWith(id, opt, RunnerOptions{Workers: 8, Fault: plan}))
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
			first := renderWithErrors(RunWith(id, opt, RunnerOptions{Workers: 8}))
			second := renderWithErrors(RunWith(id, opt, RunnerOptions{Workers: 3}))
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
	clean := renderWithErrors(RunWith("loss-goodput", opt, RunnerOptions{Workers: 4}))
	chaos := renderWithErrors(RunWith("loss-goodput", opt,
		RunnerOptions{Workers: 4, Fault: &fault.Plan{Seed: 1, WANDown: true}}))
	if clean != chaos {
		t.Errorf("per-point plans did not override the run-wide plan\n--- clean ---\n%s\n--- chaos ---\n%s",
			clean, chaos)
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
