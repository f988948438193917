package core

import (
	"bytes"
	"testing"

	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// timelineBytes runs one experiment with sampling armed and serializes the
// resulting timelines — the exact bytes -timeline-out would write.
func timelineBytes(t *testing.T, id string, opt Options, ropt RunnerOptions) []byte {
	t.Helper()
	ropt.SampleEvery = sim.Millisecond
	res := RunWith(id, opt, ropt)
	if len(res.Timelines) == 0 {
		t.Fatalf("%s: no timelines collected", id)
	}
	var buf bytes.Buffer
	if err := telemetry.WriteTimelineJSON(&buf, ropt.SampleEvery, res.Timelines); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTimelineDeterminism is the tentpole regression: sampled timelines are
// byte-identical at any Workers / ShardWorkers combination, with and
// without a mid-run WAN flap rewriting the event flow.
func TestTimelineDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("timeline determinism matrix skipped in -short mode")
	}
	flap := &fault.Plan{Seed: 7, WANFlaps: []fault.FlapStep{
		{At: 2 * sim.Millisecond, Down: true},
		{At: 6 * sim.Millisecond, Down: false},
	}}
	opt := Options{Quick: true, Topo: "star3-hetero"}
	for _, id := range []string{"multisite-allreduce", "multisite-nfs"} {
		for _, plan := range []*fault.Plan{nil, flap} {
			plan := plan
			name := id
			if plan != nil {
				name += "/wan-flap"
			}
			t.Run(name, func(t *testing.T) {
				opt := opt
				opt.Fault = plan
				base := timelineBytes(t, id, opt, RunnerOptions{Workers: 1})
				for _, ropt := range []RunnerOptions{
					{Workers: 8},
					{Workers: 1, ShardWorkers: 4},
					{Workers: 2, ShardWorkers: 2},
				} {
					got := timelineBytes(t, id, opt, ropt)
					if !bytes.Equal(got, base) {
						t.Fatalf("timeline diverges at workers=%d shards=%d\n--- sequential ---\n%s\n--- got ---\n%s",
							ropt.Workers, ropt.ShardWorkers, base, got)
					}
				}
			})
		}
	}
}

// TestTimelineContent checks that a sampled run actually carries the
// instrumented series: the WAN busy counter, its derived utilization, and
// the hi-res RC window occupancy with populated quantile rows.
func TestTimelineContent(t *testing.T) {
	res := RunWith("loss-flap", Options{Quick: true}, RunnerOptions{Workers: 1, SampleEvery: sim.Millisecond})
	if len(res.Timelines) == 0 {
		t.Fatal("no timelines")
	}
	pt := res.Timelines[0]
	if pt.Experiment != "loss-flap" || pt.Every != sim.Millisecond {
		t.Fatalf("timeline header = %+v", pt)
	}
	want := map[string]string{
		"wan.link.busy.ns":              telemetry.KindCounter,
		"wan.link.utilization.permille": telemetry.KindDerived,
		"ib.rc.window.occupancy":        telemetry.KindHiRes,
		"wan.link.queue.wait.ns":        telemetry.KindHiRes,
		"wan.link.tx.bytes":             telemetry.KindCounter,
	}
	for _, s := range pt.Series {
		if kind, ok := want[s.Name]; ok && kind == s.Kind {
			delete(want, s.Name)
			if len(s.Samples)+len(s.Quantiles) == 0 {
				t.Errorf("series %s/%s has no rows", s.Name, s.Kind)
			}
		}
	}
	if len(want) != 0 {
		t.Errorf("missing series: %v (have %d series)", want, len(pt.Series))
	}
	// The busy counter must carry real traffic, and the derived utilization
	// must be its per-interval permille.
	var busy, util *telemetry.Series
	for i := range pt.Series {
		switch pt.Series[i].Name {
		case "wan.link.busy.ns":
			busy = &pt.Series[i]
		case "wan.link.utilization.permille":
			util = &pt.Series[i]
		}
	}
	var total int64
	for i, smp := range busy.Samples {
		total += smp.V
		if got := util.Samples[i].V; got != smp.V*1000/int64(sim.Millisecond) {
			t.Errorf("utilization row %d = %d, want %d", i, got, smp.V*1000/int64(sim.Millisecond))
		}
	}
	if total == 0 {
		t.Error("wan.link.busy.ns recorded no busy time on a streaming experiment")
	}
}

// TestTimelineMergesSharedRegistry checks that per-env sampled registries
// fold back into the run-wide registry, so -metrics-out totals are the
// same with sampling on or off.
func TestTimelineMergesSharedRegistry(t *testing.T) {
	run := func(every sim.Time) int64 {
		tel := &telemetry.Telemetry{Metrics: telemetry.NewRegistry()}
		RunWith("fig3", Options{Quick: true}, RunnerOptions{Workers: 1, Telemetry: tel, SampleEvery: every})
		return tel.Metrics.Counter("wan.link.tx.pkts").Value()
	}
	off, on := run(0), run(sim.Millisecond)
	if off == 0 || off != on {
		t.Errorf("shared-registry totals: sampling off %d, on %d (want equal, nonzero)", off, on)
	}
}

// TestTimelineOffCostsNothing checks Result.Timelines stays nil and no
// samples are taken when SampleEvery is unset.
func TestTimelineOffCostsNothing(t *testing.T) {
	res := RunWith("fig3", Options{Quick: true}, RunnerOptions{Workers: 1})
	if res.Timelines != nil {
		t.Errorf("Timelines = %v without SampleEvery", res.Timelines)
	}
}
