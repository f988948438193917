package core

import (
	"reflect"
	"testing"

	"repro/internal/telemetry"
)

// TestTelemetryMetricsDeterministic runs the same experiment with 1 and 4
// workers and requires identical counter and histogram totals: metric
// recording must not perturb, nor be perturbed by, point scheduling.
func TestTelemetryMetricsDeterministic(t *testing.T) {
	run := func(workers int) []telemetry.MetricSnapshot {
		tel := &telemetry.Telemetry{Metrics: telemetry.NewRegistry()}
		RunWith("fig8", Options{Quick: true}, RunnerOptions{Workers: workers, Telemetry: tel})
		return tel.Metrics.Snapshot()
	}
	seq := run(1)
	par := run(4)
	if len(seq) == 0 {
		t.Fatal("no metrics recorded")
	}
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("metrics differ between 1 and 4 workers:\nseq: %+v\npar: %+v", seq, par)
	}
	// The layers the experiment exercises must have reported: eager and
	// rendezvous traffic and WAN link activity.
	names := map[string]bool{}
	for _, s := range seq {
		names[s.Name] = true
	}
	for _, want := range []string{"mpi.eager.msgs", "mpi.rndv.msgs", "mpi.rndv.handshake.ns", "wan.link.tx.pkts", "ib.rc.window.occupancy"} {
		if !names[want] {
			t.Errorf("metric %q missing from fig8 run", want)
		}
	}
}

// TestTelemetrySpansForceSequential checks that span recording drops the
// runner to one worker (the recorder is single-writer) and that the
// harness emits one top-level span per measurement point.
func TestTelemetrySpansForceSequential(t *testing.T) {
	tel := &telemetry.Telemetry{
		Metrics: telemetry.NewRegistry(),
		Spans:   telemetry.NewRecorder(0, 0),
	}
	res := RunWith("fig3", Options{Quick: true}, RunnerOptions{Workers: 4, Telemetry: tel})
	if res.Metrics.Workers != 1 {
		t.Errorf("workers = %d, want 1 (span recorder is single-writer)", res.Metrics.Workers)
	}
	points := 0
	for _, s := range tel.Spans.Spans() {
		if s.Depth == 1 && s.Parent == 0 && s.Track == tel.Spans.Track("harness", "points") {
			points++
		}
	}
	if points != res.Metrics.Points {
		t.Errorf("harness spans = %d, want one per point (%d)", points, res.Metrics.Points)
	}
}
