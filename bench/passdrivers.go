package main

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/core"
)

// The pass-based drivers: per-layer metrics that need whole experiments
// rather than one layer call — telemetry levels, the shard scheduler
// against the classic kernel, and the harness's own work. Like the layer
// drivers they are fixed, and run in every traced run.

// shrunk keeps only the first cell of a driver's list for the smoke test.
func shrunk(cells []cell, shrink int) []cell {
	if shrink > 1 {
		return cells[:1]
	}
	return cells
}

// identity is the cells' list order, which the fixed drivers run in.
func identity(n int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	return order
}

// drivePass runs one pass of a driver workload under a span of its own.
func drivePass(tr *tracer, w *workload, name string, cfg passConfig) passSample {
	runtime.GC()
	cfg.tr = tr
	cfg.parent = tr.begin(0, w.name, name)
	ps := w.runPass(identity(len(w.cells)), cfg)
	tr.end(cfg.parent, map[string]any{"events": ps.events(), "allocs": ps.mallocs})
	return ps
}

// driveTelemetry runs fig9 + loss-flap at each telemetry level; a level's
// overhead is its pass wall over the detached pass's. The span level also
// drives the three exports.
func driveTelemetry(tr *tracer, out metricSet, shrink int) {
	w := &workload{name: "telemetry", cells: shrunk(cellsOf(quick, "loss-flap", "fig9"), shrink)}
	drivePass(tr, w, "warm-up", passConfig{shards: 1})
	off := drivePass(tr, w, "detached", passConfig{shards: 1})
	out.set("telemetry.detached.pass_ms", ms(off.wall))
	var spans passSample
	for _, lv := range []struct {
		name  string
		level telLevel
	}{{"metrics", telMetrics}, {"sampling", telSampling}, {"spans", telSpans}} {
		ps := drivePass(tr, w, lv.name, passConfig{shards: 1, tel: lv.level})
		out.set("telemetry."+lv.name+".overhead_x", float64(ps.wall)/float64(off.wall))
		spans = ps
	}
	ex := spans.export
	out.set("telemetry.spans.recorded_per_pass", float64(ex.spans)+float64(ex.dropped))
	out.set("telemetry.spans.dropped_per_pass", float64(ex.dropped))
	out.set("telemetry.export.trace_ns_per_span", float64(ex.traceT.Nanoseconds())/float64(ex.spans))
	out.set("telemetry.export.trace_mb_per_pass", float64(ex.traceBytes)/1e6)
	out.set("telemetry.export.timeline_ms_per_pass", ms(ex.timelineT))
}

// driveShards runs the multisite-sharded cells sharded and classic, both
// with a metrics registry (the per-shard executed/stall counters live
// there).
func driveShards(tr *tracer, out metricSet, shrink int) {
	w := &workload{name: "shards", cells: shrunk(multisiteCells(), shrink)}
	sharded := drivePass(tr, w, "sharded", passConfig{shards: shardWorkers(), tel: telMetrics})
	classic := drivePass(tr, w, "classic", passConfig{shards: 1, tel: telMetrics})
	var windows, events, hWindows, hEvents float64
	for ci, c := range w.cells {
		cs := sharded.cells[ci]
		windows += float64(cs.windows)
		events += float64(cs.events)
		if c.opt.Topo == "star3-hetero" {
			hWindows += float64(cs.windows)
			hEvents += float64(cs.events)
		}
	}
	out.set("sim.shard.windows_per_event", windows/events)
	out.set("sim.shard.hetero_windows_per_event", hWindows/hEvents)
	// Every preset here has four sites, so a window has four shard slots;
	// a stall is a slot whose shard had nothing runnable inside its horizon.
	var stalls float64
	for s := 0; s < 4; s++ {
		stalls += float64(sharded.reg.Counter(fmt.Sprintf("sim.shard.%d.stalls", s)).Value())
	}
	share := 0.0
	if windows > 0 {
		share = stalls / (4 * windows)
	}
	out.set("sim.shard.stall_share", share)
	out.set("sim.shard.sharded_over_classic_wall_x", float64(sharded.wall)/float64(classic.wall))
	out.set("sim.shard.sharded_over_classic_allocs_x", float64(sharded.mallocs)/float64(classic.mallocs))
}

// parCells is the slice of paper-quick the runner-scaling ratio is taken on
// (the whole workload would cost every traced run nine more seconds).
var parCells = cellsOf(quick, "fig4", "fig9", "fig10")

// driveCore times the harness's own work: plan expansion, table rendering,
// and the point pool at one worker against one per core.
func driveCore(tr *tracer, out metricSet, shrink int) {
	const reps = 5
	var build, rend []float64
	w := &workload{name: "core", cells: shrunk(parCells, shrink)}
	par1 := drivePass(tr, w, "workers=1", passConfig{shards: 1, workers: 1})
	parN := drivePass(tr, w, "workers=nproc", passConfig{shards: 1, workers: runtime.GOMAXPROCS(0)})
	out.set("core.par_speedup_x", float64(par1.wall)/float64(parN.wall))
	for r := 0; r < reps; r++ {
		tr.in(0, "core", "plan_build", func() {
			t0 := time.Now()
			for _, id := range paperIDs {
				spec, ok := core.Lookup(id)
				if !ok {
					panic("bench: experiment " + id + " is not registered")
				}
				spec.Build(quick)
			}
			build = append(build, ms(time.Since(t0)))
		})
		tr.in(0, "core", "render", func() {
			t0 := time.Now()
			for _, cs := range par1.cells {
				for _, t := range cs.tables {
					t.Render(io.Discard)
				}
			}
			rend = append(rend, ms(time.Since(t0)))
		})
	}
	out.set("core.plan_build.ms", median(build))
	out.set("core.render.ms", median(rend))
}
