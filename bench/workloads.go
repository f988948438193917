package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// A cell is one core.RunWith call of a pass: an experiment id under the
// options the workload runs it with.
type cell struct {
	id  string
	opt core.Options
}

// label names the cell in spans and reports (the topology is part of it
// for the multisite cells, which repeat ids across presets).
func (c cell) label() string {
	if c.opt.Topo != "" {
		return c.id + "@" + c.opt.Topo
	}
	return c.id
}

// telLevel is how much of internal/telemetry a pass attaches.
type telLevel int

const (
	telOff      telLevel = iota // nothing attached
	telMetrics                  // metrics registry
	telSampling                 // + 1 ms sim-time sampler
	telSpans                    // + span recorder at depth 4, + the three exports
)

// workload is one of the benchmark's four fixed inputs. A pass runs every
// cell once; passes repeat back to back (closed loop).
type workload struct {
	name  string
	why   string
	cells []cell
	// shards is the ShardWorkers value the cells run at (1 = classic
	// single heap).
	shards int
	// tel is the telemetry level the cells run at.
	tel telLevel
	// setups is how many fresh processes time a cold pass per run, the
	// measuring one among them; setup_s is taken over them (quietSum).
	// Bounded by what the cold pass costs against the driver's time cap
	// (see README, "Sizing").
	setups int
	// cellUnits makes a whole core.RunWith call, not a point, the unit the
	// timing estimate is taken over (quietSum): the sharded workload's 158
	// points average 7 ms on two spinning workers, so their minima over a
	// run's ~20 samples sit far below any pass that ran and move with the
	// sample count; its 13 cells of ~80 ms do not.
	cellUnits bool
	// golden marks the workload whose golden-pinned blocks are compared
	// against internal/core/testdata/golden_quick.txt.
	golden bool
}

var quick = core.Options{Quick: true}

// paperIDs are the twelve experiments of the paper's evaluation, in the
// registry's order.
var paperIDs = []string{"table1", "fig3", "fig4", "fig5", "fig6", "fig7",
	"fig8", "fig9", "fig10", "fig11", "fig12", "fig13"}

// goldenIDs are the blocks internal/core/testdata/golden_quick.txt pins
// (internal/core/golden_test.go owns the list and the file).
var goldenIDs = []string{"table1", "fig3", "fig4", "fig5", "fig7", "fig11"}

// multisitePresets are the topologies the sharded cells run on.
var multisitePresets = []string{"star3-hetero", "ring4", "mesh4"}

func cellsOf(opt core.Options, ids ...string) []cell {
	out := make([]cell, len(ids))
	for i, id := range ids {
		out[i] = cell{id: id, opt: opt}
	}
	return out
}

func multisiteCells() []cell {
	var out []cell
	for _, preset := range multisitePresets {
		opt := core.Options{Quick: true, Topo: preset}
		out = append(out, cellsOf(opt, "multisite-bcast", "multisite-allreduce", "multisite-nfs")...)
		if preset != "star3-hetero" {
			out = append(out, cellsOf(opt, "failover-kill", "failover-debounce")...)
		}
	}
	return out
}

// shardWorkers is the ShardWorkers value of the sharded workload: one OS
// worker per core up to the four sites of the largest preset.
func shardWorkers() int {
	n := runtime.NumCPU()
	if n > 4 {
		n = 4
	}
	return n
}

// workloads lists the benchmark's inputs; BENCHMARK.json repeats the names
// and reasons, and bench_test.go checks the two agree.
func workloads() []*workload {
	return []*workload{
		{
			name:   "paper-quick",
			why:    "ibwan-exp -quick over the paper's 12 experiments: every middleware layer works, all on the unbounded transmit path, classic single heap, telemetry off",
			cells:  cellsOf(quick, paperIDs...),
			shards: 1, setups: 2, golden: true,
		},
		{
			name:   "congest-streams",
			why:    "IPoIB-UD TCP over bounded ECN-marked WAN queues: 6 worlds, 20 M events, so kernel + bounded transmit path + TCP dominate; bypasses mpi, nfs, sharding, telemetry",
			cells:  cellsOf(quick, "congest-streams"),
			shards: 1, setups: 2,
		},
		{
			name:   "multisite-sharded",
			why:    "13 multisite/failover cells on 3 presets at ShardWorkers=min(nproc,4): the only input running the shard scheduler, mailboxes, routing epochs; 158 small worlds, so construction counts",
			cells:  multisiteCells(),
			shards: shardWorkers(), setups: 3, cellUnits: true,
		},
		{
			name:   "observed",
			why:    "fig9, fig13, loss-flap with metrics registry, 1 ms sampler, depth-4 spans and all three exports: the only input with telemetry attached; the others bypass it",
			cells:  cellsOf(quick, "fig9", "fig13", "loss-flap"),
			shards: 1, tel: telSpans, setups: 2,
		},
	}
}

func workloadByName(name string) *workload {
	for _, w := range workloads() {
		if w.name == name {
			return w
		}
	}
	return nil
}

// order returns the seed's permutation of the workload's cells: the order
// a pass runs them in. Rendering is always in list order, so output never
// depends on the seed.
func (w *workload) order(seed int64) []int {
	return rand.New(rand.NewSource(seed)).Perm(len(w.cells))
}

// pointSample is one completed measurement point.
type pointSample struct {
	wall time.Duration
	err  bool
}

// cellSample is one core.RunWith call of a pass.
type cellSample struct {
	wall time.Duration
	// units tile wall: one per point in completion order (from the
	// previous boundary to the point's OnPoint call, so world construction
	// and shutdown are inside), then one for what follows the last point
	// (table assembly, rendering, export).
	units    []time.Duration
	rendered string
	tables   []*stats.Table
	events   int64
	simT     sim.Time
	windows  int64 // shard scheduler windows (0 on the classic path)
}

// exportSample times the three telemetry writers of an observed pass.
type exportSample struct {
	traceT, timelineT time.Duration
	traceBytes        int64
	spans             int
	dropped           int64
}

// passSample is everything one pass measured.
type passSample struct {
	usage // host cost of the pass (wall, CPU, allocations, GC)
	cells []cellSample
	// tail is the pass's time outside its cells (the observed passes'
	// registry and timeline exports).
	tail   time.Duration
	points []pointSample
	export exportSample
	reg    *telemetry.Registry // the pass's metrics registry, if any
}

func (p *passSample) events() (n int64) {
	for _, c := range p.cells {
		n += c.events
	}
	return n
}

func (p *passSample) simSeconds() float64 {
	var t sim.Time
	for _, c := range p.cells {
		t += c.simT
	}
	return t.Seconds()
}

func (p *passSample) errPoints() (n int) {
	for _, pt := range p.points {
		if pt.err {
			n++
		}
	}
	return n
}

// rendering joins the pass's tables in cell-list order.
func (p *passSample) rendering() string {
	var b strings.Builder
	for _, c := range p.cells {
		b.WriteString(c.rendered)
	}
	return b.String()
}

// render formats one result exactly as ibwan-exp prints it, so blocks
// compare against the golden file byte for byte.
func render(res core.Result) string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "=== %s ===\n", res.ID)
	for _, t := range res.Tables {
		t.Render(&b)
	}
	core.RenderErrors(&b, res.Errors)
	return b.String()
}

// countingWriter discards what it is given and counts the bytes.
type countingWriter struct{ n int64 }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

// spanCap bounds the observed passes' span recorder. Uncapped, the three
// experiments retain 410 k spans and the exports dominate the pass (6 of
// 8 s, 1 GB resident); capped, recording still sees every span and the
// eviction path runs, while the pass stays near the others' size.
const spanCap = 1 << 16

// passConfig says how a pass runs its cells.
type passConfig struct {
	shards  int      // ShardWorkers (1 = classic single heap)
	workers int      // point pool size (0 = 1: wall time attributes cleanly)
	tel     telLevel // telemetry attached
	tr      *tracer  // benchmark spans (nil = untraced)
	parent  int      // span the pass's spans hang under
}

// runPass runs the workload's cells once in the given order and measures
// the pass. With a tracer it records one span per core.RunWith call, one
// child span per point (rebuilt from the runner's OnPoint metrics) and one
// for rendering.
func (w *workload) runPass(order []int, cfg passConfig) passSample {
	ps := passSample{cells: make([]cellSample, len(w.cells))}
	var t *telemetry.Telemetry
	ropt := core.RunnerOptions{Workers: 1}
	if cfg.workers > 1 {
		ropt.Workers = cfg.workers
	}
	if cfg.shards > 1 {
		ropt.ShardWorkers = cfg.shards
	}
	if cfg.tel >= telMetrics {
		t = &telemetry.Telemetry{Metrics: telemetry.NewRegistry()}
		ps.reg = t.Metrics
		ropt.Telemetry = t
	}
	if cfg.tel >= telSampling {
		ropt.SampleEvery = sim.Millisecond
	}
	timelines := make([][]telemetry.PointTimeline, len(w.cells))
	u0 := takeUsage()
	start := time.Now()
	for _, ci := range order {
		c := w.cells[ci]
		cs := &ps.cells[ci]
		cellSpan := cfg.tr.begin(cfg.parent, w.name, c.label())
		if cfg.tel >= telSpans {
			// One recorder per experiment, as one ibwan-exp -trace-out
			// invocation has: what the cap retains, and so what the
			// export writes, then does not depend on the seed's order.
			t.Spans = telemetry.NewRecorder(spanCap, 4)
		}
		t0 := time.Now()
		mark := t0
		ropt.OnPoint = func(pm core.PointMetrics) {
			end := time.Now()
			cs.units = append(cs.units, end.Sub(mark))
			mark = end
			ps.points = append(ps.points, pointSample{wall: pm.Wall, err: pm.Err != ""})
			if cfg.tr != nil {
				cfg.tr.add(cellSpan, w.name, pm.Label, end.Add(-pm.Wall), end, map[string]any{
					"events": pm.Events, "sim_s": pm.SimTime.Seconds(),
				})
			}
		}
		res := core.RunWith(c.id, c.opt, ropt)
		cfg.tr.in(cellSpan, w.name, "render", func() { cs.rendered = render(res) })
		timelines[ci] = res.Timelines
		if cfg.tel >= telSpans {
			cfg.tr.in(cellSpan, w.name, "export", func() { ps.export.trace(t.Spans, res.Timelines) })
		}
		end := time.Now()
		cs.units = append(cs.units, end.Sub(mark))
		cs.wall = end.Sub(t0)
		cs.tables = res.Tables
		cs.events = res.Metrics.Events
		cs.simT = res.Metrics.SimTime
		cs.windows = res.Metrics.ShardWindows
		cfg.tr.end(cellSpan, map[string]any{"events": cs.events, "points": res.Metrics.Points})
	}
	if cfg.tel >= telSpans {
		var all []telemetry.PointTimeline
		for _, tl := range timelines {
			all = append(all, tl...)
		}
		cfg.tr.in(cfg.parent, w.name, "export", func() { ps.export.dumps(t.Metrics, all) })
	}
	ps.tail = time.Since(start)
	for _, cs := range ps.cells {
		ps.tail -= cs.wall
	}
	ps.usage = takeUsage().since(u0)
	return ps
}

// units lists the pass's tiles in cell-list order (so a position means the
// same piece of work in every pass, whatever the seed's order), the tail
// last; they sum to the pass's wall time. byCell gives one tile per cell
// instead of one per point.
func (p *passSample) units(byCell bool) []float64 {
	var out []float64
	for _, c := range p.cells {
		if byCell {
			out = append(out, ms(c.wall))
			continue
		}
		for _, u := range c.units {
			out = append(out, ms(u))
		}
	}
	return append(out, ms(p.tail))
}

// timedWrite drives one telemetry writer into a byte-counting discard
// writer.
func timedWrite(write func(io.Writer) error) (took time.Duration, n int64) {
	var cw countingWriter
	t0 := time.Now()
	if err := write(&cw); err != nil {
		// The writers fail only on a failing io.Writer.
		panic(fmt.Sprintf("bench: telemetry export: %v", err))
	}
	return time.Since(t0), cw.n
}

// trace exports one experiment's spans (and its timelines as counter
// tracks) as a Perfetto trace.
func (ex *exportSample) trace(rec *telemetry.Recorder, timelines []telemetry.PointTimeline) {
	ex.spans += rec.SpanCount()
	ex.dropped += rec.Dropped()
	took, n := timedWrite(func(w io.Writer) error { return telemetry.WritePerfettoTimeline(w, rec, timelines) })
	ex.traceT += took
	ex.traceBytes += n
}

// dumps exports the pass's metrics registry and sampled timelines.
func (ex *exportSample) dumps(reg *telemetry.Registry, timelines []telemetry.PointTimeline) {
	timedWrite(func(w io.Writer) error { return telemetry.WriteMetricsJSON(w, reg) })
	ex.timelineT, _ = timedWrite(func(w io.Writer) error {
		return telemetry.WriteTimelineJSON(w, sim.Millisecond, timelines)
	})
}

// paperPeaks are the peak bandwidths the paper reports (EXPERIMENTS.md),
// each located in a paper-quick table by experiment, table index and series
// label; the simulated peak is the series' maximum.
var paperPeaks = []struct {
	id     string
	table  int
	series string
	paper  float64
}{
	{"fig4", 0, "UD-no-delay", 967},
	{"fig4", 1, "UD-no-delay", 1990},
	{"fig5", 0, "RC-no-delay", 980},
	{"fig5", 1, "RC-no-delay", 1960},
	{"fig7", 0, "64K-MTU", 890},
	{"fig8", 0, "MVAPICH-no-delay", 969},
	{"fig8", 1, "MVAPICH-no-delay", 1913},
}

// peakErrPct is the largest relative error, in percent, of the simulated
// peaks against the paper's over the peak-bearing tables the pass produced
// (0 when the workload runs none of them; NaN when a table lacks its series,
// which fails the run).
func (w *workload) peakErrPct(ps *passSample) float64 {
	worst := 0.0
	for _, pk := range paperPeaks {
		for ci, c := range w.cells {
			if c.id != pk.id {
				continue
			}
			peak := math.NaN()
			if tabs := ps.cells[ci].tables; pk.table < len(tabs) {
				for _, s := range tabs[pk.table].Series {
					if s.Label == pk.series {
						peak = s.Max()
					}
				}
			}
			if e := math.Abs(peak-pk.paper) / pk.paper * 100; !(e <= worst) {
				worst = e
			}
		}
	}
	return worst
}
