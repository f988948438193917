package core

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sync"
	"time"

	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// RunnerOptions says how a run executes: workers, shards, telemetry,
// sampling and progress. What is simulated, the fault plan included, is
// Options'.
type RunnerOptions struct {
	// Workers bounds how many points are measured concurrently; <= 0
	// selects runtime.GOMAXPROCS(0). Results are independent of the
	// worker count: every slot is reserved before the pool starts, so
	// scheduling only affects wall time, never output.
	Workers int
	// Progress, when non-nil, receives a live single-line status as
	// points complete (typically os.Stderr). The line is erased when the
	// experiment finishes.
	Progress io.Writer
	// OnPoint, when non-nil, is called after each point completes, in
	// completion order (not registry order). Calls are serialized.
	OnPoint func(PointMetrics)
	// Telemetry, when non-nil, is attached to every simulation environment
	// the experiment creates. Metric registries are safe under concurrent
	// points, but a span Recorder is single-writer, so span recording
	// forces Workers to 1. Each point's spans are stacked onto one shared
	// timeline: after a point finishes, the recorder's epoch advances past
	// the point's virtual end time and a harness-level span covering the
	// whole point is emitted.
	Telemetry *telemetry.Telemetry
	// SampleEvery > 0 arms the sim-time timeline sampler: every environment
	// a point creates gets a private metrics registry sampled at this
	// cadence of virtual time, and the runner assembles one PointTimeline
	// per point (Result.Timelines, plan order). Timelines are a pure
	// function of the simulation — byte-identical at any Workers /
	// ShardWorkers combination — and sampling never perturbs simulated
	// behavior (the hook fires between events, not as an event). Per-env
	// registries merge back into Telemetry.Metrics after each point, so
	// end-of-run dumps still see run-wide totals.
	SampleEvery sim.Time
	// ShardWorkers > 1 lets each point's simulation world run sharded: any
	// world of two or more sites — the paper's testbed included — splits
	// into per-site event shards driven by up to this many OS workers under
	// the conservative WAN-lookahead window protocol (the CLI -shards flag).
	// Orthogonal to Workers, which parallelizes across points:
	// Workers*ShardWorkers is the peak OS-thread demand. Rendered output is
	// byte-identical at any value — a world with a zero-delay link or a
	// random-draw fault plan, and the sdp probe's, runs as one shard. Span
	// recording forces both to 1 (the recorder is single-writer).
	ShardWorkers int
}

func (o RunnerOptions) workers(points int) int {
	n := o.Workers
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n > points {
		n = points
	}
	if n < 1 {
		n = 1
	}
	return n
}

// PointMetrics describes the cost of one completed measurement point.
type PointMetrics struct {
	Experiment string
	Label      string
	Wall       time.Duration // host time spent measuring the point
	SimTime    sim.Time      // virtual time reached across the point's envs
	Events     int64         // simulation events executed
	Digest     uint64        // the point's dispatch digest (Meter.Digest)
	// ShardWindows counts the sharded scheduler's barrier windows across
	// the point's partitioned worlds (0 when the point ran single-heap);
	// ShardHorizon is the matching cumulative safe-horizon advance.
	// ShardWindows/Events is the scheduler's synchronization overhead per
	// unit of work; ShardHorizon/ShardWindows its mean window width.
	ShardWindows int64
	ShardHorizon sim.Time
	// Err is non-empty when the point failed (fault injection exhausted a
	// recovery budget, a parameter was invalid); its value landed as NaN.
	Err string
}

// PointError is one failed measurement point, in plan (build) order.
type PointError struct {
	Label string
	Err   string
}

// pointFailure wraps a point-level error so the runner's recover can tell
// a deliberate Meter.Check failure from an arbitrary panic. Both become
// error rows; arbitrary panics keep their message.
type pointFailure struct{ err error }

// runPoint executes one point, converting any failure — a Meter.Check, a
// process panic surfaced by the simulation kernel, a protocol model
// giving up — into an error and a NaN measurement. The rest of the run is
// unaffected: with fault injection armed, a failed point is a result, not
// a crash.
func runPoint(pt *Point, m *Meter) (y float64, err error) {
	defer func() {
		if r := recover(); r != nil {
			if pf, ok := r.(*pointFailure); ok {
				err = pf.err
			} else {
				err = fmt.Errorf("%v", r)
			}
			y = math.NaN()
		}
	}()
	return pt.Fn(m), nil
}

// maxIdleArenas bounds the arenas kept between RunSpec calls. An arena holds
// the freelists of the largest world its worker ran (about 6 MB at most over
// the paper's experiments), so this is also the bound on what the list retains;
// a worker finishing beyond it lets its arena go.
const maxIdleArenas = 8

// idleArenas keeps the workers' arenas from one RunSpec call to the next —
// a run is many calls, one per experiment, and each would otherwise start
// cold. A worker owns the arena it took until it puts it back, so the mutex
// is taken twice per worker per call. Which arena a worker gets is
// scheduling-dependent and cannot matter: nothing simulated depends on what
// an arena holds (see sim.Arena).
var idleArenas struct {
	sync.Mutex
	free []*sim.Arena
}

// takeArena hands a worker an idle arena, or a new one. Its worlds start
// with every record the arena's earlier worlds made (sim.Arena), those of
// failed points too: with the collector off, fig6 allocates 1 639 objects
// on an arena that ran it once and as many in registry order, 5 108 cold.
// Events, digests and results do not depend on the arena.
func takeArena() *sim.Arena {
	idleArenas.Lock()
	defer idleArenas.Unlock()
	if n := len(idleArenas.free); n > 0 {
		a := idleArenas.free[n-1]
		idleArenas.free = idleArenas.free[:n-1]
		return a
	}
	return sim.NewArena()
}

func putArena(a *sim.Arena) {
	idleArenas.Lock()
	defer idleArenas.Unlock()
	if len(idleArenas.free) < maxIdleArenas {
		idleArenas.free = append(idleArenas.free, a)
	}
}

// ExperimentMetrics aggregates point metrics for one experiment.
type ExperimentMetrics struct {
	ID      string
	Points  int
	Workers int
	Wall    time.Duration // wall time for the whole experiment
	SimTime sim.Time      // summed virtual time across all points
	Events  int64         // summed simulation events across all points
	// Digest sums the points' dispatch digests mod 2⁶⁴; being a sum, it
	// does not depend on the order points complete in.
	Digest uint64
	// ShardWindows/ShardHorizon sum the sharded scheduler's barrier
	// windows and safe-horizon advance across all points (both 0 on
	// single-heap runs).
	ShardWindows int64
	ShardHorizon sim.Time
}

// Result pairs an experiment's tables with its runtime metrics.
type Result struct {
	ID      string
	Tables  []*stats.Table
	Metrics ExperimentMetrics
	// Errors lists failed points in plan order (empty on a clean run).
	// Their table cells render as ERR.
	Errors []PointError
	// Timelines holds each point's sampled timeline in plan order (nil
	// unless RunnerOptions.SampleEvery was set).
	Timelines []telemetry.PointTimeline
}

// Run generates the tables for one experiment id sequentially. The options
// control the heavyweight experiments; zero values select paper-fidelity
// settings. It panics on an unknown id or Options that do not validate.
func Run(id string, opt Options) []*stats.Table {
	return RunWith(id, opt, RunnerOptions{Workers: 1}).Tables
}

// RunWith generates one registered experiment under the given runner
// options. It panics on an unknown id.
func RunWith(id string, opt Options, ropt RunnerOptions) Result {
	return RunSpec(mustLookup(id), opt, ropt)
}

// RunSpec expands a spec — a registry entry or a probe (ProbeSpec) — and
// executes its plan under the given runner options: points run on a bounded
// worker pool and results are reassembled in plan order.
func RunSpec(spec Spec, opt Options, ropt RunnerOptions) Result {
	pl := spec.Build(opt)
	start := time.Now()
	workers := ropt.workers(len(pl.Points))
	shardWorkers := ropt.ShardWorkers
	if ropt.Telemetry != nil && ropt.Telemetry.Spans != nil {
		workers = 1      // the span recorder is single-writer
		shardWorkers = 1 // and shards would write it concurrently
	}
	agg := ExperimentMetrics{ID: spec.ID, Points: len(pl.Points), Workers: workers}

	var (
		mu   sync.Mutex // guards agg, done and the progress line
		done int
	)
	// Per-point error slots, written by whichever worker ran the point and
	// read only after wg.Wait — error reporting order is plan order, never
	// completion order.
	errs := make([]string, len(pl.Points))
	// Per-point timeline slots, same discipline: assembled in plan order
	// after the pool drains, so serialized timelines are byte-identical at
	// any worker count.
	var timelines []telemetry.PointTimeline
	if ropt.SampleEvery > 0 {
		timelines = make([]telemetry.PointTimeline, len(pl.Points))
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// The worker's arena: each point's world starts with what the
			// worlds before it on this worker recycled.
			arena := takeArena()
			defer putArena(arena)
			for i := range idx {
				pt := &pl.Points[i]
				m := &Meter{arena: arena, tel: ropt.Telemetry, fault: opt.Fault, shardWorkers: shardWorkers, sampleEvery: ropt.SampleEvery}
				var traceOff sim.Time
				if tel := ropt.Telemetry; tel != nil && tel.Spans != nil {
					// The recorder's epoch offset when the point starts
					// (workers is forced to 1 with spans on, so this is
					// exactly where the point's spans will land); counter
					// tracks use it to align under the spans.
					traceOff = tel.Spans.Offset()
				}
				t0 := time.Now()
				y, err := runPoint(pt, m)
				if err != nil {
					errs[i] = err.Error()
				}
				pt.commit(y)
				wins, hor := m.recordShardStats()
				if timelines != nil {
					timelines[i] = m.takeTimeline(spec.ID, pt.Label, traceOff)
				}
				m.close()
				if tel := ropt.Telemetry; tel != nil && tel.Spans != nil {
					// Harness span covering the point, then advance the
					// epoch so the next point stacks after it.
					rec := tel.Spans
					st := m.SimTime()
					rec.RecordAt(0, st, rec.Track("harness", "points"),
						spec.ID+" "+pt.Label, telemetry.NoSpan)
					rec.Advance(st + sim.Millisecond)
				}
				pm := PointMetrics{
					Experiment:   spec.ID,
					Label:        pt.Label,
					Wall:         time.Since(t0),
					SimTime:      m.SimTime(),
					Events:       m.Events(),
					Digest:       m.Digest(),
					ShardWindows: wins,
					ShardHorizon: hor,
					Err:          errs[i],
				}
				m.recycle()
				mu.Lock()
				agg.SimTime += pm.SimTime
				agg.Events += pm.Events
				agg.Digest += pm.Digest
				agg.ShardWindows += pm.ShardWindows
				agg.ShardHorizon += pm.ShardHorizon
				done++
				if ropt.Progress != nil {
					fmt.Fprintf(ropt.Progress, "\r\x1b[K[%s] %d/%d points  par=%d  %s",
						spec.ID, done, len(pl.Points), workers, pt.Label)
				}
				if ropt.OnPoint != nil {
					ropt.OnPoint(pm)
				}
				mu.Unlock()
			}
		}()
	}
	for i := range pl.Points {
		idx <- i
	}
	close(idx)
	wg.Wait()
	if pl.Finish != nil {
		pl.Finish()
	}
	agg.Wall = time.Since(start)
	var perr []PointError
	for i, e := range errs {
		if e != "" {
			perr = append(perr, PointError{Label: pl.Points[i].Label, Err: e})
		}
	}
	if ropt.Progress != nil {
		fmt.Fprintf(ropt.Progress, "\r\x1b[K[%s] %d points in %v (sim %v, %d events)\n",
			spec.ID, agg.Points, agg.Wall.Round(time.Millisecond), agg.SimTime, agg.Events)
	}
	return Result{ID: spec.ID, Tables: pl.Tables, Metrics: agg, Errors: perr, Timelines: timelines}
}

// RunAllWith generates every registered experiment under the given runner
// options, rendering tables to w in registry order regardless of
// scheduling, and returns per-experiment metrics. Output is byte-identical
// across worker counts.
func RunAllWith(w io.Writer, opt Options, ropt RunnerOptions) []Result {
	results := make([]Result, 0, len(registry))
	for _, spec := range registry {
		res := RunSpec(spec, opt, ropt)
		fmt.Fprintf(w, "=== %s ===\n", res.ID)
		for _, t := range res.Tables {
			t.Render(w)
		}
		RenderErrors(w, res.Errors)
		results = append(results, res)
	}
	return results
}

// RenderErrors prints one line per failed point after an experiment's
// tables. A clean run prints nothing, keeping fault-free output (and the
// golden fixture) byte-identical to before the fault layer existed.
func RenderErrors(w io.Writer, errs []PointError) {
	for _, e := range errs {
		fmt.Fprintf(w, "!! %s: %s\n", e.Label, e.Err)
	}
}
