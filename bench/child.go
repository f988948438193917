package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// A run of one workload is carried out by child processes of the
// benchmark's own binary, one after another: fresh processes are the only
// way to time a cold start more than once, and they give every workload its
// own heap and peak RSS. A child prints one childReport on stdout.

// passCost is the host cost of one warm pass.
type passCost struct {
	WallMS  float64 `json:"wall_ms"`
	CPUMS   float64 `json:"cpu_ms"`
	Allocs  float64 `json:"allocs"`
	AllocMB float64 `json:"alloc_mb"`
	// UnitsMS tiles the pass (passSample.units).
	UnitsMS []float64 `json:"units_ms"`
}

func costOf(w *workload, ps *passSample) passCost {
	return passCost{
		WallMS:  ms(ps.wall),
		CPUMS:   ms(ps.cpu),
		Allocs:  float64(ps.mallocs),
		AllocMB: float64(ps.bytes) / 1e6,
		UnitsMS: ps.units(w.cellUnits),
	}
}

type childReport struct {
	// ColdMS tiles the time from the parent spawning this process to the
	// end of its first (cold) pass: process start up to the pass first,
	// then the pass's units.
	ColdMS []float64  `json:"cold_ms"`
	Passes []passCost `json:"passes,omitempty"`
	// Attempted counts the points of every pass run; Failed those that
	// rendered ERR plus the table lines that differ from the reference.
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
	// Problems lists what makes the run incorrect (golden mismatch, NaN
	// metric, unrepeatable count); empty on a correct run.
	Problems []string  `json:"problems,omitempty"`
	PerLayer metricSet `json:"per_layer,omitempty"`
	Spans    []span    `json:"spans,omitempty"`
}

// goldenPath is owned by internal/core (golden_test.go regenerates it); the
// benchmark only ever reads it.
const goldenPath = "internal/core/testdata/golden_quick.txt"

// checker accumulates a child's correctness findings.
type checker struct {
	w         *workload
	reference string
	rep       *childReport
}

// check counts a pass's points and compares its rendering with the
// reference.
func (c *checker) check(what string, ps *passSample) {
	c.rep.Attempted += len(ps.points)
	c.rep.Failed += ps.errPoints()
	if got := ps.rendering(); got != c.reference {
		n := diffLines(c.reference, got)
		c.rep.Failed += n
		c.rep.Problems = append(c.rep.Problems,
			fmt.Sprintf("%s: rendered tables differ from the reference in %d lines", what, n))
	}
}

// golden compares the golden-pinned blocks of a paper-quick pass with the
// file internal/core owns.
func (c *checker) golden(ps *passSample) {
	if !c.w.golden {
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		c.rep.Problems = append(c.rep.Problems, fmt.Sprintf("golden: %v", err))
		return
	}
	var got strings.Builder
	for _, id := range goldenIDs {
		for ci, cell := range c.w.cells {
			if cell.id == id {
				got.WriteString(ps.cells[ci].rendered)
			}
		}
	}
	if got.String() != string(want) {
		c.rep.Problems = append(c.rep.Problems,
			fmt.Sprintf("golden: blocks %v differ from %s in %d lines", goldenIDs, goldenPath, diffLines(string(want), got.String())))
	}
}

func diffLines(a, b string) int {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	if len(al) < len(bl) {
		al, bl = bl, al
	}
	n := len(al) - len(bl)
	for i := range bl {
		if al[i] != bl[i] {
			n++
		}
	}
	return n
}

// reference is the rendering every pass of the workload must match byte for
// byte: the cells run the plain way, classic single heap and telemetry
// detached. When cfg is that already, the given first pass is the reference.
func (w *workload) reference(order []int, cfg passConfig, first *passSample) string {
	plain := passConfig{shards: 1}
	if cfg == plain {
		return first.rendering()
	}
	ref := w.runPass(order, plain)
	return ref.rendering()
}

// childMeasure is the untraced child: a cold pass, then (unless setupOnly)
// warm passes back to back for seconds, three at least; it stops where one
// more pass would overshoot by more than half a pass.
func childMeasure(w *workload, seed int64, seconds float64, spawned time.Time, setupOnly bool) childReport {
	var rep childReport
	order := w.order(seed)
	cfg := passConfig{shards: w.shards, tel: w.tel}
	boot := time.Since(spawned)
	cold := w.runPass(order, cfg)
	rep.ColdMS = append([]float64{ms(boot)}, cold.units(w.cellUnits)...)
	if setupOnly {
		return rep
	}
	chk := &checker{w: w, rep: &rep, reference: w.reference(order, cfg, &cold)}
	chk.check("cold pass", &cold)
	chk.golden(&cold)
	loop := time.Now()
	for i := 0; ; i++ {
		if el := time.Since(loop).Seconds(); i >= 3 && el+el/float64(i)/2 > seconds {
			break
		}
		runtime.GC() // every pass starts from a collected heap
		ps := w.runPass(order, cfg)
		chk.check(fmt.Sprintf("pass %d", i+1), &ps)
		rep.Passes = append(rep.Passes, costOf(w, &ps))
	}
	return rep
}

// childTrace is the traced child: the layer drivers, then one untraced and
// one traced pass of the workload, all under the benchmark's own spans.
func childTrace(w *workload, seed int64, shrink int) childReport {
	var rep childReport
	tr := newTracer()
	out := metricSet{}
	problem := func(err error) {
		if err != nil {
			rep.Problems = append(rep.Problems, err.Error())
		}
	}
	problem(runLayerDrivers(tr, seed, shrink, out))
	driveTelemetry(tr, out, shrink)
	driveShards(tr, out, shrink)
	driveCore(tr, out, shrink)

	order := w.order(seed)
	chk := &checker{w: w, rep: &rep}
	cfg := passConfig{shards: w.shards, tel: w.tel}
	runtime.GC()
	base := w.runPass(order, cfg)
	chk.reference = w.reference(order, cfg, &base)
	chk.check("untraced pass", &base)
	runtime.GC()
	before := tr.count()
	id := tr.begin(0, w.name, "pass")
	cfg.tr, cfg.parent = tr, id
	traced := w.runPass(order, cfg)
	tr.end(id, map[string]any{"events": traced.events(), "allocs": traced.mallocs})
	chk.check("traced pass", &traced)
	chk.golden(&traced)

	w.passMetrics(&base, &traced, out)
	out.set("bench.trace_overhead_x", float64(traced.wall)/float64(base.wall))
	out.set("bench.spans_recorded", float64(tr.count()-before))
	out.set("runtime.peak_rss_mb", peakRSSMB())
	problem(out.check(perLayer))
	rep.PerLayer = out
	rep.Spans = tr.spans
	return rep
}

// passMetrics emits the per-layer metrics measured on the workload itself:
// what a pass is made of (events, points, simulated seconds), its cost per
// event, and its wall time split by experiment and by topology. A family or
// preset the workload does not run reads 0.
func (w *workload) passMetrics(base, traced *passSample, out metricSet) {
	out.set("core.events_per_pass", float64(traced.events()))
	out.set("core.points_per_pass", float64(len(traced.points)))
	out.set("core.sim_s_per_pass", traced.simSeconds())
	out.set("core.ns_per_event", float64(base.wall.Nanoseconds())/float64(base.events()))
	var walls []float64
	for _, ps := range []*passSample{base, traced} {
		for _, pt := range ps.points {
			walls = append(walls, ms(pt.wall))
		}
	}
	out.set("core.point_wall_p95_ms", percentile(walls, 0.95))
	out.set("core.paper_peak_err_pct", w.peakErrPct(traced))
	sum := func(match func(cell) bool) (wall, events float64) {
		for ci, c := range w.cells {
			if match(c) {
				wall += ms(traced.cells[ci].wall)
				events += float64(traced.cells[ci].events)
			}
		}
		return wall, events
	}
	for _, id := range paperIDs {
		wall, events := sum(func(c cell) bool { return c.id == id })
		out.set("core.family."+id+".wall_ms", wall)
		out.set("core.family."+id+".events", events)
	}
	for _, preset := range multisitePresets {
		wall, _ := sum(func(c cell) bool { return c.opt.Topo == preset })
		out.set("core.topo."+preset+".wall_ms", wall)
	}
	out.set("runtime.pass_cpu_ms", ms(base.cpu))
	out.set("runtime.gc_cycles_per_pass", float64(base.gcCycles))
	out.set("runtime.gc_pause_ms_per_pass", float64(base.gcPauseNS)/1e6)
}

// spawnChild starts a child of this binary in the given mode and decodes
// its report.
func spawnChild(mode string, w *workload, seed int64, seconds float64) (childReport, error) {
	var rep childReport
	exe, err := os.Executable()
	if err != nil {
		return rep, fmt.Errorf("locate own binary: %w", err)
	}
	var stdout bytes.Buffer
	cmd := exec.Command(exe,
		"-child", mode, "-workload", w.name,
		"-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds),
		"-spawned", fmt.Sprint(time.Now().UnixNano()))
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return rep, fmt.Errorf("%s child of %s: %w", mode, w.name, err)
	}
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
		return rep, fmt.Errorf("%s child of %s: decode report: %w", mode, w.name, err)
	}
	return rep, nil
}
