package main

import (
	"fmt"
	"math"
	"sort"
)

// metricDef describes one metric; BENCHMARK.json repeats name, unit,
// direction and bound, and bench_test.go checks the two agree.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: relative worsening that is a regression
	// Kind says how far two runs of one commit may differ: "exact" (a
	// simulated count) not at all, "allocs" by 1 %; "" is a host-dependent
	// or informational value, compared only through its bound if it has one.
	Kind string
}

// endToEnd are the metrics a user of the simulator sees, one value per
// workload run.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "pass_wall_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "allocs_per_pass", Unit: "count", Better: "lower", Bound: 0.02, Kind: "allocs"},
	{Name: "alloc_mb_per_pass", Unit: "MB", Better: "lower", Bound: 0.06, Kind: "allocs"},
}

// perLayer lists the per-layer metrics in report order: the fixed layer
// drivers first (identical whichever workload the traced run names), then
// the metrics measured on the traced run's own workload.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var defs []metricDef
	add := func(kind, unit string, names ...string) {
		for _, n := range names {
			defs = append(defs, metricDef{Name: n, Unit: unit, Better: "lower", Kind: kind})
		}
	}
	// rates adds the ns/events/allocs per-unit metrics a driver emits.
	rates := func(prefix, unit string, which ...string) {
		for _, wh := range which {
			switch wh {
			case "ns":
				add("", "ns", prefix+".ns_per_"+unit)
			case "events":
				add("exact", "count", prefix+".events_per_"+unit)
			case "allocs":
				add("allocs", "count", prefix+".allocs_per_"+unit)
			}
		}
	}
	rates("sim.schedule", "event", "ns", "allocs")
	rates("sim.handoff", "op", "ns", "allocs")
	rates("sim.queue", "op", "ns")
	add("", "ratio", "sim.shard.windows_per_event", "sim.shard.hetero_windows_per_event", "sim.shard.stall_share")
	add("", "x", "sim.shard.sharded_over_classic_wall_x")
	add("", "x", "sim.shard.sharded_over_classic_allocs_x")
	rates("ib.rc_stream", "msg", "ns", "events", "allocs")
	rates("ib.rc_stream_bounded", "msg", "ns", "events", "allocs")
	rates("ib.ud_stream", "msg", "ns", "allocs")
	rates("ib.rc_pingpong", "iter", "ns", "events")
	rates("fault.rc_loss", "msg", "ns")
	add("exact", "count", "fault.rc_loss.retransmits_per_msg")
	add("exact", "count", "wan.congest.ecn_marks", "wan.congest.overflow_drops")
	add("exact", "ns", "wan.congest.queue_wait_p99_ns")
	rates("topo.build_mesh4", "world", "ns", "allocs")
	rates("cluster.new_16x16", "world", "ns", "allocs")
	rates("tcpsim.ud_stream", "mb", "ns", "events", "allocs")
	rates("tcpsim.rc_stream", "mb", "ns", "events", "allocs")
	rates("tcpsim.dial", "conn", "ns")
	add("exact", "count", "tcpsim.congest.fast_retransmits", "tcpsim.congest.cwnd_cuts")
	rates("sdp.stream", "mb", "ns", "allocs")
	rates("mpi.newworld_32", "world", "ns", "allocs")
	rates("mpi.eager_pingpong", "iter", "ns", "events", "allocs")
	rates("mpi.rndv_bw", "msg", "ns", "events", "allocs")
	rates("mpi.hier_bcast_32", "op", "ns", "events")
	rates("mpi.msgrate_16pairs", "msg", "ns")
	rates("nas.is_w_16", "run", "ns", "events")
	rates("nfs.rdma_read", "mb", "ns", "events", "allocs")
	rates("nfs.tcp_rc_read", "mb", "ns", "events", "allocs")
	rates("nfs.mount", "mount", "ns")
	add("", "ms", "telemetry.detached.pass_ms")
	add("", "x", "telemetry.metrics.overhead_x", "telemetry.sampling.overhead_x", "telemetry.spans.overhead_x")
	add("exact", "count", "telemetry.spans.recorded_per_pass", "telemetry.spans.dropped_per_pass")
	add("", "ns", "telemetry.export.trace_ns_per_span")
	add("exact", "MB", "telemetry.export.trace_mb_per_pass")
	add("", "ms", "telemetry.export.timeline_ms_per_pass")
	add("", "ms", "core.plan_build.ms", "core.render.ms")
	defs = append(defs, metricDef{Name: "core.par_speedup_x", Unit: "x", Better: "higher"})

	// Measured on the traced run's own workload. The sharded workload's
	// event count wobbles by a few events per pass (window bookkeeping
	// depends on worker interleaving), so these counts carry no "exact"
	// here; bench_test.go asserts exactness on classic passes.
	add("", "count", "core.events_per_pass", "core.points_per_pass")
	add("", "s", "core.sim_s_per_pass")
	add("", "ns", "core.ns_per_event")
	add("", "ms", "core.point_wall_p95_ms")
	add("", "%", "core.paper_peak_err_pct")
	for _, id := range paperIDs {
		add("", "ms", "core.family."+id+".wall_ms")
		add("", "count", "core.family."+id+".events")
	}
	for _, preset := range multisitePresets {
		add("", "ms", "core.topo."+preset+".wall_ms")
	}
	add("", "MB", "runtime.peak_rss_mb")
	add("", "ms", "runtime.pass_cpu_ms")
	add("", "count", "runtime.gc_cycles_per_pass")
	add("", "ms", "runtime.gc_pause_ms_per_pass")
	add("", "x", "bench.trace_overhead_x")
	add("", "count", "bench.spans_recorded")
	return defs
}

// metricSet collects one run's values by name.
type metricSet map[string]float64

func (m metricSet) set(name string, v float64) {
	if _, dup := m[name]; dup {
		panic("bench: metric " + name + " emitted twice")
	}
	m[name] = v
}

// check verifies the set holds exactly the defined names, each finite.
func (m metricSet) check(defs []metricDef) error {
	known := make(map[string]bool, len(defs))
	for _, d := range defs {
		known[d.Name] = true
		v, ok := m[d.Name]
		if !ok {
			return fmt.Errorf("metric %s was not emitted", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.Name, v)
		}
	}
	for name := range m {
		if !known[name] {
			return fmt.Errorf("metric %s is emitted but not defined", name)
		}
	}
	return nil
}

// quietSum is the estimator behind the timing metrics. Each sample tiles
// one repetition of the same work into units, position by position the same
// piece of it; the estimate is the sum over positions of the fastest time
// seen there: what the work costs while the host leaves the process alone.
// On a shared host whole seconds run 1.3 to 1.5 times slower whenever a
// neighbour is busy, a median over passes inherits that, and a pass is too
// long to fit a quiet spell; a unit is not. NaN when the samples do not
// tile alike.
func quietSum(samples [][]float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for i := range samples[0] {
		best := math.Inf(1)
		for _, s := range samples {
			if len(s) != len(samples[0]) {
				return math.NaN()
			}
			best = math.Min(best, s[i])
		}
		sum += best
	}
	return sum
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (exclusive method), which is what the
// repeatability criterion is stated in. It needs two values or more.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return math.NaN(), math.NaN()
	}
	at := func(i int) float64 { // i-th of 4 cut points, 1-based
		j := i * (n + 1) / 4
		d := i * (n + 1) % 4
		if j < 1 {
			j, d = 1, 0
		}
		if j > n-1 {
			j, d = n-1, 4
		}
		return (s[j-1]*float64(4-d) + s[j]*float64(d)) / 4
	}
	return at(1), at(3)
}

// percentile returns the p-quantile (nearest rank) of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}
