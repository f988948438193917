package core

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// Spec declares one experiment: a stable identifier, a one-line
// description (the -list output), plus a builder that expands the
// experiment, for a given set of Options, into skeleton tables and the
// independent measurement points that fill them.
type Spec struct {
	ID    string
	Desc  string
	Build func(opt Options) *Plan
}

// Plan is an expanded experiment. Tables are fully shaped at build time —
// every series exists and every slot is reserved in the order the
// sequential harness would have produced — so points may execute in any
// order, on any number of workers, and the rendered output is identical.
type Plan struct {
	Tables []*stats.Table
	Points []Point
	// Finish, if non-nil, runs once after every point has landed. It
	// derives post-processed series (e.g. fig12's slowdown-vs-zero-delay)
	// from the measured ones.
	Finish func()
}

// Point is one independently runnable measurement cell: Fn builds its own
// simulation world(s) through the Meter and returns the measured value,
// which the runner commits into the point's reserved table slot.
type Point struct {
	Label  string
	Fn     func(m *Meter) float64
	commit func(y float64)
}

// point reserves the next slot of series s at x and appends a Point whose
// result fills it.
func (pl *Plan) point(s *stats.Series, x float64, label string, fn func(m *Meter) float64) {
	slot := s.Alloc(x)
	pl.Points = append(pl.Points, Point{
		Label:  label,
		Fn:     fn,
		commit: func(y float64) { s.Set(slot, y) },
	})
}

// Meter tracks the simulation environments a point creates, so the runner
// can attribute simulated time and executed events to the point and unwind
// leftover processes once the point completes.
type Meter struct {
	envs []*sim.Env
	// arena, when non-nil, is the running worker's: the point's first
	// environment starts with the memory the worker's earlier points
	// recycled, and recycle hands it back (see sim.Arena).
	arena *sim.Arena
	// tel, when non-nil, is attached to every environment the point
	// creates, so layer instrumentation lights up.
	tel *telemetry.Telemetry
	// fault, when non-nil, is attached to every environment the point
	// creates; the wan and tcpsim layers arm it at construction time. It
	// is seeded either by the runner (Options.Fault, a run-wide chaos
	// plan) or by the point itself (WithFault, the loss-* family).
	fault *fault.Plan
	// shardWorkers > 1 is declared on every environment the point creates,
	// so topo.Build may split its world into per-site shards (it does when
	// the links and fault plans allow; see RunnerOptions.ShardWorkers).
	shardWorkers int
	// sampleEvery > 0 arms sim-time timeline sampling: every environment
	// the point creates gets its own metrics registry and a Sampler wired
	// to the kernel's sampling hook, so concurrently running points never
	// interleave their sampled deltas. The per-env registries fold back
	// into the shared registry (tel.Metrics) when the point completes —
	// counter and bucket adds commute, so run-wide totals stay independent
	// of point scheduling.
	sampleEvery sim.Time
	samplers    []envSampler
}

// envSampler pairs one sampled environment with its private registry.
type envSampler struct {
	env *sim.Env
	reg *telemetry.Registry
	s   *telemetry.Sampler
}

// NewEnv creates a simulation environment owned by this point.
func (m *Meter) NewEnv() *sim.Env {
	if m == nil {
		return sim.NewEnv()
	}
	env := m.arena.NewEnv()
	if m.shardWorkers > 1 {
		env.SetShardWorkers(m.shardWorkers)
	}
	if m.sampleEvery > 0 {
		reg := telemetry.NewRegistry()
		t := &telemetry.Telemetry{Metrics: reg}
		if m.tel != nil {
			t.Spans = m.tel.Spans
		}
		telemetry.Attach(env, t)
		s := telemetry.NewSampler(reg, m.sampleEvery)
		env.SetSampler(m.sampleEvery, s.Tick)
		m.samplers = append(m.samplers, envSampler{env: env, reg: reg, s: s})
	} else if m.tel != nil {
		telemetry.Attach(env, m.tel)
	}
	if m.fault != nil {
		// An invalid plan fails this one point (error row), never the
		// whole run.
		m.Check(fault.AttachPlan(env, m.fault))
	}
	m.envs = append(m.envs, env)
	return env
}

// takeTimeline assembles the point's sampled timeline: each environment's
// series stacked end to end (environment i's samples shifted by the virtual
// time consumed by environments 0..i-1, mirroring the span recorder's epoch
// stacking), derived series computed, and the per-env registries merged
// into the run-wide one. Call after the point's Fn returned, before close.
// The timeline takes over the samplers' rows (PointTimeline.Absorb), so the
// point's samplers are dead once it returns.
func (m *Meter) takeTimeline(experiment, label string, traceOff sim.Time) telemetry.PointTimeline {
	pt := telemetry.PointTimeline{
		Experiment: experiment, Point: label,
		Every: m.sampleEvery, TraceOffset: traceOff,
	}
	var shared *telemetry.Registry
	if m.tel != nil {
		shared = m.tel.Metrics
	}
	var offset sim.Time
	for _, es := range m.samplers {
		pt.Absorb(es.s.Series(), offset)
		offset += es.env.Now()
		es.reg.MergeInto(shared)
	}
	pt.Finish()
	return pt
}

// WithFault installs a fault plan for every environment the point creates
// from now on, overriding any run-wide plan. The loss-* experiments call
// it with a per-point seeded plan before building their testbeds.
func (m *Meter) WithFault(p *fault.Plan) {
	if m != nil {
		m.fault = p
	}
}

// Check fails the current measurement point if err is non-nil: the point
// commits as an error row (value NaN) instead of a measurement, and the
// rest of the run continues. It must be called from inside a point's Fn.
func (m *Meter) Check(err error) {
	if err != nil {
		panic(&pointFailure{err: err})
	}
}

// pair builds the standard one-node-per-cluster WAN testbed.
func (m *Meter) pair(delay sim.Time) (*sim.Env, *cluster.Testbed) {
	env := m.NewEnv()
	tb := cluster.New(env, cluster.Config{NodesA: 1, NodesB: 1, Delay: delay})
	return env, tb
}

// SimTime returns the total virtual time reached across the point's
// environments.
func (m *Meter) SimTime() sim.Time {
	var t sim.Time
	for _, e := range m.envs {
		t += e.Now()
	}
	return t
}

// Events returns the total number of simulation events executed across the
// point's environments.
func (m *Meter) Events() int64 {
	var n int64
	for _, e := range m.envs {
		n += e.Executed()
	}
	return n
}

// Digest sums the dispatch digests (sim.Env.Digest) of the point's
// environments, mod 2⁶⁴: a fingerprint of the order its events ran in.
func (m *Meter) Digest() uint64 {
	var d uint64
	for _, e := range m.envs {
		d += e.Digest()
	}
	return d
}

// recordShardStats publishes the parallel scheduler's progress counters
// for every partitioned world the point ran — windows, cumulative
// safe-horizon advance, and per-shard dispatched-event and barrier-stall
// counts — and returns the point's window and horizon totals for the
// runner's per-point metrics. It consumes interval deltas
// (sim.Env.TakeWindowStats), not cumulative totals, so a world whose stats
// are sampled more than once (warmup phases, repeated harness sampling)
// contributes each window exactly once. Counters are atomic and keyed per
// shard index, so concurrent points on the worker pool aggregate
// race-free. Telemetry publication is skipped without a metrics registry;
// the returned totals are always computed.
func (m *Meter) recordShardStats() (windows int64, horizon sim.Time) {
	if m == nil {
		return 0, 0
	}
	var reg *telemetry.Registry
	if m.tel != nil {
		reg = m.tel.Metrics
	}
	for _, e := range m.envs {
		d := e.TakeWindowStats()
		if d.Shards == nil {
			continue
		}
		windows += d.Windows
		horizon += d.Horizon
		if reg == nil {
			continue
		}
		reg.Counter("sim.shard.windows").Add(d.Windows)
		reg.Counter("sim.shard.horizon").Add(int64(d.Horizon))
		for _, s := range d.Shards {
			reg.Counter(fmt.Sprintf("sim.shard.%d.executed", s.Shard)).Add(s.Executed)
			reg.Counter(fmt.Sprintf("sim.shard.%d.stalls", s.Shard)).Add(s.Stalls)
		}
	}
	return windows, horizon
}

// close shuts down every tracked environment, killing parked processes so
// the goroutines carrying them return to the kernel's pool.
func (m *Meter) close() {
	for _, e := range m.envs {
		e.Shutdown()
	}
}

// recycle returns what the point's environments recycled to the worker's
// arena. It comes last — after close, and after SimTime and Events were read
// — for every point, one that failed too: a panic may stop a world anywhere,
// and sim.Arena.Reclaim reads nothing of it but the kernel's own memory.
func (m *Meter) recycle() {
	for _, e := range m.envs {
		m.arena.Reclaim(e)
	}
}

// registry lists every experiment in the paper's order. Adding a figure
// means adding a builder and one entry here; the CLI, RunAllWith, the benchmark
// and the determinism test all pick it up from this table.
var registry = filling([]Spec{
	{"table1", "delay overhead of the Longbow's emulated wire length (Table 1)", table1},
	{"fig3", "verbs-level small-message latency across the WAN bridge", fig3},
	{"fig4", "verbs UD uni/bidirectional bandwidth vs WAN delay", fig4},
	{"fig5", "verbs RC uni/bidirectional bandwidth vs WAN delay", fig5},
	{"fig6", "IPoIB-UD TCP throughput vs delay (windows, parallel streams)", fig6},
	{"fig7", "IPoIB-RC TCP throughput vs delay (MTUs, parallel streams)", fig7},
	{"fig8", "MPI bandwidth vs WAN delay (MVAPICH2 model)", fig8},
	{"fig9", "MPI rendezvous-threshold tuning at 1 ms delay", fig9},
	{"fig10", "multi-pair MPI aggregate message rate vs delay", fig10},
	{"fig11", "MPI broadcast, stock vs WAN-aware hierarchical algorithm", fig11},
	{"fig12", "NAS kernel execution time vs WAN delay (64 procs)", fig12},
	{"fig13", "NFS read throughput over RDMA and IPoIB vs delay", fig13},
	// The loss-* family extends the paper to lossy WAN circuits (see
	// FAULTS.md); each point arms its own seeded fault plan.
	{"loss-goodput", "RC streaming goodput vs per-packet WAN loss", lossGoodput},
	{"loss-latency", "RC small-message latency vs per-packet WAN loss", lossLatency},
	{"loss-flap", "RC streaming goodput across scheduled WAN outages", lossFlap},
	{"loss-tcp", "IPoIB TCP goodput vs per-segment loss", lossTCP},
	// The multisite-* family runs on N-site topologies (Options.Topo picks
	// the topo preset; see multisite.go).
	{"multisite-bcast", "flat vs hierarchical broadcast on an N-site topology (latency + per-link WAN bytes)", multisiteBcast},
	{"multisite-allreduce", "flat vs hierarchical allreduce latency on an N-site topology", multisiteAllreduce},
	{"multisite-nfs", "NFS/RDMA read throughput from each satellite site to a central server", multisiteNFS},
	{"multisite-loss", "RC goodput across an N-site topology with one WAN link killed per series", multisiteLoss},
	// The congest-* family bounds the WAN egress queues and lets congestion
	// emerge from stream contention instead of fault injection (see
	// congest.go).
	{"congest-streams", "IPoIB-UD parallel-stream goodput with bounded/ECN-marked WAN queues", congestStreams},
	{"congest-queue", "IPoIB-UD goodput vs WAN queue bound: tail drop, ECN and lossless backpressure", congestQueue},
	// The failover-* family arms the fabric's self-healing routing layer
	// and kills links mid-run: on redundant presets every point reroutes
	// and lands a measurement instead of an ERR row (see failover.go).
	{"failover-kill", "RC goodput/latency with one WAN link killed mid-run and failover on", failoverKill},
	{"failover-debounce", "failover convergence time vs health-monitor debounce window", failoverDebounce},
	{"failover-services", "MPI/NFS/TCP surviving a mid-run link kill with failover on", failoverServices},
})

// filling makes each spec's Build fill the Options it is given (and panic on
// ones that do not validate) before its builder sees them, so a builder
// reads defaults and never checks a field.
func filling(specs []Spec) []Spec {
	for i := range specs {
		build := specs[i].Build
		specs[i].Build = func(opt Options) *Plan { return build(opt.filled()) }
	}
	return specs
}

// ExperimentIDs lists the registered experiment identifiers, in the
// paper's order.
var ExperimentIDs = func() []string {
	ids := make([]string, len(registry))
	for i, s := range registry {
		ids[i] = s.ID
	}
	return ids
}()

// Specs returns a copy of the experiment registry, in the paper's order
// (the CLI's -list view).
func Specs() []Spec {
	out := make([]Spec, len(registry))
	copy(out, registry)
	return out
}

// Lookup returns the Spec registered under id.
func Lookup(id string) (Spec, bool) {
	for _, s := range registry {
		if s.ID == id {
			return s, true
		}
	}
	return Spec{}, false
}

// mustLookup panics on an unknown id (the CLI validates ids up front; a
// miss here is a programming error).
func mustLookup(id string) Spec {
	s, ok := Lookup(id)
	if !ok {
		panic(fmt.Sprintf("core: unknown experiment %q", id))
	}
	return s
}
