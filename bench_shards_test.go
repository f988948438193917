package repro

// Sharded-scheduler benchmarks: a mesh4 world (4 sites, a WAN link per
// site pair) running hierarchical allreduce + broadcast traffic, executed
// single-heap (shards=1) and with one shard worker per site (shards=4),
// plus the star3-hetero preset where the channel-clock scheduler's
// per-link bounds pay off (a 1ms metro link next to 10ms long-haul links).
// Contrasting the tracks gives the parallel scheduler's speedup in
// events/s and its synchronization cost in windows/event (run with
// `go test -bench BenchmarkSharded -run - .`). On a single-core host the
// shard workers can only timeshare, so ~1x events/s is expected there —
// the windows/event drop is host-independent. The recorded numbers are the
// repository benchmark's: `sh bench/run.sh --trace 1` reports both as its
// sim.shard.* per-layer metrics.

import (
	"testing"

	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/topo"
)

// shardedPresetWorkload builds the given preset with the given shard
// worker count, runs a collective-heavy workload across all sites, and
// returns the events executed and scheduler windows run (0 windows when
// the world ran single-heap).
func shardedPresetWorkload(tb testing.TB, preset string, shardWorkers int) (events, windows int64) {
	tb.Helper()
	env := sim.NewEnv()
	env.SetShardWorkers(shardWorkers)
	spec, err := topo.Preset(preset, 2, sim.Millisecond)
	if err != nil {
		tb.Fatal(err)
	}
	nw, err := topo.Build(env, spec)
	if err != nil {
		tb.Fatal(err)
	}
	if shardWorkers > 1 && !env.Sharded() {
		tb.Fatalf("%s world did not partition", preset)
	}
	w := mpi.NewWorld(nw.Env, nw.Nodes(), mpi.Config{})
	w.Run(func(r *mpi.Rank, p *sim.Proc) {
		vec := make([]float64, 1024)
		for i := 0; i < 3; i++ {
			r.HierAllreduce(p, vec)
			r.HierBcast(p, 0, nil, 64<<10)
			r.Allreduce(p, vec)
		}
	})
	w.Shutdown()
	windows = env.TakeWindowStats().Windows // the first take: the whole run
	return env.Executed(), windows
}

// shardedMultisiteWorkload is the mesh4 variant, shared with the
// allocation-bound regression test.
func shardedMultisiteWorkload(tb testing.TB, shardWorkers int) int64 {
	events, _ := shardedPresetWorkload(tb, "mesh4", shardWorkers)
	return events
}

// benchSharded runs one preset x shard-worker cell, reporting events/s,
// events/op and the scheduler's windows/event synchronization cost.
func benchSharded(b *testing.B, preset string, shardWorkers int) {
	b.ReportAllocs()
	var events, windows int64
	for i := 0; i < b.N; i++ {
		ev, wi := shardedPresetWorkload(b, preset, shardWorkers)
		events += ev
		windows += wi
	}
	if shardWorkers > 1 {
		b.ReportMetric(float64(shardWorkers), "shard_workers")
	}
	if events > 0 {
		b.ReportMetric(float64(windows)/float64(events), "windows/event")
	}
	reportKernelRate(b, events)
}

func BenchmarkShardedMultisite1(b *testing.B) { benchSharded(b, "mesh4", 1) }

func BenchmarkShardedMultisite4(b *testing.B) { benchSharded(b, "mesh4", 4) }

func BenchmarkShardedStarHetero1(b *testing.B) { benchSharded(b, "star3-hetero", 1) }

func BenchmarkShardedStarHetero4(b *testing.B) { benchSharded(b, "star3-hetero", 4) }
