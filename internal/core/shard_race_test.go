package core

import (
	"testing"

	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/topo"
)

// TestShardedRaceStress drives a mesh4 world with concurrent shard workers
// and live telemetry metrics — the configuration with the most cross-shard
// traffic (a dedicated WAN link between every site pair) and the most
// shared-registry pressure. Run under `go test -race` this is the data-race
// regression test for the sharded scheduler; without the race detector it
// is a cheap smoke test.
func TestShardedRaceStress(t *testing.T) {
	tel := &telemetry.Telemetry{Metrics: telemetry.NewRegistry()}
	for iter := 0; iter < 3; iter++ {
		env := sim.NewEnv()
		env.SetShardWorkers(4)
		telemetry.Attach(env, tel)
		spec, err := topo.Preset("mesh4", 2, sim.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		nw, err := topo.Build(env, spec)
		if err != nil {
			t.Fatal(err)
		}
		if !env.Sharded() {
			t.Fatal("mesh4 world did not partition")
		}
		w := mpi.NewWorld(nw.Env, nw.Nodes(), mpi.Config{})
		w.Run(func(r *mpi.Rank, p *sim.Proc) {
			vec := make([]float64, 256)
			for i := 0; i < 2; i++ {
				r.HierAllreduce(p, vec)
				r.Allreduce(p, vec)
				r.Bcast(p, 0, nil, 64<<10)
				r.HierBcast(p, 0, nil, 64<<10)
				r.Barrier(p)
			}
		})
		prof := w.Profile()
		if prof.Msgs == 0 {
			t.Fatal("no messages recorded in the census")
		}
		d := env.TakeWindowStats() // the first take: the whole run
		if d.Windows == 0 || len(d.Shards) != 4 {
			t.Fatalf("window stats: %d windows, %d shards", d.Windows, len(d.Shards))
		}
		w.Shutdown()
	}
	// The telemetry registry took concurrent counter traffic from every
	// shard; a race here would have tripped the detector above.
	if tel.Metrics == nil {
		t.Fatal("registry vanished")
	}
}

// TestShardedRunnerRaceStress layers the point-parallel worker pool on top
// of sharded worlds with a shared metrics registry — the peak-concurrency
// configuration of the harness (Workers x ShardWorkers OS goroutines plus
// runner bookkeeping).
func TestShardedRunnerRaceStress(t *testing.T) {
	if testing.Short() {
		t.Skip("runner race stress skipped in -short mode")
	}
	tel := &telemetry.Telemetry{Metrics: telemetry.NewRegistry()}
	opt := Options{Quick: true, Topo: "mesh4"}
	res := RunWith("multisite-allreduce", opt, RunnerOptions{
		Workers: 2, ShardWorkers: 2, Telemetry: tel,
	})
	if len(res.Errors) != 0 {
		t.Fatalf("points failed: %v", res.Errors)
	}
}
