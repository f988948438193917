package mpi

import (
	"fmt"
	"testing"

	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/topo"
)

// MPI has no recovery story: an RC connection that exhausts its retry budget
// aborts the job, and the abort is the library's own message — rank, op and
// status, nothing of the simulator's — whether the rank that sees the
// errored completion runs on the classic heap or on a shard worker.
func TestAbortNamesRankOpStatus(t *testing.T) {
	const want = "mpi: rank 0: SEND completed with RETRY_EXCEEDED (communication failure)"
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			env := sim.NewEnv()
			env.SetShardWorkers(shards)
			nw, err := topo.Build(env, topo.Topology{
				Sites: []topo.Site{{Name: "A", Nodes: 1}, {Name: "B", Nodes: 1}},
				Links: []topo.Link{{A: "A", B: "B", Delay: 500 * sim.Microsecond, Fault: &fault.Plan{
					// The WAN link dies for good in the middle of the stream.
					WANFlaps: []fault.FlapStep{{At: 2 * sim.Millisecond, Down: true}},
				}}},
				Shardable: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if env.Sharded() != (shards > 1) {
				t.Fatalf("Sharded() = %v at %d shard workers", env.Sharded(), shards)
			}
			w := NewWorld(nw.Env, nw.Nodes(), Config{})
			defer w.Shutdown()
			defer func() {
				if got := recover(); got != want {
					t.Fatalf("abort panicked with %#v, want %q", got, want)
				}
			}()
			w.Run(func(r *Rank, p *sim.Proc) {
				for i := 0; i < 1000; i++ {
					if r.ID() == 0 {
						r.Send(p, 1, i, nil, 4<<10)
					} else {
						r.Recv(p, 0, i, nil, 4<<10)
					}
				}
			})
			t.Fatal("the job survived a dead WAN link")
		})
	}
}
