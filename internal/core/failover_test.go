package core

import (
	"strings"
	"testing"
)

// TestFailoverDeterminismMatrix pins the failover family's byte-identity
// across the execution matrix: ring4 x failover-kill (a mid-run link kill
// with the self-healing layer armed) must render identically sequential,
// point-parallel, sharded, and both combined — and the base run must be
// all measurements, no ERR rows. The kill is a scheduled flap (a pure
// function of simulated time), so the sharded scheduler's swap-on-epoch
// re-sweep has to reproduce the classic path exactly. failover-services
// puts the middleware stacks — MPI, NFS/RDMA and TCP over IPoIB — through
// the same kill; its TCP rows rendered ERR on a partitioned world while the
// harness parked the acceptor on the dialer's shard.
func TestFailoverDeterminismMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("failover determinism matrix skipped in -short mode")
	}
	mixed := []RunnerOptions{{Workers: 1, ShardWorkers: 4}, {Workers: 8}, {Workers: 2, ShardWorkers: 2}}
	shards := []RunnerOptions{{Workers: 1, ShardWorkers: 2}, {Workers: 1, ShardWorkers: 4}}
	for _, c := range []struct {
		id, topo string
		ropts    []RunnerOptions
	}{
		{"failover-kill", "ring4", mixed},
		{"failover-services", "ring4", shards},
		{"failover-services", "mesh4", shards},
	} {
		opt := Options{Quick: true, Topo: c.topo}
		base := renderTables(RunWith(c.id, opt, RunnerOptions{Workers: 1}))
		if strings.Contains(base, "ERR") {
			t.Fatalf("%s on %s must land every measurement, got ERR rows:\n%s", c.id, c.topo, base)
		}
		for _, ropt := range c.ropts {
			got := renderTables(RunWith(c.id, opt, ropt))
			if got != base {
				t.Fatalf("%s on %s: output diverges at workers=%d shards=%d\n--- sequential ---\n%s\n--- got ---\n%s",
					c.id, c.topo, ropt.Workers, ropt.ShardWorkers, base, got)
			}
		}
	}
}

// TestFailoverPartitionTerminates is the graceful-degradation contract: on
// a star topology every satellite's only path runs through the hub, so
// killing a link leaves no alternate route. The run must still terminate
// — the affected points degrade to explicit ERR rows (bounded retries,
// then StatusRetryExceeded) instead of hanging, and the unaffected
// points still measure.
func TestFailoverPartitionTerminates(t *testing.T) {
	if testing.Short() {
		t.Skip("failover partition test skipped in -short mode")
	}
	opt := Options{Quick: true, Topo: "star3"}
	out := renderTables(RunWith("failover-kill", opt, RunnerOptions{Workers: 1}))
	if !strings.Contains(out, "ERR") {
		t.Fatalf("star3 has no redundant paths; killing a link must degrade to ERR rows, got:\n%s", out)
	}
	if !strings.Contains(out, "no-fault") {
		t.Fatalf("missing no-fault baseline series:\n%s", out)
	}
}
