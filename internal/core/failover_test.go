package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/sim"
)

// TestFailoverDeterminismMatrix pins the failover family's byte-identity
// across the execution matrix: every failover experiment on every
// multi-site preset, with no run-wide plan and with a run-wide flap (all
// links down at 2 ms, up at 3 ms or, as -fault wan-flap=2ms:3ms says it, at
// 5 ms), must render identically sequential,
// sharded, and point-parallel over sharded worlds. Health is one path on
// every world — only links whose plan arms a WAN lever are monitored, and a
// packet with no route is discarded, its sender failing when the retry
// budget runs out — so the classic heap and the sharded scheduler see the
// same epochs, the same drops and the same completions, down to which
// process an error row names. On ring4 and mesh4,
// which never partition, every point must also be a measurement.
func TestFailoverDeterminismMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("failover determinism matrix skipped in -short mode")
	}
	flap := func(up sim.Time) *fault.Plan {
		return &fault.Plan{Seed: 7, WANFlaps: []fault.FlapStep{
			{At: 2 * sim.Millisecond, Down: true},
			{At: up, Down: false},
		}}
	}
	redundant := map[string]bool{"ring4": true, "mesh4": true}
	for _, preset := range []string{"star3", "star3-hetero", "ring4", "mesh4"} {
		for _, id := range []string{"failover-kill", "failover-debounce", "failover-services"} {
			for _, plan := range []*fault.Plan{nil, flap(3 * sim.Millisecond), flap(5 * sim.Millisecond)} {
				name := preset + "/" + id
				if plan != nil {
					name += fmt.Sprintf("/wan-flap-up-%v", plan.WANFlaps[1].At)
				}
				t.Run(name, func(t *testing.T) {
					run := func(ropt RunnerOptions) string {
						res := RunWith(id, Options{Quick: true, Topo: preset, Fault: plan}, ropt)
						return render(res)
					}
					base := run(RunnerOptions{Workers: 1})
					if redundant[preset] && strings.Contains(base, "ERR") {
						t.Fatalf("%s has redundant paths and must land every measurement, got ERR rows:\n%s", preset, base)
					}
					for _, ropt := range []RunnerOptions{{Workers: 1, ShardWorkers: 4}, {Workers: 2, ShardWorkers: 2}} {
						if got := run(ropt); got != base {
							t.Fatalf("output diverges at workers=%d shards=%d\n--- sequential ---\n%s\n--- got ---\n%s",
								ropt.Workers, ropt.ShardWorkers, base, got)
						}
					}
				})
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
	out := render(RunWith("failover-kill", opt, RunnerOptions{Workers: 1}))
	if !strings.Contains(out, "ERR") {
		t.Fatalf("star3 has no redundant paths; killing a link must degrade to ERR rows, got:\n%s", out)
	}
	if !strings.Contains(out, "no-fault") {
		t.Fatalf("missing no-fault baseline series:\n%s", out)
	}
}
