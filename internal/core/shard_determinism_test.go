package core

import (
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/ipoib"
	"repro/internal/sim"
	"repro/internal/tcpsim"
	"repro/internal/topo"
)

// multisiteIDs lists the experiments that build N-site topologies — the
// family that actually partitions into shards.
func multisiteIDs() []string {
	var ids []string
	for _, id := range ExperimentIDs {
		if strings.HasPrefix(id, "multisite-") {
			ids = append(ids, id)
		}
	}
	return ids
}

// TestShardedMatchesSequential is the determinism matrix for the sharded
// scheduler: for every multisite experiment and every topology preset, the
// rendered output must be byte-identical across -shards=1, -shards=N and
// the point-parallel -par=8 path, with and without a wan-flap fault plan.
// TestCongestShardedDeterminism extends the matrix to the congest family on
// the heterogeneous-delay preset: congest-streams is the one experiment
// whose queue marks, drops and stalls feed back into endpoint pacing, so it
// proves bounded queues, ECN echo and go-back-N recovery stay byte-identical
// when queue state lives on the transmitting port's shard.
func TestCongestShardedDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("sharded determinism matrix skipped in -short mode")
	}
	opt := Options{Quick: true, Topo: "star3-hetero"}
	const id = "congest-streams"
	base := renderTables(RunWith(id, opt, RunnerOptions{Workers: 1}))
	if strings.Contains(base, "ERR") {
		t.Fatalf("congest-streams produced error rows:\n%s", base)
	}
	for _, ropt := range []RunnerOptions{
		{Workers: 1, ShardWorkers: 4},
		{Workers: 8},
		{Workers: 2, ShardWorkers: 2},
	} {
		got := renderTables(RunWith(id, opt, ropt))
		if got != base {
			t.Fatalf("output diverges at workers=%d shards=%d\n--- sequential ---\n%s\n--- got ---\n%s",
				ropt.Workers, ropt.ShardWorkers, base, got)
		}
	}
}

func TestShardedMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("sharded determinism matrix skipped in -short mode")
	}
	flap := &fault.Plan{Seed: 7, WANFlaps: []fault.FlapStep{
		{At: 2 * sim.Millisecond, Down: true},
		{At: 6 * sim.Millisecond, Down: false},
	}}
	for _, preset := range topo.PresetNames() {
		opt := Options{Quick: true, Topo: preset}
		for _, id := range multisiteIDs() {
			for _, plan := range []*fault.Plan{nil, flap} {
				plan := plan
				name := preset + "/" + id
				if plan != nil {
					name += "/wan-flap"
				}
				t.Run(name, func(t *testing.T) {
					base := renderTables(RunWith(id, opt, RunnerOptions{Workers: 1, Fault: plan}))
					for _, ropt := range []RunnerOptions{
						{Workers: 1, ShardWorkers: 4},
						{Workers: 8},
						{Workers: 2, ShardWorkers: 2},
					} {
						ropt.Fault = plan
						got := renderTables(RunWith(id, opt, ropt))
						if got != base {
							t.Fatalf("output diverges at workers=%d shards=%d\n--- sequential ---\n%s\n--- got ---\n%s",
								ropt.Workers, ropt.ShardWorkers, base, got)
						}
					}
				})
			}
		}
	}
	// The harness's TCP helper across shards. The registry's loss-tcp draws
	// Bernoulli segment loss, which is not a function of simulated time alone,
	// so its worlds never partition; here the loss comes from the WAN flap
	// (segments sent into the outage are gone, the RTO brings the stream
	// back), which is, and the hub and its metro satellite land on different
	// shards.
	t.Run("star3-hetero/loss-tcp", func(t *testing.T) {
		measure := func(shardWorkers int) float64 {
			m := &Meter{shardWorkers: shardWorkers, fault: flap}
			env := m.NewEnv()
			defer env.Shutdown()
			spec, err := topo.Preset("star3-hetero", 1, sim.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			nw, err := topo.Build(env, spec)
			if err != nil {
				t.Fatal(err)
			}
			if env.Sharded() != (shardWorkers > 1) {
				t.Fatalf("shardWorkers=%d: partitioned=%v", shardWorkers, env.Sharded())
			}
			net := ipoib.NewNetwork()
			da := net.Attach(nw.Site("hub").Nodes[0].HCA, ipoib.Datagram, 0)
			db := net.Attach(nw.Site("s1").Nodes[0].HCA, ipoib.Datagram, 0)
			sa := tcpsim.NewStack(da, tcpsim.Config{RTO: 5 * sim.Millisecond})
			sb := tcpsim.NewStack(db, tcpsim.Config{RTO: 5 * sim.Millisecond})
			bw, err := tcpThroughput(env, sa, sb, 2, 100*sim.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			return bw
		}
		base := measure(1)
		if base < 10 {
			t.Fatalf("the streams did not recover from the flap on the classic path: %v MB/s", base)
		}
		for _, shardWorkers := range []int{2, 4} {
			if got := measure(shardWorkers); got != base {
				t.Fatalf("goodput diverges at shards=%d: %v, sequential %v", shardWorkers, got, base)
			}
		}
	})
}
