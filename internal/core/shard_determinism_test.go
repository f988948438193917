package core

import (
	"fmt"
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

// TestEveryFamilyShards: one sharding rule for every world. Every registered
// family at Quick renders the same tables and error rows sequentially, on
// four shard workers, and on two point workers of two shard workers each —
// and the paper's own testbed really partitions: fig5, fig7 and fig13 run
// sharded windows at two shard workers.
func TestEveryFamilyShards(t *testing.T) {
	if testing.Short() {
		t.Skip("every-family sharded sweep skipped in -short mode")
	}
	opt := Options{Quick: true}
	for _, id := range ExperimentIDs {
		t.Run(id, func(t *testing.T) {
			base := RunWith(id, opt, RunnerOptions{Workers: 1})
			want := renderTables(base) + fmt.Sprint(base.Errors)
			for _, ropt := range []RunnerOptions{{Workers: 1, ShardWorkers: 4}, {Workers: 2, ShardWorkers: 2}} {
				res := RunWith(id, opt, ropt)
				if got := renderTables(res) + fmt.Sprint(res.Errors); got != want {
					t.Fatalf("output diverges at workers=%d shards=%d\n--- sequential ---\n%s\n--- got ---\n%s",
						ropt.Workers, ropt.ShardWorkers, want, got)
				}
				switch id {
				case "fig5", "fig7", "fig13":
					if ropt.ShardWorkers == 2 && res.Metrics.ShardWindows == 0 {
						t.Errorf("%s ran no sharded window at %d shard workers", id, ropt.ShardWorkers)
					}
				}
			}
		})
	}
}

// TestShardedMatchesSequential is the determinism matrix for the sharded
// scheduler: for every multisite experiment and every topology preset, the
// rendered output must be byte-identical across -shards=1, -shards=N and
// the point-parallel -par=8 path, with no fault plan, a wan-flap plan, a
// WAN loss and corruption plan, and a TCP segment-loss plan. A random-drop
// plan shards like any other: its worlds must run sharded windows.
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
	plans := []struct {
		suffix string
		plan   *fault.Plan
	}{
		{"", nil},
		{"/wan-flap", flap},
		{"/wan-loss", &fault.Plan{Seed: 7, WANLoss: 0.01, WANCorrupt: 0.005}},
		{"/tcp-loss", &fault.Plan{Seed: 5, TCPLoss: 0.01}},
	}
	for _, preset := range topo.PresetNames() {
		opt := Options{Quick: true, Topo: preset}
		for _, id := range multisiteIDs() {
			for _, p := range plans {
				plan := p.plan
				t.Run(preset+"/"+id+p.suffix, func(t *testing.T) {
					base := renderTables(RunWith(id, opt, RunnerOptions{Workers: 1, Fault: plan}))
					for _, ropt := range []RunnerOptions{
						{Workers: 1, ShardWorkers: 4},
						{Workers: 8},
						{Workers: 2, ShardWorkers: 2},
					} {
						ropt.Fault = plan
						res := RunWith(id, opt, ropt)
						if got := renderTables(res); got != base {
							t.Fatalf("output diverges at workers=%d shards=%d\n--- sequential ---\n%s\n--- got ---\n%s",
								ropt.Workers, ropt.ShardWorkers, base, got)
						}
						// multisite-loss builds its worlds at zero delay: they
						// never partition, whatever the plan.
						random := plan != nil && plan.WANLoss+plan.WANCorrupt+plan.TCPLoss > 0
						if random && ropt.ShardWorkers > 1 && id != "multisite-loss" && res.Metrics.ShardWindows == 0 {
							t.Errorf("%s ran no sharded window at %d shard workers", p.suffix[1:], ropt.ShardWorkers)
						}
					}
				})
			}
		}
	}
	// The harness's TCP helper across shards. The registry's loss-tcp is
	// built at zero delay, so its worlds never partition; here the hub and
	// its metro satellite land on different shards, and the loss comes from
	// the WAN flap (segments sent into the outage are gone, the RTO brings
	// the stream back) or from keyed segment loss.
	t.Run("star3-hetero/loss-tcp", func(t *testing.T) {
		measure := func(shardWorkers int, plan *fault.Plan) float64 {
			m := &Meter{shardWorkers: shardWorkers, fault: plan}
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
		for _, plan := range []*fault.Plan{flap, {Seed: 5, TCPLoss: 0.01}} {
			base := measure(1, plan)
			if base < 10 {
				t.Fatalf("the streams did not recover from the loss on the classic path: %v MB/s", base)
			}
			for _, shardWorkers := range []int{2, 4} {
				if got := measure(shardWorkers, plan); got != base {
					t.Fatalf("goodput diverges at shards=%d: %v, sequential %v", shardWorkers, got, base)
				}
			}
		}
	})
}
