package core

import (
	"path"
	"testing"

	"repro/internal/fault"
	"repro/internal/ipoib"
	"repro/internal/sim"
	"repro/internal/tcpsim"
	"repro/internal/topo"
)

// TestShardedMatchesSequential runs the determinism matrix's preset rows:
// each <preset>/<family>[/<plan>] checks the row's sequential pass, then
// compares every mode but the observed one with it. Then the harness's TCP
// helper across shards. The registry's loss-tcp is
// built at zero delay, so its worlds never partition; here the hub and its
// metro satellite land on different shards, and the loss comes from a WAN
// flap (segments sent into the outage are gone, the RTO brings the stream
// back) or from keyed segment loss. The goodput must not depend on the
// shard count.
func TestShardedMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("sharded determinism matrix skipped in -short mode")
	}
	for _, in := range matrixRows() {
		if in.preset == "" {
			continue
		}
		for _, id := range in.ids {
			t.Run(path.Join(in.preset, id, in.plan), func(t *testing.T) {
				in.checkBaseline(t, id)
				for _, md := range matrixModes {
					if md.ropt.SampleEvery == 0 {
						t.Run(md.name, func(t *testing.T) { in.check(t, id, md.ropt, nil) })
					}
				}
			})
		}
	}
	flap := &fault.Plan{Seed: 7, WANFlaps: []fault.FlapStep{
		{At: 2 * sim.Millisecond, Down: true},
		{At: 6 * sim.Millisecond, Down: false},
	}}
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
