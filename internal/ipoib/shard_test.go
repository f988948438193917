package ipoib_test

import (
	"testing"

	"repro/internal/ipoib"
	"repro/internal/sim"
	"repro/internal/tcpsim"
	"repro/internal/topo"
)

// TestConnectedModeShards runs TCP both ways between two connected-mode
// interfaces on the paper's testbed split into one shard per site. Their RC
// pair is made at Attach, so neither shard touches the other's state while
// the streams run (run it under -race), and each direction delivers exactly
// what it delivers on one shard.
func TestConnectedModeShards(t *testing.T) {
	measure := func(shardWorkers int) [2]int64 {
		env := sim.NewEnv()
		env.SetShardWorkers(shardWorkers)
		defer env.Shutdown()
		nw, err := topo.Build(env, topo.Paper(1, 1, 100*sim.Microsecond))
		if err != nil {
			t.Fatal(err)
		}
		if env.Sharded() != (shardWorkers > 1) {
			t.Fatalf("shardWorkers=%d: partitioned=%v", shardWorkers, env.Sharded())
		}
		net := ipoib.NewNetwork()
		var stacks [2]*tcpsim.Stack
		for i, site := range nw.Sites() {
			stacks[i] = tcpsim.NewStack(net.Attach(site.Nodes[0].HCA, ipoib.Connected, 0), tcpsim.Config{})
		}
		for i, srv := range stacks {
			cli := stacks[1-i]
			ln := srv.Listen(5000)
			srv.Env().Go("srv", func(p *sim.Proc) { ln.Accept(p) })
			cli.Env().Go("cli", func(p *sim.Proc) {
				c, err := cli.Dial(p, srv.Addr(), 5000)
				if err != nil {
					t.Error(err)
					return
				}
				for c.WriteSynthetic(p, 1<<20) == nil {
				}
			})
		}
		env.RunUntil(20 * sim.Millisecond)
		return [2]int64{stacks[0].Stats().RxBytes, stacks[1].Stats().RxBytes}
	}
	one := measure(1)
	if one[0] == 0 || one[1] == 0 {
		t.Fatalf("a direction delivered nothing on one shard: %v", one)
	}
	if two := measure(2); two != one {
		t.Errorf("bytes received per side: %v on two shards, %v on one", two, one)
	}
}
