package cluster

import (
	"testing"

	"repro/internal/ib"
	"repro/internal/sim"
)

func TestDefaultTestbedShape(t *testing.T) {
	env := sim.NewEnv()
	tb := New(env, Config{})
	if len(tb.A) != 32 || len(tb.B) != 6 {
		t.Fatalf("cluster sizes = %d/%d, want 32/6", len(tb.A), len(tb.B))
	}
	for _, n := range tb.A {
		if n.Cluster != "A" {
			t.Errorf("node %s cluster = %q", n.Name, n.Cluster)
		}
	}
	if tb.WAN.Delay() != 0 {
		t.Errorf("default WAN delay = %v, want 0", tb.WAN.Delay())
	}
}

func TestCrossClusterTraffic(t *testing.T) {
	env := sim.NewEnv()
	tb := New(env, Config{NodesA: 2, NodesB: 2, Delay: sim.Micros(100)})
	qa, qb := ib.CreateRCPair(tb.A[0].HCA, tb.B[0].HCA, nil, nil, ib.QPConfig{})
	delivered := false
	var at sim.Time
	env.Go("recv", func(p *sim.Proc) {
		qb.PostRecv(ib.RecvWR{})
		qb.CQ().Poll(p)
		delivered = true
		at = p.Now()
	})
	env.Go("send", func(p *sim.Proc) {
		qa.PostSend(ib.SendWR{Op: ib.OpSend, Len: 64})
	})
	env.Run()
	if !delivered {
		t.Fatal("cross-cluster message not delivered")
	}
	// Path: HCA -> switchA -> longbowA -> (100us WAN) -> longbowB ->
	// switchB -> HCA; must exceed the WAN delay plus device latencies.
	if at < sim.Micros(100)+5*sim.Microsecond {
		t.Errorf("arrival = %v, too fast for a 100us WAN hop", at)
	}
}

func TestIntraClusterTrafficAvoidsWAN(t *testing.T) {
	env := sim.NewEnv()
	tb := New(env, Config{NodesA: 2, NodesB: 1, Delay: sim.Micros(10000)})
	qa, qb := ib.CreateRCPair(tb.A[0].HCA, tb.A[1].HCA, nil, nil, ib.QPConfig{})
	var at sim.Time
	env.Go("recv", func(p *sim.Proc) {
		qb.PostRecv(ib.RecvWR{})
		qb.CQ().Poll(p)
		at = p.Now()
	})
	env.Go("send", func(p *sim.Proc) {
		qa.PostSend(ib.SendWR{Op: ib.OpSend, Len: 64})
	})
	env.Run()
	if at > sim.Micros(50) {
		t.Errorf("intra-cluster latency = %v; traffic appears to cross the 10ms WAN", at)
	}
}

func TestPaperDelays(t *testing.T) {
	d := PaperDelays()
	want := []sim.Time{0, sim.Micros(10), sim.Micros(100), sim.Micros(1000), sim.Micros(10000)}
	if len(d) != len(want) {
		t.Fatalf("PaperDelays = %v", d)
	}
	for i := range want {
		if d[i] != want[i] {
			t.Fatalf("PaperDelays[%d] = %v, want %v", i, d[i], want[i])
		}
	}
}

func TestNodesAccessor(t *testing.T) {
	env := sim.NewEnv()
	tb := New(env, Config{NodesA: 3, NodesB: 2})
	all := tb.Nodes()
	if len(all) != 5 {
		t.Fatalf("Nodes() len = %d, want 5", len(all))
	}
	if all[0].Cluster != "A" || all[4].Cluster != "B" {
		t.Error("Nodes() ordering wrong")
	}
}
