package wan

import (
	"testing"

	"repro/internal/ib"
	"repro/internal/sim"
)

func TestDelayDistanceMapping(t *testing.T) {
	// Paper Table 1.
	cases := []struct {
		km   float64
		want sim.Time
	}{
		{10, sim.Micros(50)},
		{20, sim.Micros(100)},
		{200, sim.Micros(1000)},
		{2000, sim.Micros(10000)},
		{20000, sim.Micros(100000)},
	}
	for _, c := range cases {
		got, err := DelayForDistance(c.km)
		if err != nil {
			t.Fatalf("DelayForDistance(%v): %v", c.km, err)
		}
		if got != c.want {
			t.Errorf("DelayForDistance(%v) = %v, want %v", c.km, got, c.want)
		}
		got2, err := DistanceForDelay(c.want)
		if err != nil {
			t.Fatalf("DistanceForDelay(%v): %v", c.want, err)
		}
		if got2 != c.km {
			t.Errorf("DistanceForDelay(%v) = %v, want %v", c.want, got2, c.km)
		}
	}
}

func TestNegativeDistanceErrors(t *testing.T) {
	if _, err := DelayForDistance(-1); err == nil {
		t.Fatal("negative distance did not return an error")
	}
	// The inverse must validate too: a negative delay has no emulated
	// wire length.
	if _, err := DistanceForDelay(-sim.Micros(1)); err == nil {
		t.Fatal("DistanceForDelay(-1us) did not return an error")
	}
	env := sim.NewEnv()
	f := ib.NewFabric(env)
	p := NewPairAcross(f, "lb", "A", "B", sim.Micros(10), env, env)
	if err := p.SetDistanceKM(-5); err == nil {
		t.Fatal("SetDistanceKM(-5) did not return an error")
	}
	if p.Delay() != sim.Micros(10) {
		t.Errorf("failed SetDistanceKM changed delay to %v", p.Delay())
	}
}

// TestSetDistanceKMShardedLookaheadGuard pins the SetDistanceKM bugfix: it
// used to call link.SetDelay directly, bypassing Pair.SetDelay's
// partitioned-world guard, so a distance shrink could break the lookahead
// promise the parallel scheduler runs on. Routed through SetDelay, the
// shrink must panic; growing the emulated wire stays legal.
func TestSetDistanceKMShardedLookaheadGuard(t *testing.T) {
	env := sim.NewEnv()
	env.SetShardWorkers(2)
	views := env.Partition(2)
	f := ib.NewFabric(env)
	p := NewPairAcross(f, "lb", "A", "B", sim.Millisecond, views[0], views[1])
	if err := p.SetDistanceKM(400); err != nil { // 2ms: above the bound
		t.Fatalf("SetDistanceKM(400): %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("SetDistanceKM below the registered lookahead bound did not panic on a partitioned world")
		}
	}()
	p.SetDistanceKM(10) // 50us: below the registered 1ms bound
}

func TestPairDelayKnob(t *testing.T) {
	env := sim.NewEnv()
	f := ib.NewFabric(env)
	p := NewPairAcross(f, "lb", "A", "B", 0, env, env)
	if p.Delay() != 0 {
		t.Fatalf("initial delay = %v", p.Delay())
	}
	if err := p.SetDistanceKM(200); err != nil {
		t.Fatalf("SetDistanceKM(200): %v", err)
	}
	if p.Delay() != sim.Micros(1000) {
		t.Errorf("delay after SetDistanceKM(200) = %v, want 1ms", p.Delay())
	}
	if p.DistanceKM() != 200 {
		t.Errorf("DistanceKM = %v, want 200", p.DistanceKM())
	}
	p.SetDelay(sim.Micros(42))
	if p.Delay() != sim.Micros(42) {
		t.Errorf("delay = %v, want 42us", p.Delay())
	}
}

func TestWANDelayAppliesToTraffic(t *testing.T) {
	env := sim.NewEnv()
	f := ib.NewFabric(env)
	a, b := f.AddHCA("a"), f.AddHCA("b")
	p := NewPairAcross(f, "lb", "A", "B", sim.Micros(500), env, env)
	f.Connect(a, p.A.Device(), ib.DDR, ib.DefaultCableDelay)
	f.Connect(p.B.Device(), b, ib.DDR, ib.DefaultCableDelay)
	f.Finalize()
	qa, qb := ib.CreateRCPair(a, b, nil, nil, ib.QPConfig{})
	var arrival sim.Time
	env.Go("recv", func(pr *sim.Proc) {
		qb.PostRecv(ib.RecvWR{})
		qb.CQ().Poll(pr)
		arrival = pr.Now()
	})
	env.Go("send", func(pr *sim.Proc) {
		qa.PostSend(ib.SendWR{Op: ib.OpSend, Len: 8})
	})
	env.Run()
	if arrival < sim.Micros(500) || arrival > sim.Micros(520) {
		t.Errorf("one-way arrival = %v, want ~500us + overheads", arrival)
	}
}
