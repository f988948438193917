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
}

// TestPairDelayKnob builds a pair at an emulated 200 km: the Longbow's
// 5 us/km knob gives a 1 ms one-way delay, and the pair reports the
// distance back.
func TestPairDelayKnob(t *testing.T) {
	d, err := DelayForDistance(200)
	if err != nil {
		t.Fatalf("DelayForDistance(200): %v", err)
	}
	env := sim.NewEnv()
	p := NewPairAcross(ib.NewFabric(env), "lb", "A", "B", WANRate, d, env, env)
	if p.Delay() != sim.Micros(1000) {
		t.Errorf("delay at 200 km = %v, want 1ms", p.Delay())
	}
	if p.DistanceKM() != 200 {
		t.Errorf("DistanceKM = %v, want 200", p.DistanceKM())
	}
	if p.Link().Rate() != WANRate {
		t.Errorf("rate = %v, want %v", p.Link().Rate(), WANRate)
	}
}

func TestWANDelayAppliesToTraffic(t *testing.T) {
	env := sim.NewEnv()
	f := ib.NewFabric(env)
	a, b := f.AddHCA("a"), f.AddHCA("b")
	p := NewPairAcross(f, "lb", "A", "B", WANRate, sim.Micros(500), env, env)
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
