package core

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/sim"
)

func TestTuneForDelay(t *testing.T) {
	cases := []struct {
		delayUS float64
		wantMin int
		wantMax int
	}{
		{0, 8 << 10, 8 << 10},
		{10, 16 << 10, 32 << 10},
		{100, 128 << 10, 256 << 10},
		{1000, 1 << 20, 1 << 20},  // capped
		{10000, 1 << 20, 1 << 20}, // capped
	}
	for _, c := range cases {
		got := TuneForDelay(sim.Micros(c.delayUS)).EagerThreshold
		if got < c.wantMin || got > c.wantMax {
			t.Errorf("TuneForDelay(%vus) threshold = %d, want [%d, %d]",
				c.delayUS, got, c.wantMin, c.wantMax)
		}
	}
}

func TestTunedConfigBeatsDefaultAtHighDelay(t *testing.T) {
	// The headline Fig. 9 claim as an end-to-end check: at 1 ms delay,
	// the WAN-tuned config improves medium-message bandwidth.
	build := func(cfg mpi.Config) *mpi.World {
		env := sim.NewEnv()
		tb := cluster.New(env, cluster.Config{NodesA: 1, NodesB: 1, Delay: sim.Micros(1000)})
		return mpi.NewWorld(env, []*cluster.Node{tb.A[0], tb.B[0]}, cfg)
	}
	w1 := build(mpi.Config{})
	orig := mpi.Bandwidth(w1, 32<<10, 2)
	w1.Shutdown()
	w2 := build(TuneForDelay(sim.Micros(1000)))
	tuned := mpi.Bandwidth(w2, 32<<10, 2)
	w2.Shutdown()
	if tuned <= orig {
		t.Errorf("tuned bw %.1f not above original %.1f at 1ms delay", tuned, orig)
	}
}

func TestAutoTuneMatchesConfiguredDelay(t *testing.T) {
	for _, us := range []float64{0, 100, 1000} {
		env := sim.NewEnv()
		tb := cluster.New(env, cluster.Config{NodesA: 1, NodesB: 1, Delay: sim.Micros(us)})
		got := AutoTune(env, tb.A[0], tb.B[0]).EagerThreshold
		want := TuneForDelay(sim.Micros(us)).EagerThreshold
		env.Shutdown()
		if got != want {
			t.Errorf("AutoTune at %vus threshold = %d, want %d", us, got, want)
		}
	}
}

func TestCoalescerRoundTrip(t *testing.T) {
	env := sim.NewEnv()
	tb := cluster.New(env, cluster.Config{NodesA: 1, NodesB: 1, Delay: sim.Micros(100)})
	w := mpi.NewWorld(env, []*cluster.Node{tb.A[0], tb.B[0]}, mpi.Config{})
	defer w.Shutdown()
	msgs := [][]byte{
		[]byte("alpha"), []byte("beta"), {}, []byte("gamma-gamma-gamma"),
		bytes.Repeat([]byte{7}, 3000),
	}
	var got [][]byte
	w.Run(func(r *mpi.Rank, p *sim.Proc) {
		switch r.ID() {
		case 0:
			co := NewCoalescer(r, 1, 42, 0)
			for _, m := range msgs {
				co.Add(p, m)
			}
			co.Wait(p)
		case 1:
			rc := NewCoalescedReceiver(r, 0, 42, 0)
			for range msgs {
				got = append(got, rc.Next(p))
			}
		}
	})
	if len(got) != len(msgs) {
		t.Fatalf("received %d messages, want %d", len(got), len(msgs))
	}
	for i := range msgs {
		if !bytes.Equal(got[i], msgs[i]) {
			t.Errorf("message %d corrupted", i)
		}
	}
}

func TestCoalescerFlushesAtThreshold(t *testing.T) {
	env := sim.NewEnv()
	tb := cluster.New(env, cluster.Config{NodesA: 1, NodesB: 1})
	w := mpi.NewWorld(env, []*cluster.Node{tb.A[0], tb.B[0]}, mpi.Config{})
	defer w.Shutdown()
	w.Run(func(r *mpi.Rank, p *sim.Proc) {
		switch r.ID() {
		case 0:
			co := NewCoalescer(r, 1, 9, 1024)
			for i := 0; i < 100; i++ {
				co.Add(p, make([]byte, 100)) // 104 B per record
			}
			co.Wait(p)
			// ceil(100*104/1024) = 11 carriers expected (within rounding).
			if co.CarriersSent() < 9 || co.CarriersSent() > 12 {
				t.Errorf("carriers = %d, want ~10", co.CarriersSent())
			}
		case 1:
			rc := NewCoalescedReceiver(r, 0, 9, 0)
			for i := 0; i < 100; i++ {
				if len(rc.Next(p)) != 100 {
					t.Error("wrong record size")
				}
			}
		}
	})
}

func TestCoalescingImprovesSmallMessageGoodput(t *testing.T) {
	// Ablation for the paper's "message coalescing" optimization: at 1 ms
	// delay, the same small-record stream moves much faster coalesced.
	const records = 2000
	const recSize = 128
	elapsed := func(coalesced bool) sim.Time {
		env := sim.NewEnv()
		tb := cluster.New(env, cluster.Config{NodesA: 1, NodesB: 1, Delay: sim.Micros(1000)})
		w := mpi.NewWorld(env, []*cluster.Node{tb.A[0], tb.B[0]}, mpi.Config{})
		defer w.Shutdown()
		return w.Run(func(r *mpi.Rank, p *sim.Proc) {
			switch r.ID() {
			case 0:
				if coalesced {
					co := NewCoalescer(r, 1, 5, 0)
					for i := 0; i < records; i++ {
						co.Add(p, make([]byte, recSize))
					}
					co.Wait(p)
				} else {
					var reqs []*mpi.Request
					for i := 0; i < records; i++ {
						reqs = append(reqs, r.Isend(p, 1, 5, make([]byte, recSize), 0))
					}
					mpi.WaitAll(p, reqs)
				}
			case 1:
				if coalesced {
					rc := NewCoalescedReceiver(r, 0, 5, 0)
					for i := 0; i < records; i++ {
						rc.Next(p)
					}
				} else {
					for i := 0; i < records; i++ {
						r.Recv(p, 0, 5, nil, recSize)
					}
				}
			}
		})
	}
	plain := elapsed(false)
	coal := elapsed(true)
	if coal*5 > plain {
		t.Errorf("coalescing gain too small: plain=%v coalesced=%v", plain, coal)
	}
}

func TestDecoalesceErrors(t *testing.T) {
	if _, err := Decoalesce([]byte{1, 2}); err == nil {
		t.Error("truncated header accepted")
	}
	if _, err := Decoalesce([]byte{10, 0, 0, 0, 1, 2}); err == nil {
		t.Error("truncated payload accepted")
	}
	msgs, err := Decoalesce(nil)
	if err != nil || len(msgs) != 0 {
		t.Errorf("empty carrier: %v, %v", msgs, err)
	}
}

func TestTable1AndFig3Generate(t *testing.T) {
	tabs := Run("table1", Options{})
	if len(tabs) != 1 || len(tabs[0].Series) != 1 {
		t.Fatalf("table1 shape: %+v", tabs)
	}
	if y, ok := tabs[0].Series[0].At(2000); !ok || y != 10000 {
		t.Errorf("table1: 2000km -> %v us, want 10000", y)
	}
	f3 := Run("fig3", Options{})
	var buf bytes.Buffer
	f3[0].Render(&buf)
	if !strings.Contains(buf.String(), "RDMAWrite/RC") {
		t.Errorf("fig3 render missing series: %s", buf.String())
	}
}

func TestUnknownExperimentPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown experiment did not panic")
		}
	}()
	Run("fig99", Options{})
}
