package mpi

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

func TestEagerThresholdBoundary(t *testing.T) {
	// A message exactly at the threshold goes eagerly; one byte more uses
	// rendezvous. The library counts its sends by protocol.
	env := sim.NewEnv()
	reg := telemetry.NewRegistry()
	telemetry.Attach(env, &telemetry.Telemetry{Metrics: reg})
	tb := cluster.New(env, cluster.Config{NodesA: 1, NodesB: 1, Delay: sim.Micros(10)})
	w := NewWorld(env, []*cluster.Node{tb.A[0], tb.B[0]}, Config{})
	defer w.Shutdown()
	thr := w.Config().EagerThreshold
	eager, rndv := reg.Counter("mpi.eager.msgs"), reg.Counter("mpi.rndv.msgs")
	var rndvAtThreshold int64
	w.Run(func(r *Rank, p *sim.Proc) {
		switch r.ID() {
		case 0:
			r.Send(p, 1, 1, nil, thr)
			rndvAtThreshold = rndv.Value()
			r.Send(p, 1, 2, nil, thr+1)
		case 1:
			r.Recv(p, 0, 1, nil, thr)
			r.Recv(p, 0, 2, nil, thr+1)
		}
	})
	if rndvAtThreshold != 0 {
		t.Error("message at threshold used rendezvous")
	}
	if eager.Value() != 1 || rndv.Value() != 1 {
		t.Errorf("%d eager and %d rendezvous sends, want 1 and 1: message above threshold did not use rendezvous",
			eager.Value(), rndv.Value())
	}
}

// A receive from a rank that does not exist can never match: it must say so
// up front, not park the rank until Run reports a generic deadlock.
func TestIrecvInvalidRankPanics(t *testing.T) {
	for _, src := range []int{-2, 2} {
		w := crossWorld(0, Config{})
		func() {
			defer w.Shutdown()
			defer func() {
				want := fmt.Sprintf("mpi: Irecv from invalid rank %d", src)
				if got := recover(); got != want {
					t.Errorf("Irecv(%d) panicked with %v, want %q", src, got, want)
				}
			}()
			w.Rank(0).Irecv(src, 0, nil, 8)
		}()
	}
}

// TestRendezvousTruncationPanics: a rendezvous message larger than its
// receive is refused on every path — over the wire and over shared memory,
// into a buffer and into a synthetic capacity — not delivered as a short or
// silently over-long receive.
func TestRendezvousTruncationPanics(t *testing.T) {
	const want = "mpi: rendezvous truncation at rank 1: recv 10 < msg 100000"
	for _, arm := range []struct {
		name        string
		shm, backed bool
	}{
		{"wire backed", false, true},
		{"wire synthetic", false, false},
		{"shared memory backed", true, true},
		{"shared memory synthetic", true, false},
	} {
		t.Run(arm.name, func(t *testing.T) {
			env := sim.NewEnv()
			tb := cluster.New(env, cluster.Config{NodesA: 1, NodesB: 1})
			placement := []*cluster.Node{tb.A[0], tb.B[0]}
			if arm.shm {
				placement[1] = tb.A[0]
			}
			w := NewWorld(env, placement, Config{})
			defer w.Shutdown()
			defer func() {
				if got := fmt.Sprint(recover()); !strings.Contains(got, want) {
					t.Errorf("panicked with %q, want %q", got, want)
				}
			}()
			w.Run(func(r *Rank, p *sim.Proc) {
				switch r.ID() {
				case 0:
					r.Send(p, 1, 1, nil, 100000)
				case 1:
					var buf []byte
					if arm.backed {
						buf = make([]byte, 10) // far too small for a 100 KB message
					}
					n, _ := r.Recv(p, 0, 1, buf, 10)
					t.Errorf("the receive returned %d bytes", n)
				}
			})
			t.Error("no panic")
		})
	}
}

func TestEagerTruncationKeepsPrefix(t *testing.T) {
	// Eager truncation (buffer smaller than message) delivers the prefix,
	// as MPI_ERR_TRUNCATE-tolerant implementations do for eager data.
	w := crossWorld(0, Config{})
	defer w.Shutdown()
	var n int
	buf := make([]byte, 3)
	w.Run(func(r *Rank, p *sim.Proc) {
		switch r.ID() {
		case 0:
			r.Send(p, 1, 1, []byte{1, 2, 3, 4, 5}, 0)
		case 1:
			n, _ = r.Recv(p, 0, 1, buf, 0)
		}
	})
	if n != 3 || buf[0] != 1 || buf[2] != 3 {
		t.Errorf("truncated recv n=%d buf=%v", n, buf)
	}
}

// TestEagerSendBufferReusable: an eager Send returns with the payload in the
// header's bounce buffer, so a sender that overwrites its buffer at once
// does not change what a receive posted a millisecond later gets — over the
// wire and over shared memory.
func TestEagerSendBufferReusable(t *testing.T) {
	for _, tc := range []struct {
		name string
		shm  bool
	}{{"wire", false}, {"shm", true}} {
		t.Run(tc.name, func(t *testing.T) {
			env := sim.NewEnv()
			tb := cluster.New(env, cluster.Config{NodesA: 1, NodesB: 1, Delay: sim.Micros(10)})
			placement := []*cluster.Node{tb.A[0], tb.B[0]}
			if tc.shm {
				placement[1] = tb.A[0]
			}
			w := NewWorld(env, placement, Config{})
			defer w.Shutdown()
			got := make([]byte, 5)
			w.Run(func(r *Rank, p *sim.Proc) {
				switch r.ID() {
				case 0:
					msg := []byte("hello")
					r.Send(p, 1, 1, msg, 0)
					copy(msg, "XXXXX")
				case 1:
					p.Sleep(sim.Millisecond)
					r.Recv(p, 0, 1, got, 0)
				}
			})
			if string(got) != "hello" {
				t.Errorf("received %q, want %q: the send aliased the sender's buffer", got, "hello")
			}
		})
	}
}

func TestSendrecvExchangeNoDeadlock(t *testing.T) {
	// Symmetric large-message exchange must not deadlock (nonblocking
	// receive under the hood).
	w, _ := spreadWorld(2, 2, sim.Micros(100), Config{})
	defer w.Shutdown()
	w.Run(func(r *Rank, p *sim.Proc) {
		partner := r.ID() ^ 1
		r.Sendrecv(p, partner, 5, nil, 500000, partner, 5, nil, 500000)
	})
}

func TestBlockPlacement(t *testing.T) {
	env := sim.NewEnv()
	tb := cluster.New(env, cluster.Config{NodesA: 2, NodesB: 2})
	pl := BlockPlacement(tb.Nodes(), 3)
	if len(pl) != 12 {
		t.Fatalf("placement len = %d", len(pl))
	}
	if pl[0] != pl[2] || pl[0] == pl[3] {
		t.Error("ppn grouping wrong")
	}
}

func TestProfileCensus(t *testing.T) {
	w := crossWorld(0, Config{})
	defer w.Shutdown()
	w.Run(func(r *Rank, p *sim.Proc) {
		switch r.ID() {
		case 0:
			r.Send(p, 1, 1, nil, 100)     // tiny
			r.Send(p, 1, 1, nil, 64<<10)  // large
			r.Send(p, 1, 1, nil, 128<<10) // large
		case 1:
			r.Recv(p, 0, 1, nil, 100)
			r.Recv(p, 0, 1, nil, 64<<10)
			r.Recv(p, 0, 1, nil, 128<<10)
		}
	})
	mp := w.Profile()
	if mp.Msgs != 3 || mp.TinyMsgs != 1 || mp.MaxMessage != 128<<10 {
		t.Errorf("profile = %+v", mp)
	}
	wantLarge := float64(192<<10) / float64(192<<10+100)
	if lf := mp.LargeVolumeFraction(); lf < wantLarge-0.01 || lf > wantLarge+0.01 {
		t.Errorf("large fraction = %v", lf)
	}
	if mp.TinyCountFraction() != 1.0/3 {
		t.Errorf("tiny fraction = %v", mp.TinyCountFraction())
	}
}

func TestMessageRateScalesWithPairs(t *testing.T) {
	// Paper Fig. 10: at high delay the aggregate message rate grows with
	// the number of pairs.
	rate := func(pairs int) float64 {
		env := sim.NewEnv()
		tb := cluster.New(env, cluster.Config{NodesA: pairs, NodesB: pairs, Delay: sim.Micros(1000)})
		var nodes []*cluster.Node
		nodes = append(nodes, tb.A...)
		nodes = append(nodes, tb.B...)
		w := NewWorld(env, nodes, Config{})
		defer w.Shutdown()
		return MessageRate(w, pairs, 1024, 2)
	}
	r4, r16 := rate(4), rate(16)
	if r16 < 3*r4 {
		t.Errorf("message rate scaling 4->16 pairs: %.3f -> %.3f, want ~4x", r4, r16)
	}
}

func TestIsendToInvalidRankPanics(t *testing.T) {
	w := crossWorld(0, Config{})
	defer func() {
		w.Shutdown()
		if recover() == nil {
			t.Fatal("Isend to invalid rank did not panic")
		}
	}()
	w.Run(func(r *Rank, p *sim.Proc) {
		if r.ID() == 0 {
			r.Isend(p, 99, 1, nil, 8)
		}
	})
}

func TestBarrierRepeats(t *testing.T) {
	w, _ := spreadWorld(2, 2, sim.Micros(10), Config{})
	defer w.Shutdown()
	counts := make([]int, 4)
	w.Run(func(r *Rank, p *sim.Proc) {
		for i := 0; i < 5; i++ {
			r.Barrier(p)
			counts[r.ID()]++
		}
	})
	for i, c := range counts {
		if c != 5 {
			t.Errorf("rank %d did %d barriers", i, c)
		}
	}
}

func TestHierBcastRootInB(t *testing.T) {
	// Root in cluster B: the leader logic must work in both directions.
	w, _ := spreadWorld(3, 3, sim.Micros(100), Config{})
	defer w.Shutdown()
	root := 4 // cluster B under block order (3 A-nodes first)
	payload := []byte("rooted in cluster B")
	ok := true
	w.Run(func(r *Rank, p *sim.Proc) {
		if r.ID() == root {
			r.HierBcast(p, root, payload, 0)
		} else {
			buf := make([]byte, len(payload))
			out := r.HierBcast(p, root, buf, 0)
			if string(out) != string(payload) {
				ok = false
			}
		}
	})
	if !ok {
		t.Error("HierBcast with root in cluster B corrupted payload")
	}
}

func TestLatencyHalfRoundTripAtZeroDelay(t *testing.T) {
	w := crossWorld(0, Config{})
	defer w.Shutdown()
	lat := Latency(w, 8, 50)
	// Verbs RC over the Longbow pair is ~6.9us; MPI adds header+matching.
	if lat < 6*sim.Microsecond || lat > 12*sim.Microsecond {
		t.Errorf("MPI 0-delay latency = %v", lat)
	}
}
