package mpi

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/sim"
)

// crossWorld builds a world with one rank on each side of the WAN.
func crossWorld(delay sim.Time, cfg Config) *World {
	env := sim.NewEnv()
	tb := cluster.New(env, cluster.Config{NodesA: 1, NodesB: 1, Delay: delay})
	return NewWorld(env, []*cluster.Node{tb.A[0], tb.B[0]}, cfg)
}

// spreadWorld builds a world with na ranks in cluster A and nb in cluster B
// (one rank per node).
func spreadWorld(na, nb int, delay sim.Time, cfg Config) (*World, *cluster.Testbed) {
	env := sim.NewEnv()
	tb := cluster.New(env, cluster.Config{NodesA: na, NodesB: nb, Delay: delay})
	var nodes []*cluster.Node
	for i := 0; i < na; i++ {
		nodes = append(nodes, tb.A[i])
	}
	for i := 0; i < nb; i++ {
		nodes = append(nodes, tb.B[i])
	}
	return NewWorld(env, nodes, cfg), tb
}

func TestEagerSendRecvData(t *testing.T) {
	w := crossWorld(sim.Micros(10), Config{})
	defer w.Shutdown()
	msg := []byte("eager path message")
	var got []byte
	w.Run(func(r *Rank, p *sim.Proc) {
		switch r.ID() {
		case 0:
			r.Send(p, 1, 7, msg, 0)
		case 1:
			buf := make([]byte, 64)
			n, src := r.Recv(p, 0, 7, buf, 0)
			if src != 0 {
				t.Errorf("src = %d", src)
			}
			got = buf[:n]
		}
	})
	if !bytes.Equal(got, msg) {
		t.Errorf("got %q, want %q", got, msg)
	}
}

func TestRendezvousSendRecvData(t *testing.T) {
	w := crossWorld(sim.Micros(10), Config{})
	defer w.Shutdown()
	msg := make([]byte, 100000) // well above the 8K threshold
	rng := rand.New(rand.NewSource(1))
	rng.Read(msg)
	buf := make([]byte, len(msg))
	w.Run(func(r *Rank, p *sim.Proc) {
		switch r.ID() {
		case 0:
			r.Send(p, 1, 7, msg, 0)
		case 1:
			n, _ := r.Recv(p, 0, 7, buf, 0)
			if n != len(msg) {
				t.Errorf("recv %d bytes, want %d", n, len(msg))
			}
		}
	})
	if !bytes.Equal(buf, msg) {
		t.Error("rendezvous payload corrupted")
	}
}

func TestTagMatching(t *testing.T) {
	w := crossWorld(0, Config{})
	defer w.Shutdown()
	var order []int
	w.Run(func(r *Rank, p *sim.Proc) {
		switch r.ID() {
		case 0:
			r.Send(p, 1, 5, []byte{5}, 0)
			r.Send(p, 1, 3, []byte{3}, 0)
		case 1:
			b1 := make([]byte, 1)
			r.Recv(p, 0, 3, b1, 0) // matches the tag-3 message even though tag-5 arrived first
			order = append(order, int(b1[0]))
			b2 := make([]byte, 1)
			r.Recv(p, 0, 5, b2, 0)
			order = append(order, int(b2[0]))
		}
	})
	if len(order) != 2 || order[0] != 3 || order[1] != 5 {
		t.Errorf("order = %v, want [3 5]", order)
	}
}

func TestAnySourceAnyTag(t *testing.T) {
	w, _ := spreadWorld(2, 1, 0, Config{})
	defer w.Shutdown()
	srcs := map[int]bool{}
	w.Run(func(r *Rank, p *sim.Proc) {
		switch r.ID() {
		case 0, 1:
			r.Send(p, 2, 10+r.ID(), nil, 8)
		case 2:
			for i := 0; i < 2; i++ {
				_, src := r.Recv(p, AnySource, AnyTag, nil, 8)
				srcs[src] = true
			}
		}
	})
	if !srcs[0] || !srcs[1] {
		t.Errorf("sources seen = %v", srcs)
	}
}

func TestSameSourceOrdering(t *testing.T) {
	w := crossWorld(sim.Micros(100), Config{})
	defer w.Shutdown()
	const n = 30
	var got []int
	w.Run(func(r *Rank, p *sim.Proc) {
		switch r.ID() {
		case 0:
			reqs := make([]*Request, n)
			for i := 0; i < n; i++ {
				// Mix of eager and rendezvous sizes with the same tag.
				sz := 16
				if i%3 == 0 {
					sz = 50000
				}
				b := make([]byte, sz)
				b[0] = byte(i)
				reqs[i] = r.Isend(p, 1, 9, b, 0)
			}
			WaitAll(p, reqs)
		case 1:
			for i := 0; i < n; i++ {
				buf := make([]byte, 50000)
				r.Recv(p, 0, 9, buf, 0)
				got = append(got, int(buf[0]))
			}
		}
	})
	for i, v := range got {
		if v != i {
			t.Fatalf("same-source messages reordered: %v", got)
		}
	}
}

func TestShmPath(t *testing.T) {
	// Two ranks on the same node: traffic must not touch the fabric, and
	// latency must be sub-microsecond-ish.
	env := sim.NewEnv()
	tb := cluster.New(env, cluster.Config{NodesA: 1, NodesB: 1})
	w := NewWorld(env, []*cluster.Node{tb.A[0], tb.A[0]}, Config{})
	defer w.Shutdown()
	msg := make([]byte, 20000)
	msg[19999] = 42
	buf := make([]byte, 20000)
	finish := w.Run(func(r *Rank, p *sim.Proc) {
		switch r.ID() {
		case 0:
			r.Send(p, 1, 1, msg, 0)
		case 1:
			r.Recv(p, 0, 1, buf, 0)
		}
	})
	if buf[19999] != 42 {
		t.Error("shm payload corrupted")
	}
	if finish > 50*sim.Microsecond {
		t.Errorf("shm transfer took %v, too slow", finish)
	}
	if tx := tb.WAN.Link().Rate(); tx == 0 {
		t.Fatal("sanity")
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	w, _ := spreadWorld(3, 3, sim.Micros(100), Config{})
	defer w.Shutdown()
	var minExit, maxEnter sim.Time
	minExit = 1 << 60
	w.Run(func(r *Rank, p *sim.Proc) {
		// Stagger entries.
		p.Sleep(sim.Time(r.ID()) * 50 * sim.Microsecond)
		enter := p.Now()
		if enter > maxEnter {
			maxEnter = enter
		}
		r.Barrier(p)
		if p.Now() < minExit {
			minExit = p.Now()
		}
	})
	if minExit < maxEnter {
		t.Errorf("a rank left the barrier (%v) before the last entered (%v)", minExit, maxEnter)
	}
}

func TestBcastDeliversData(t *testing.T) {
	for _, n := range []int{2, 3, 5, 8} {
		w, _ := spreadWorld((n+1)/2, n/2, sim.Micros(10), Config{})
		payload := []byte("broadcast payload content!")
		results := make([][]byte, n)
		w.Run(func(r *Rank, p *sim.Proc) {
			if r.ID() == 0 {
				r.Bcast(p, 0, payload, 0)
				results[0] = payload
			} else {
				buf := make([]byte, len(payload))
				out := r.Bcast(p, 0, buf, 0)
				results[r.ID()] = out
			}
		})
		for i, res := range results {
			if !bytes.Equal(res, payload) {
				t.Errorf("n=%d rank %d got %q", n, i, res)
			}
		}
		w.Shutdown()
	}
}

func TestLargeBcastScatterRingDeliversData(t *testing.T) {
	// Above BcastLargeMin the flat Bcast switches to scatter + allgather;
	// verify payload integrity for awkward (non-power-of-2) world sizes,
	// which take the ring, and for power-of-two ones, which double.
	for _, n := range []int{3, 4, 5, 8} {
		for _, root := range []int{0, n - 1} {
			w, _ := spreadWorld((n+1)/2, n/2, sim.Micros(10), Config{})
			payload := make([]byte, 200000)
			rand.New(rand.NewSource(int64(n*31 + root))).Read(payload)
			ok := true
			w.Run(func(r *Rank, p *sim.Proc) {
				if r.ID() == root {
					r.Bcast(p, root, payload, 0)
				} else {
					buf := make([]byte, len(payload))
					out := r.Bcast(p, root, buf, 0)
					if !bytes.Equal(out, payload) {
						ok = false
					}
				}
			})
			if !ok {
				t.Errorf("n=%d root=%d: scatter-ring bcast corrupted payload", n, root)
			}
			w.Shutdown()
		}
	}
}

func TestHierBcastDeliversData(t *testing.T) {
	for _, root := range []int{0, 2} {
		w, _ := spreadWorld(3, 4, sim.Micros(100), Config{})
		payload := make([]byte, 5000)
		rand.New(rand.NewSource(9)).Read(payload)
		ok := true
		w.Run(func(r *Rank, p *sim.Proc) {
			if r.ID() == root {
				r.HierBcast(p, root, payload, 0)
			} else {
				buf := make([]byte, len(payload))
				out := r.HierBcast(p, root, buf, 0)
				if !bytes.Equal(out, payload) {
					ok = false
				}
			}
		})
		if !ok {
			t.Errorf("root=%d: hierarchical bcast corrupted payload", root)
		}
		w.Shutdown()
	}
}

func TestHierBcastCrossesWANOnce(t *testing.T) {
	// Compare WAN bytes for flat vs hierarchical broadcast: the
	// hierarchical version must move the payload across the WAN exactly
	// once (paper §3.4 "minimizing the traffic on the WAN link").
	wanBytes := func(hier bool) int64 {
		w, tb := spreadWorld(4, 4, sim.Micros(100), Config{})
		defer w.Shutdown()
		before := tb.WAN.Link().Rate() // placeholder to keep tb used
		_ = before
		start := wanTx(tb)
		w.Run(func(r *Rank, p *sim.Proc) {
			if hier {
				r.HierBcast(p, 0, nil, 100000)
			} else {
				r.Bcast(p, 0, nil, 100000)
			}
		})
		return wanTx(tb) - start
	}
	flat := wanBytes(false)
	hier := wanBytes(true)
	if hier >= flat {
		t.Errorf("hierarchical WAN bytes (%d) not below flat (%d)", hier, flat)
	}
	// Flat binomial from rank 0 sends to ranks 4,5,6,7 across the WAN
	// under block placement? Actually ranks 4..7 receive from within the
	// tree; at least one crossing happens per remote subtree root. The
	// hierarchical one crosses once: ~100KB plus control traffic.
	if hier > 130000 {
		t.Errorf("hierarchical WAN bytes = %d, want ~1 payload crossing (~100KB)", hier)
	}
}

func wanTx(tb *cluster.Testbed) int64 {
	// Sum of bytes sent in both directions over the WAN link.
	return tb.WAN.Link().Counters().XmitData
}

// TestReduceAndAllreduce: Reduce's result is the rank's buffer, valid until
// its next collective, so the root copies it out before an Allreduce of a
// different vector, whose result must not carry Reduce's.
func TestReduceAndAllreduce(t *testing.T) {
	for _, n := range []int{2, 3, 4, 7} {
		w, _ := spreadWorld((n+1)/2, n/2, sim.Micros(10), Config{})
		vecLen := 5
		want, wantAll := make([]float64, vecLen), make([]float64, vecLen)
		for i := 0; i < n; i++ {
			for j := 0; j < vecLen; j++ {
				want[j] += float64(i*10 + j)
				wantAll[j] += float64(i*100 - j)
			}
		}
		// Reduce onto the first rank and onto the last: the tree rotates
		// by the root.
		rootGot := map[int][]float64{}
		allOK := true
		w.Run(func(r *Rank, p *sim.Proc) {
			vals := make([]float64, vecLen)
			for _, root := range []int{0, n - 1} {
				for j := range vals {
					vals[j] = float64(r.ID()*10 + j)
				}
				res := r.Reduce(p, root, vals)
				if r.ID() == root {
					rootGot[root] = append([]float64(nil), res...)
				} else if res != nil {
					allOK = false
				}
			}
			for j := range vals {
				vals[j] = float64(r.ID()*100 - j)
			}
			all := r.Allreduce(p, vals)
			for j := range all {
				if math.Abs(all[j]-wantAll[j]) > 1e-9 {
					allOK = false
				}
			}
		})
		for _, root := range []int{0, n - 1} {
			got := rootGot[root]
			if len(got) != vecLen {
				t.Errorf("n=%d root=%d: Reduce returned %v at the root", n, root, got)
				continue
			}
			for j := range want {
				if math.Abs(got[j]-want[j]) > 1e-9 {
					t.Errorf("n=%d root=%d Reduce[%d] = %v, want %v", n, root, j, got[j], want[j])
				}
			}
		}
		if !allOK {
			t.Errorf("n=%d Allreduce mismatch, or a Reduce result off the root", n)
		}
		w.Shutdown()
	}
}

func TestAlltoallAndAllgatherComplete(t *testing.T) {
	w, _ := spreadWorld(2, 2, sim.Micros(10), Config{})
	defer w.Shutdown()
	done := 0
	w.Run(func(r *Rank, p *sim.Proc) {
		r.AlltoallSynthetic(p, 4096)
		done++
	})
	if done != 4 {
		t.Errorf("done = %d", done)
	}
}

func TestDeadlockPanics(t *testing.T) {
	w := crossWorld(0, Config{})
	defer func() {
		w.Shutdown()
		if recover() == nil {
			t.Fatal("deadlocked world did not panic")
		}
	}()
	w.Run(func(r *Rank, p *sim.Proc) {
		if r.ID() == 0 {
			r.Recv(p, 1, 1, nil, 8) // no one ever sends
		}
	})
}

func TestLatencyReasonable(t *testing.T) {
	w := crossWorld(sim.Micros(100), Config{})
	defer w.Shutdown()
	lat := Latency(w, 8, 20)
	// One-way: ~100us WAN + ~7us devices + software.
	if lat < sim.Micros(100) || lat > sim.Micros(115) {
		t.Errorf("MPI small-message latency at 100us delay = %v", lat)
	}
}

func TestBandwidthPeakCalibration(t *testing.T) {
	// Paper Fig. 8(a): MPI peak ~969 MB/s for large messages.
	w := crossWorld(0, Config{})
	defer w.Shutdown()
	bw := Bandwidth(w, 1<<20, 4)
	if bw < 930 || bw > 1000 {
		t.Errorf("MPI peak bw = %.1f MB/s, want ~969", bw)
	}
}

func TestRendezvousDipAndThresholdTuning(t *testing.T) {
	// Paper Fig. 9: at 1 ms WAN delay, raising the rendezvous threshold
	// from 8K to 64K significantly improves medium-message bandwidth.
	orig := func() float64 {
		w := crossWorld(sim.Micros(1000), Config{})
		defer w.Shutdown()
		return Bandwidth(w, 16<<10, 4)
	}()
	tuned := func() float64 {
		w := crossWorld(sim.Micros(1000), Config{EagerThreshold: 64 << 10})
		defer w.Shutdown()
		return Bandwidth(w, 16<<10, 4)
	}()
	if tuned < orig*1.3 {
		t.Errorf("threshold tuning gain too small at 1ms: orig=%.1f tuned=%.1f MB/s", orig, tuned)
	}
}

func TestHierBcastFasterAtHighDelay(t *testing.T) {
	flat := func() sim.Time {
		w, _ := spreadWorld(4, 4, sim.Micros(1000), Config{})
		defer w.Shutdown()
		return BcastLatency(w, 128<<10, 3, false)
	}()
	hier := func() sim.Time {
		w, _ := spreadWorld(4, 4, sim.Micros(1000), Config{})
		defer w.Shutdown()
		return BcastLatency(w, 128<<10, 3, true)
	}()
	if hier >= flat {
		t.Errorf("hierarchical bcast (%v) not faster than flat (%v) at 1ms", hier, flat)
	}
}

// Property: random pairwise traffic between 4 ranks is delivered intact.
func TestPropRandomTraffic(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w, _ := spreadWorld(2, 2, sim.Micros(10), Config{})
		defer w.Shutdown()
		n := w.Size()
		// Predetermined schedule: each rank sends k messages to each peer.
		k := 1 + rng.Intn(3)
		payload := func(src, dst, i int) []byte {
			b := make([]byte, 1+((src*7+dst*3+i*11)%20000))
			for j := range b {
				b[j] = byte(src ^ dst ^ i ^ j)
			}
			return b
		}
		ok := true
		w.Run(func(r *Rank, p *sim.Proc) {
			var reqs []*Request
			for dst := 0; dst < n; dst++ {
				if dst == r.ID() {
					continue
				}
				for i := 0; i < k; i++ {
					reqs = append(reqs, r.Isend(p, dst, 100+i, payload(r.ID(), dst, i), 0))
				}
			}
			for src := 0; src < n; src++ {
				if src == r.ID() {
					continue
				}
				for i := 0; i < k; i++ {
					want := payload(src, r.ID(), i)
					buf := make([]byte, len(want))
					r.Recv(p, src, 100+i, buf, 0)
					if !bytes.Equal(buf, want) {
						ok = false
					}
				}
			}
			WaitAll(p, reqs)
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}
