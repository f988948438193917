package mpi

import (
	"repro/internal/sim"
)

// This file implements the OSU-microbenchmark (OMB) measurement loops the
// paper uses for all MPI-level results (§3.4): osu_latency, osu_bw,
// osu_bibw, the multi-pair message-rate test, and the modified broadcast
// benchmark with its explicit ack from the slowest process.

// BwWindow is the osu_bw/osu_bibw window size: the number of outstanding
// nonblocking operations per iteration.
const BwWindow = 64

// appTag is the tag the benchmarks use for application traffic.
const appTag = 1

// Latency runs a ping-pong between ranks 0 and 1 and returns the one-way
// latency (half the average round trip).
func Latency(w *World, size, iters int) sim.Time {
	var total sim.Time
	w.Run(func(r *Rank, p *sim.Proc) {
		switch r.ID() {
		case 0:
			start := p.Now()
			for i := 0; i < iters; i++ {
				r.Send(p, 1, appTag, nil, size)
				r.Recv(p, 1, appTag, nil, size)
			}
			total = p.Now() - start
		case 1:
			for i := 0; i < iters; i++ {
				r.Recv(p, 0, appTag, nil, size)
				r.Send(p, 0, appTag, nil, size)
			}
		}
	})
	return total / sim.Time(2*iters)
}

// Bandwidth runs the osu_bw pattern (windowed nonblocking sends from rank 0
// to rank 1) and returns the unidirectional bandwidth in MillionBytes/s.
func Bandwidth(w *World, size, iters int) float64 {
	var elapsed sim.Time
	w.Run(func(r *Rank, p *sim.Proc) {
		switch r.ID() {
		case 0:
			start := p.Now()
			r.sendWindows(p, 1, size, iters)
			elapsed = p.Now() - start
		case 1:
			r.recvWindows(p, 0, size, iters)
		}
	})
	total := float64(size) * float64(BwWindow) * float64(iters)
	return total / elapsed.Seconds() / 1e6
}

// sendWindows is the sending side of osu_bw: iters windows of BwWindow
// nonblocking sends of size bytes to peer, each waited for whole, then the
// receiver's 4-byte handshake, so the sender's timeline covers delivery.
func (r *Rank) sendWindows(p *sim.Proc, peer, size, iters int) {
	for i := 0; i < iters; i++ {
		reqs := r.batch[:0]
		for j := 0; j < BwWindow; j++ {
			reqs = append(reqs, r.Isend(p, peer, appTag, nil, size))
		}
		WaitAll(p, reqs)
		r.batch = emptied(reqs) // Wait freed them
	}
	r.Recv(p, peer, appTag+1, nil, 4)
}

// recvWindows is sendWindows' receiving side.
func (r *Rank) recvWindows(p *sim.Proc, peer, size, iters int) {
	for i := 0; i < iters; i++ {
		reqs := r.batch[:0]
		for j := 0; j < BwWindow; j++ {
			reqs = append(reqs, r.Irecv(peer, appTag, nil, size))
		}
		WaitAll(p, reqs)
		r.batch = emptied(reqs)
	}
	r.Send(p, peer, appTag+1, nil, 4)
}

// BiBandwidth runs osu_bibw (both ranks send and receive a window per
// iteration) and returns the aggregate two-way bandwidth in MillionBytes/s.
func BiBandwidth(w *World, size, iters int) float64 {
	var elapsed sim.Time
	w.Run(func(r *Rank, p *sim.Proc) {
		peer := 1 - r.ID()
		if r.ID() > 1 {
			return
		}
		start := p.Now()
		for i := 0; i < iters; i++ {
			reqs := r.batch[:0]
			for j := 0; j < BwWindow; j++ {
				reqs = append(reqs, r.Irecv(peer, appTag, nil, size))
			}
			for j := 0; j < BwWindow; j++ {
				reqs = append(reqs, r.Isend(p, peer, appTag, nil, size))
			}
			WaitAll(p, reqs)
			r.batch = emptied(reqs)
		}
		if r.ID() == 0 {
			elapsed = p.Now() - start
		}
	})
	total := 2 * float64(size) * float64(BwWindow) * float64(iters)
	return total / elapsed.Seconds() / 1e6
}

// MessageRate runs the multi-pair aggregate message-rate test (paper
// Fig. 10): the world must hold 2*pairs ranks where rank i (sender, cluster
// A) pairs with rank pairs+i (receiver, cluster B). It returns the
// aggregate rate in million messages per second.
func MessageRate(w *World, pairs, size, iters int) float64 {
	if w.Size() < 2*pairs {
		panic("mpi: MessageRate needs 2*pairs ranks")
	}
	var last sim.Time
	w.Run(func(r *Rank, p *sim.Proc) {
		switch {
		case r.ID() < pairs:
			r.sendWindows(p, r.ID()+pairs, size, iters)
			if t := p.Now(); t > last {
				last = t
			}
		case r.ID() < 2*pairs:
			r.recvWindows(p, r.ID()-pairs, size, iters)
		}
	})
	msgs := float64(pairs) * float64(BwWindow) * float64(iters)
	return msgs / last.Seconds() / 1e6
}

// BcastLatency runs the paper's modified OSU broadcast benchmark: the root
// broadcasts, then waits for an explicit MPI-level ack from the process
// with the greatest ack time (chosen as the highest rank, which lives in
// the remote cluster under block placement) before the next iteration.
// hierarchical selects the WAN-aware broadcast. Returns the mean latency
// per broadcast.
func BcastLatency(w *World, size, iters int, hierarchical bool) sim.Time {
	n := w.Size()
	acker := n - 1
	var total sim.Time
	w.Run(func(r *Rank, p *sim.Proc) {
		bcast := func() {
			if hierarchical {
				r.HierBcast(p, 0, nil, size)
			} else {
				r.Bcast(p, 0, nil, size)
			}
		}
		switch r.ID() {
		case 0:
			start := p.Now()
			for i := 0; i < iters; i++ {
				bcast()
				r.Recv(p, acker, appTag+2, nil, 4)
			}
			total = p.Now() - start
		case acker:
			for i := 0; i < iters; i++ {
				bcast()
				r.Send(p, 0, appTag+2, nil, 4)
			}
		default:
			for i := 0; i < iters; i++ {
				bcast()
			}
		}
	})
	return total / sim.Time(iters)
}
