package mpi

import (
	"fmt"

	"repro/internal/sim"
)

// Gather collects each rank's data block at root (binomial tree, blocks
// concatenated in rank order). Non-root ranks pass their block and get nil;
// root gets the full concatenation. All blocks must have equal size.
func (r *Rank) Gather(p *sim.Proc, root int, block []byte, blockSize int) []byte {
	if block != nil {
		blockSize = len(block)
	}
	r.collSeq++
	tag := r.collTag(0)
	n := len(r.world.ranks)
	vrank := (r.id - root + n) % n
	// Each node accumulates the blocks of its binomial subtree, ordered
	// by vrank, then forwards the bundle to its parent.
	synthetic := block == nil
	var bundle []byte
	if !synthetic {
		bundle = append([]byte(nil), block...)
	}
	held := 1 // blocks currently held (own + received subtrees)
	for mask := 1; mask < n; mask <<= 1 {
		if vrank&mask != 0 {
			parent := ((vrank &^ mask) + root) % n
			r.Send(p, parent, tag, bundle, held*blockSize)
			if r.id == root {
				panic("mpi: unreachable")
			}
			return nil
		}
		if vrank+mask < n {
			child := (vrank + mask + root) % n
			sub := min(mask, n-(vrank+mask)) // child subtree size
			var buf []byte
			if !synthetic {
				buf = make([]byte, sub*blockSize)
			}
			got, _ := r.Recv(p, child, tag, buf, sub*blockSize)
			if got != sub*blockSize {
				panic(fmt.Sprintf("mpi: gather expected %d bytes, got %d", sub*blockSize, got))
			}
			if !synthetic {
				bundle = append(bundle, buf...)
			}
			held += sub
		}
	}
	// Root: bundle holds blocks in vrank order; rotate to rank order.
	if synthetic {
		return nil
	}
	out := make([]byte, n*blockSize)
	for v := 0; v < n; v++ {
		rank := (v + root) % n
		copy(out[rank*blockSize:], bundle[v*blockSize:(v+1)*blockSize])
	}
	return out
}

// Scatter distributes root's buffer (n equal blocks in rank order) so each
// rank receives its block (binomial tree). Non-root ranks pass nil data;
// every rank returns its own block (nil for synthetic traffic).
func (r *Rank) Scatter(p *sim.Proc, root int, data []byte, blockSize int) []byte {
	r.collSeq++
	tag := r.collTag(0)
	n := len(r.world.ranks)
	if data != nil {
		if len(data)%n != 0 {
			panic("mpi: Scatter buffer not divisible by world size")
		}
		blockSize = len(data) / n
	}
	vrank := (r.id - root + n) % n
	// Work in vrank order: a node holds the bundle of blocks
	// [vrank, vrank+held). Intermediate nodes always materialize the
	// bundle bytes (a synthetic root scatters zero-filled blocks).
	var bundle []byte
	if r.id == root {
		bundle = make([]byte, n*blockSize)
		if data != nil {
			for rank := 0; rank < n; rank++ {
				v := (rank - root + n) % n
				copy(bundle[v*blockSize:], data[rank*blockSize:(rank+1)*blockSize])
			}
		}
	} else {
		mask := 1
		for vrank&mask == 0 {
			mask <<= 1
		}
		parent := (vrank - mask + root) % n
		held := min(mask, n-vrank)
		bundle = make([]byte, held*blockSize)
		got, _ := r.Recv(p, parent, tag, bundle, 0)
		if got != held*blockSize {
			panic("mpi: scatter short bundle")
		}
	}
	for mask := nextPow2(n) / 2; mask > 0; mask >>= 1 {
		if vrank&(2*mask-1) == 0 && vrank+mask < n {
			child := (vrank + mask + root) % n
			sub := min(mask, n-(vrank+mask))
			lo := mask * blockSize
			r.Send(p, child, tag, bundle[lo:lo+sub*blockSize], 0)
			bundle = bundle[:lo]
		}
	}
	return bundle[:blockSize]
}

// Allgather circulates each rank's block around a ring until every rank
// holds the full concatenation (in rank order). All blocks must be the same
// size; nil blocks keep the traffic synthetic and return nil.
func (r *Rank) Allgather(p *sim.Proc, block []byte, blockSize int) []byte {
	if block != nil {
		blockSize = len(block)
	}
	r.collSeq++
	n := len(r.world.ranks)
	synthetic := block == nil
	var out []byte
	if !synthetic {
		out = make([]byte, n*blockSize)
		copy(out[r.id*blockSize:], block)
	}
	right := (r.id + 1) % n
	left := (r.id - 1 + n) % n
	// Step s forwards the block originally owned by (id - s).
	for s := 0; s < n-1; s++ {
		sendOwner := ((r.id-s)%n + n) % n
		recvOwner := ((r.id-s-1)%n + n) % n
		var sendBuf, recvBuf []byte
		if !synthetic {
			sendBuf = out[sendOwner*blockSize : (sendOwner+1)*blockSize]
			recvBuf = out[recvOwner*blockSize : (recvOwner+1)*blockSize]
		}
		r.Sendrecv(p, right, r.collTag(s), sendBuf, blockSize,
			left, r.collTag(s), recvBuf, blockSize)
	}
	return out
}

// ReduceScatter sums float64 vectors across all ranks and leaves each rank
// with its length/n share of the result (pairwise-exchange halving for
// power-of-two sizes; reduce+scatter otherwise).
func (r *Rank) ReduceScatter(p *sim.Proc, vals []float64) []float64 {
	n := len(r.world.ranks)
	if len(vals)%n != 0 {
		panic("mpi: ReduceScatter vector not divisible by world size")
	}
	share := len(vals) / n
	if n&(n-1) != 0 {
		// General case: full reduce at 0, then scatter.
		red := r.Reduce(p, 0, vals)
		var buf []byte
		if r.id == 0 {
			buf = encodeF64(red)
		}
		out := r.Scatter(p, 0, buf, 8*share)
		return decodeF64(out)
	}
	r.collSeq++
	// Recursive halving: at each step exchange the half of the working
	// vector the partner is responsible for, and add the received half.
	work := append([]float64(nil), vals...)
	lo, hi := 0, len(vals)
	for mask, round := n/2, 0; mask >= 1; mask, round = mask/2, round+1 {
		partner := r.id ^ mask
		mid := (lo + hi) / 2
		var sendLo, sendHi, keepLo, keepHi int
		if r.id&mask == 0 {
			sendLo, sendHi, keepLo, keepHi = mid, hi, lo, mid
		} else {
			sendLo, sendHi, keepLo, keepHi = lo, mid, mid, hi
		}
		buf := make([]byte, 8*(keepHi-keepLo))
		r.Sendrecv(p, partner, r.collTag(round), encodeF64(work[sendLo:sendHi]), 0,
			partner, r.collTag(round), buf, 0)
		addF64(work[keepLo:keepHi], buf)
		lo, hi = keepLo, keepHi
	}
	out := make([]float64, share)
	copy(out, work[lo:hi])
	return out
}
