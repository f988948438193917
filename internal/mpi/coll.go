package mpi

import (
	"encoding/binary"
	"math"

	"repro/internal/sim"
)

// Collective tags live in a reserved space far above application tags. Each
// collective call consumes one sequence number per rank (collectives must
// be called in the same order on every rank, as in MPI); rounds within one
// collective get distinct tags.
const collTagBase = 1 << 24

func (r *Rank) collTag(round int) int {
	return collTagBase + r.collSeq*256 + round
}

// Barrier blocks until all ranks have entered it (dissemination algorithm,
// ceil(log2 n) rounds of zero-byte exchanges).
func (r *Rank) Barrier(p *sim.Proc) {
	n := len(r.world.ranks)
	r.collSeq++
	for k, round := 1, 0; k < n; k, round = k*2, round+1 {
		dst := (r.id + k) % n
		src := (r.id - k + n) % n
		r.Sendrecv(p, dst, r.collTag(round), nil, 0, src, r.collTag(round), nil, 0)
	}
}

// BcastLargeMin is the message size at which Bcast switches from the
// binomial tree to the scatter + ring-allgather algorithm, as MVAPICH2
// does. The ring stage is what makes the topology-unaware broadcast pay
// many WAN crossings for large messages (Fig. 11's "Original" curves).
const BcastLargeMin = 16 << 10

// Bcast broadcasts size bytes (or data, at the root) from root to all
// ranks, using the topology-unaware algorithms of the stock library: a
// binomial tree for small messages and scatter + ring allgather for large
// ones. On non-root ranks data (when non-nil) is the landing buffer, as in
// MPI_Bcast; the returned slice holds the payload (nil for synthetic
// traffic).
func (r *Rank) Bcast(p *sim.Proc, root int, data []byte, size int) []byte {
	if data != nil {
		size = len(data)
	}
	r.collSeq++
	defer endColl(r.beginColl("coll.bcast"))
	n := len(r.world.ranks)
	ids := r.world.ids[:n]
	if size >= BcastLargeMin && n > 2 {
		if n&(n-1) == 0 {
			return r.bcastScatterRD(p, root, data, size, ids)
		}
		return r.bcastScatterRing(p, root, data, size, ids)
	}
	return r.bcastTree(p, root, data, size, ids, r.collTag(0))
}

// bcastScatterRD implements the power-of-two large-message broadcast:
// binomial scatter of size/n chunks followed by a recursive-doubling
// allgather (log2 n steps, doubling the held block each step) — the MPICH
// algorithm MVAPICH2 uses at these sizes. On a cluster-of-clusters under
// block placement, the scatter and the top allgather step each cross the
// WAN once, which is why the WAN-aware hierarchical broadcast (one
// crossing) wins moderately rather than overwhelmingly (paper Fig. 11).
func (r *Rank) bcastScatterRD(p *sim.Proc, root int, data []byte, size int, ids []int) []byte {
	n := len(ids)
	me, rootPos := -1, -1
	for i, id := range ids {
		if id == r.id {
			me = i
		}
		if id == root {
			rootPos = i
		}
	}
	vrank := (me - rootPos + n) % n
	chunkLo := func(v int) int { return size * v / n }
	slice := func(lo, hi int) []byte {
		if data == nil {
			return nil
		}
		return data[lo:hi]
	}
	// Binomial scatter down to single chunks.
	if vrank != 0 {
		mask := 1
		for vrank&mask == 0 {
			mask <<= 1
		}
		parent := (vrank - mask + rootPos) % n
		lo, hi := chunkLo(vrank), chunkLo(vrank+mask)
		req := r.Irecv(ids[parent], r.collTag(0), slice(lo, hi), hi-lo)
		req.Wait(p)
	}
	for mask := nextPow2(n) / 2; mask > 0; mask >>= 1 {
		if vrank&(2*mask-1) == 0 && vrank+mask < n {
			lo, hi := chunkLo(vrank+mask), chunkLo(vrank+2*mask)
			child := (vrank + mask + rootPos) % n
			r.Send(p, ids[child], r.collTag(0), slice(lo, hi), hi-lo)
		}
	}
	// Recursive-doubling allgather: at step with the given mask, exchange
	// the currently held block (mask chunks) with vrank^mask.
	for mask, round := 1, 1; mask < n; mask, round = mask*2, round+1 {
		base := vrank &^ (2*mask - 1)
		var sendLo, sendHi, recvLo, recvHi int
		if vrank&mask == 0 {
			sendLo, sendHi = chunkLo(base), chunkLo(base+mask)
			recvLo, recvHi = chunkLo(base+mask), chunkLo(base+2*mask)
		} else {
			sendLo, sendHi = chunkLo(base+mask), chunkLo(base+2*mask)
			recvLo, recvHi = chunkLo(base), chunkLo(base+mask)
		}
		partner := ids[(vrank^mask+rootPos)%n]
		r.Sendrecv(p, partner, r.collTag(round), slice(sendLo, sendHi), sendHi-sendLo,
			partner, r.collTag(round), slice(recvLo, recvHi), recvHi-recvLo)
	}
	return data
}

// bcastScatterRing implements the large-message broadcast: binomial scatter
// of size/n chunks followed by a ring allgather (n-1 steps). Every ring
// step moves a chunk across every boundary between adjacent ranks — on a
// cluster-of-clusters, two of those boundaries are the WAN link, so the
// payload crosses the WAN many times.
func (r *Rank) bcastScatterRing(p *sim.Proc, root int, data []byte, size int, ids []int) []byte {
	n := len(ids)
	me, rootPos := -1, -1
	for i, id := range ids {
		if id == r.id {
			me = i
		}
		if id == root {
			rootPos = i
		}
	}
	vrank := (me - rootPos + n) % n
	chunkLo := func(v int) int { return size * v / n }
	slice := func(lo, hi int) []byte {
		if data == nil {
			return nil
		}
		return data[lo:hi]
	}
	// Binomial scatter: each node holds chunk range [vrank, hi) and
	// forwards the upper half to vrank+mask.
	hi := n
	if vrank != 0 {
		mask := 1
		for vrank&mask == 0 {
			mask <<= 1
		}
		parent := (vrank - mask + rootPos) % n
		hi = vrank + mask
		if hi > n {
			hi = n
		}
		lo := chunkLo(vrank)
		hiB := chunkLo(hi)
		req := r.Irecv(ids[parent], r.collTag(0), slice(lo, hiB), hiB-lo)
		req.Wait(p)
	}
	for mask := nextPow2(n) / 2; mask > 0; mask >>= 1 {
		if vrank&(2*mask-1) == 0 && vrank+mask < n {
			childHi := vrank + 2*mask
			if childHi > hi {
				childHi = hi
			}
			if childHi > n {
				childHi = n
			}
			lo := chunkLo(vrank + mask)
			hiB := chunkLo(childHi)
			if hiB > lo {
				child := (vrank + mask + rootPos) % n
				r.Send(p, ids[child], r.collTag(0), slice(lo, hiB), hiB-lo)
			}
		}
	}
	// Ring allgather: step s passes chunk (vrank-s) to the right.
	right := ids[(me+1)%n]
	left := ids[(me-1+n)%n]
	for s := 0; s < n-1; s++ {
		sendChunk := ((vrank-s)%n + n) % n
		recvChunk := ((vrank-s-1)%n + n) % n
		sLo, sHi := chunkLo(sendChunk), chunkLo(sendChunk+1)
		rLo, rHi := chunkLo(recvChunk), chunkLo(recvChunk+1)
		r.Sendrecv(p, right, r.collTag(1+s), slice(sLo, sHi), sHi-sLo,
			left, r.collTag(1+s), slice(rLo, rHi), rHi-rLo)
	}
	return data
}

// bcastTree runs a binomial broadcast among the given rank ids (which must
// include r.id); root is an absolute rank id in ids.
func (r *Rank) bcastTree(p *sim.Proc, root int, data []byte, size int, ids []int, tag int) []byte {
	n := len(ids)
	if n <= 1 {
		return data
	}
	// Position of this rank and the root within the group.
	me, rootPos := -1, -1
	for i, id := range ids {
		if id == r.id {
			me = i
		}
		if id == root {
			rootPos = i
		}
	}
	if me < 0 || rootPos < 0 {
		panic("mpi: bcastTree called by rank outside group")
	}
	vrank := (me - rootPos + n) % n
	// Receive phase (non-root): the parent holds the highest set bit of
	// vrank. As in MPI_Bcast, data doubles as the landing buffer on
	// non-root ranks (nil keeps the traffic synthetic).
	if vrank != 0 {
		// The parent differs in the lowest set bit of vrank.
		mask := 1
		for vrank&mask == 0 {
			mask <<= 1
		}
		parent := (vrank - mask + rootPos) % n
		req := r.Irecv(ids[parent], tag, data, size)
		got, _ := req.Wait(p)
		size = got
		if data != nil {
			data = data[:got]
		}
	}
	// Send phase: forward to children, farthest subtree first.
	for mask := nextPow2(n) / 2; mask > 0; mask >>= 1 {
		if vrank&(2*mask-1) == 0 && vrank+mask < n {
			child := (vrank + mask + rootPos) % n
			r.Send(p, ids[child], tag, data, size)
		}
	}
	return data
}

func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// HierBcast is the paper's WAN-aware broadcast (§3.4, "MPI Broadcast
// Performance"), generalized to N sites: the payload crosses each WAN link
// on the site tree exactly once — forwarded leader-to-leader down the
// breadth-first spanning tree of the site graph — and each site then
// broadcasts internally. On the paper's two-site testbed this is exactly
// the original algorithm (one crossing to the remote cluster's leader).
func (r *Rank) HierBcast(p *sim.Proc, root int, data []byte, size int) []byte {
	if data != nil {
		size = len(data)
	}
	r.collSeq++
	defer endColl(r.beginColl("coll.hierbcast"))
	tag := r.collTag(0)
	wanTag := r.collTag(1)
	rootSite := r.world.ranks[root].node.Site()
	st := r.world.siteTree(rootSite)
	mySite := r.node.Site()
	mine := st.groups[mySite]
	if len(st.order) == 1 {
		return r.bcastTree(p, root, data, size, mine, tag)
	}
	localRoot := st.leader(mySite)
	if mySite == rootSite {
		localRoot = root
	}
	if r.id == localRoot {
		if mySite != rootSite {
			// One crossing of the link toward the root: receive from the
			// parent site's local root.
			parentSite := st.parent[mySite]
			sender := st.leader(parentSite)
			if parentSite == rootSite {
				sender = root
			}
			req := r.Irecv(sender, wanTag, data, size)
			got, _ := req.Wait(p)
			size = got
			if data != nil {
				data = data[:got]
			}
		}
		// Forward once over each child link, then fan out locally.
		for _, child := range st.children(mySite) {
			r.Send(p, st.leader(child), wanTag, data, size)
		}
	}
	return r.bcastTree(p, localRoot, data, size, mine, tag)
}

// Reduce sums float64 vectors onto root over a binomial tree and returns
// the reduced vector at root (nil elsewhere). The result is the rank's own
// buffer: it stays valid until the rank's next collective, as an MPI receive
// buffer is the caller's until it is posted again. vals may be such a result.
func (r *Rank) Reduce(p *sim.Proc, root int, vals []float64) []float64 {
	r.collSeq++
	tag := r.collTag(0)
	n := len(r.world.ranks)
	vrank := (r.id - root + n) % n
	acc := r.accumulate(vals)
	// Receive from children (vrank + mask), then send to parent.
	for mask := 1; mask < n; mask <<= 1 {
		if vrank&mask != 0 {
			parent := ((vrank &^ mask) + root) % n
			r.Send(p, parent, tag, r.encode(acc), 0)
			return nil
		}
		if vrank+mask < n {
			child := (vrank + mask + root) % n
			got, _ := r.Recv(p, child, tag, r.landing(len(vals)), 0)
			addF64(acc, r.land[:got])
		}
	}
	return acc
}

// Allreduce sums float64 vectors across all ranks (reduce to rank 0, then
// broadcast) and returns the result on every rank. Like Reduce's, the result
// is the rank's own buffer, valid until the rank's next collective.
func (r *Rank) Allreduce(p *sim.Proc, vals []float64) []float64 {
	res := r.Reduce(p, 0, vals)
	var buf []byte
	if r.id == 0 {
		buf = r.encode(res)
	} else {
		buf = r.landing(len(vals))
	}
	r.Bcast(p, 0, buf, 0)
	if r.id == 0 {
		return res
	}
	return r.decode(buf)
}

// AlltoallSynthetic exchanges sizePer synthetic bytes with every other rank.
// All sends and receives are posted up front and progressed concurrently
// (the large-message alltoall strategy), so the aggregate exchange is
// bandwidth-bound and pays the WAN latency once rather than once per peer —
// the property that makes NAS IS and FT tolerate WAN delays (paper §3.5).
func (r *Rank) AlltoallSynthetic(p *sim.Proc, sizePer int) {
	r.collSeq++
	n := len(r.world.ranks)
	reqs := r.a2a[:0]
	for i := 1; i < n; i++ {
		src := (r.id - i + n) % n
		reqs = append(reqs, r.Irecv(src, r.collTag(0), nil, sizePer))
	}
	for i := 1; i < n; i++ {
		dst := (r.id + i) % n
		reqs = append(reqs, r.Isend(p, dst, r.collTag(0), nil, sizePer))
	}
	WaitAll(p, reqs)
	r.a2a = emptied(reqs) // Wait freed them
}

// accumulate copies vals into the rank's accumulator and returns it.
func (r *Rank) accumulate(vals []float64) []float64 {
	r.acc = grow(r.acc, len(vals))
	copy(r.acc, vals)
	return r.acc
}

// encode writes v into the rank's send buffer and returns it.
func (r *Rank) encode(v []float64) []byte {
	r.wire = encodeF64(r.wire, v)
	return r.wire
}

// landing returns the rank's receive buffer sized for n values.
func (r *Rank) landing(n int) []byte {
	r.land = grow(r.land, 8*n)
	return r.land
}

// decode writes the encoded vector b into the rank's accumulator and returns
// it.
func (r *Rank) decode(b []byte) []float64 {
	r.acc = decodeF64(r.acc, b)
	return r.acc
}

// grow returns s at length n, on its own array when that is large enough.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// encodeF64 writes v into dst, grown to 8 bytes a value, and returns it.
func encodeF64(dst []byte, v []float64) []byte {
	b := grow(dst, 8*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(x))
	}
	return b
}

// decodeF64 writes the encoded vector b into dst, grown to len(b)/8 values,
// and returns it.
func decodeF64(dst []float64, b []byte) []float64 {
	v := grow(dst, len(b)/8)
	for i := range v {
		v[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return v
}

// addF64 adds the encoded vector b into acc element by element: the sum
// acc[i] += decodeF64(nil, b)[i] makes, without the decoded copy.
func addF64(acc []float64, b []byte) {
	for i := range acc {
		acc[i] += math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
}
