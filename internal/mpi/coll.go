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

// tree is a rank's place in the binomial tree over the group ids rooted at
// one of them, the one tree every tree collective walks. Positions count
// from the root: the root is v = 0, the parent of v is v-up, where up is v's
// lowest set bit, and the children of v are v+mask for each power of two
// mask < up that stays inside the group. The root's up is nextPow2(n), so
// its children follow the same rule.
type tree struct {
	ids     []int
	rootPos int // the root's position in ids
	v, up   int
}

// posIn returns rank self's place in the binomial tree over ids rooted at
// rank root; both must be in ids.
func posIn(ids []int, self, root int) tree {
	me, t := -1, tree{ids: ids, rootPos: -1}
	for i, id := range ids {
		if id == self {
			me = i
		}
		if id == root {
			t.rootPos = i
		}
	}
	if me < 0 || t.rootPos < 0 {
		panic("mpi: collective called by a rank outside its group")
	}
	n := len(ids)
	t.v = (me - t.rootPos + n) % n
	t.up = nextPow2(n)
	if t.v != 0 {
		t.up = t.v & -t.v
	}
	return t
}

// at returns the rank id at distance v from the root.
func (t tree) at(v int) int { return t.ids[(v+t.rootPos)%len(t.ids)] }

func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// BcastLargeMin is the message size at which Bcast switches from the
// binomial tree to the scatter + allgather algorithms, as MVAPICH2 does. The
// allgather stage is what makes the topology-unaware broadcast pay many WAN
// crossings for large messages (Fig. 11's "Original" curves).
const BcastLargeMin = 16 << 10

// Bcast broadcasts size bytes (or data, at the root) from root to all
// ranks, using the topology-unaware algorithms of the stock library: a
// binomial tree for small messages and a binomial scatter followed by an
// allgather for large ones. On non-root ranks data (when non-nil) is the
// landing buffer, as in MPI_Bcast; the returned slice holds the payload (nil
// for synthetic traffic).
func (r *Rank) Bcast(p *sim.Proc, root int, data []byte, size int) []byte {
	if data != nil {
		size = len(data)
	}
	r.collSeq++
	defer endColl(r.beginColl("coll.bcast"))
	n := len(r.world.ranks)
	t := posIn(r.world.ids[:n], r.id, root)
	if size >= BcastLargeMin && n > 2 {
		if n&(n-1) == 0 {
			return r.bcastScatterRD(p, t, data, size)
		}
		return r.bcastScatterRing(p, t, data, size)
	}
	return r.bcastTree(p, t, data, size, r.collTag(0))
}

// chunks returns chunks [a, b) of size bytes cut into n chunks: the payload
// (nil for synthetic traffic) and its length.
func chunks(data []byte, size, n, a, b int) ([]byte, int) {
	lo, hi := size*a/n, size*b/n
	if data == nil {
		return nil, hi - lo
	}
	return data[lo:hi], hi - lo
}

// scatter cuts size bytes into one chunk per rank and hands each rank the
// chunks of its subtree, [v, v+up), down the binomial tree, farthest subtree
// first. Ranges are clamped to the group; on a power-of-two group no clamp
// binds, so both large-message broadcasts start here. No range is empty:
// size is at least BcastLargeMin, far more bytes than a world has ranks.
func (r *Rank) scatter(p *sim.Proc, t tree, data []byte, size int) {
	n := len(t.ids)
	if t.v != 0 {
		b, nb := chunks(data, size, n, t.v, min(t.v+t.up, n))
		r.Irecv(t.at(t.v-t.up), r.collTag(0), b, nb).Wait(p)
	}
	for mask := t.up / 2; mask > 0; mask >>= 1 {
		if c := t.v + mask; c < n {
			b, nb := chunks(data, size, n, c, min(c+mask, n))
			r.Send(p, t.at(c), r.collTag(0), b, nb)
		}
	}
}

// bcastScatterRD implements the power-of-two large-message broadcast:
// binomial scatter of size/n chunks followed by a recursive-doubling
// allgather (log2 n steps, doubling the held block each step) — the MPICH
// algorithm MVAPICH2 uses at these sizes. On a cluster-of-clusters under
// block placement, the scatter and the top allgather step each cross the
// WAN once, which is why the WAN-aware hierarchical broadcast (one
// crossing) wins moderately rather than overwhelmingly (paper Fig. 11).
func (r *Rank) bcastScatterRD(p *sim.Proc, t tree, data []byte, size int) []byte {
	n := len(t.ids)
	r.scatter(p, t, data, size)
	// At the step with the given mask, exchange the held block of mask
	// chunks for the partner's, v^mask.
	for mask, round := 1, 1; mask < n; mask, round = mask*2, round+1 {
		base := t.v &^ (2*mask - 1)
		mine, theirs := base, base+mask
		if t.v&mask != 0 {
			mine, theirs = theirs, mine
		}
		sb, sn := chunks(data, size, n, mine, mine+mask)
		rb, rn := chunks(data, size, n, theirs, theirs+mask)
		partner := t.at(t.v ^ mask)
		r.Sendrecv(p, partner, r.collTag(round), sb, sn, partner, r.collTag(round), rb, rn)
	}
	return data
}

// bcastScatterRing implements the other large-message broadcast: binomial
// scatter of size/n chunks followed by a ring allgather (n-1 steps). Every
// ring step moves a chunk across every boundary between adjacent ranks — on
// a cluster-of-clusters, two of those boundaries are the WAN link, so the
// payload crosses the WAN many times.
func (r *Rank) bcastScatterRing(p *sim.Proc, t tree, data []byte, size int) []byte {
	n := len(t.ids)
	r.scatter(p, t, data, size)
	// Step s passes chunk v-s to the right.
	right, left := t.at(t.v+1), t.at(t.v-1+n)
	for s := 0; s < n-1; s++ {
		send, recv := (t.v-s+n)%n, (t.v-s-1+n)%n
		sb, sn := chunks(data, size, n, send, send+1)
		rb, rn := chunks(data, size, n, recv, recv+1)
		r.Sendrecv(p, right, r.collTag(1+s), sb, sn, left, r.collTag(1+s), rb, rn)
	}
	return data
}

// bcastTree runs a binomial broadcast down t. As in MPI_Bcast, data doubles
// as the landing buffer on non-root ranks (nil keeps the traffic synthetic).
func (r *Rank) bcastTree(p *sim.Proc, t tree, data []byte, size int, tag int) []byte {
	if t.v != 0 {
		got, _ := r.Irecv(t.at(t.v-t.up), tag, data, size).Wait(p)
		size = got
		if data != nil {
			data = data[:got]
		}
	}
	// Forward to the children, farthest subtree first.
	for mask := t.up / 2; mask > 0; mask >>= 1 {
		if t.v+mask < len(t.ids) {
			r.Send(p, t.at(t.v+mask), tag, data, size)
		}
	}
	return data
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
		return r.bcastTree(p, posIn(mine, r.id, root), data, size, tag)
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
	return r.bcastTree(p, posIn(mine, r.id, localRoot), data, size, tag)
}

// reduceTree sums vals up t onto its root: each rank adds its children's
// partial sums, nearest child first, then sends its own to its parent. It
// returns the sum (the rank's accumulator) at the root and nil elsewhere.
func (r *Rank) reduceTree(p *sim.Proc, t tree, vals []float64, tag int) []float64 {
	acc := r.accumulate(vals)
	for mask := 1; mask < t.up; mask <<= 1 {
		if t.v+mask < len(t.ids) {
			got, _ := r.Recv(p, t.at(t.v+mask), tag, r.landing(len(vals)), 0)
			addF64(acc, r.land[:got])
		}
	}
	if t.v == 0 {
		return acc
	}
	r.Send(p, t.at(t.v-t.up), tag, r.encode(acc), 0)
	return nil
}

// Reduce sums float64 vectors onto root over a binomial tree and returns
// the reduced vector at root (nil elsewhere). The result is the rank's own
// buffer: it stays valid until the rank's next collective, as an MPI receive
// buffer is the caller's until it is posted again. vals may be such a result.
func (r *Rank) Reduce(p *sim.Proc, root int, vals []float64) []float64 {
	r.collSeq++
	n := len(r.world.ranks)
	return r.reduceTree(p, posIn(r.world.ids[:n], r.id, root), vals, r.collTag(0))
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
	reqs := r.batch[:0]
	for i := 1; i < n; i++ {
		src := (r.id - i + n) % n
		reqs = append(reqs, r.Irecv(src, r.collTag(0), nil, sizePer))
	}
	for i := 1; i < n; i++ {
		dst := (r.id + i) % n
		reqs = append(reqs, r.Isend(p, dst, r.collTag(0), nil, sizePer))
	}
	WaitAll(p, reqs)
	r.batch = emptied(reqs) // Wait freed them
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
