package mpi

import (
	"sort"

	"repro/internal/sim"
)

// This file implements the WAN-aware (hierarchical) allreduce — the
// paper's stated future work ("we plan to study collective communication
// operations in cluster-of-clusters scenarios in detail").
// The design principle is the one §3.4 demonstrates for broadcast: pay the
// WAN latency a constant number of times, independent of process count, by
// electing one leader per cluster.

// groups partitions the world's rank ids by cluster label, sorted.
func (r *Rank) groups() (mine, other []int) {
	myCluster := r.Cluster()
	for _, rk := range r.world.ranks {
		if rk.Cluster() == myCluster {
			mine = append(mine, rk.id)
		} else {
			other = append(other, rk.id)
		}
	}
	sort.Ints(mine)
	sort.Ints(other)
	return mine, other
}

// HierAllreduce sums float64 vectors with site-local reduction, leader
// exchanges along the site tree, and site-local broadcast: each WAN link
// of the tree is crossed once in each direction regardless of n. With two
// sites this degenerates to the original single leader exchange.
func (r *Rank) HierAllreduce(p *sim.Proc, vals []float64) []float64 {
	if r.occupiedSites() > 2 {
		return r.hierAllreduceTree(p, vals)
	}
	r.collSeq++
	tagReduce := r.collTag(0)
	tagWAN := r.collTag(1)
	tagBcast := r.collTag(2)
	mine, other := r.groups()
	if len(other) == 0 {
		return r.Allreduce(p, vals)
	}
	leader := mine[0]
	remoteLeader := other[0]
	// Local binomial reduce onto the leader (positions within the group).
	acc := r.localReduce(p, mine, vals, tagReduce)
	// Leaders exchange partial sums (one WAN round trip) and combine.
	var result []byte
	if r.id == leader {
		peerBuf := make([]byte, 8*len(vals))
		got, _ := r.Sendrecv(p, remoteLeader, tagWAN, encodeF64(acc), 0,
			remoteLeader, tagWAN, peerBuf, 0)
		addF64(acc, peerBuf[:got])
		result = encodeF64(acc)
	} else {
		result = make([]byte, 8*len(vals))
	}
	// Local broadcast of the global result.
	out := r.bcastTree(p, leader, result, 8*len(vals), mine, tagBcast)
	return decodeF64(out)
}

// localReduce runs a binomial sum-reduction of vals onto ids[0] using
// positions within the group; it returns the accumulated vector on ids[0]
// and nil on every other rank.
func (r *Rank) localReduce(p *sim.Proc, ids []int, vals []float64, tag int) []float64 {
	me := indexOf(ids, r.id)
	n := len(ids)
	acc := make([]float64, len(vals))
	copy(acc, vals)
	var buf []byte // one receive buffer for every child
	for mask := 1; mask < n; mask <<= 1 {
		if me&mask != 0 {
			parent := ids[me&^mask]
			r.Send(p, parent, tag, encodeF64(acc), 0)
			return nil
		}
		if me+mask < n {
			child := ids[me+mask]
			if buf == nil {
				buf = make([]byte, 8*len(vals))
			}
			got, _ := r.Recv(p, child, tag, buf, 0)
			addF64(acc, buf[:got])
		}
	}
	return acc
}

// hierAllreduceTree is the >=3-site allreduce: site-local reduce onto each
// leader, partial sums combined up the site tree, the global vector pushed
// back down, then site-local broadcast. Each WAN link on the tree carries
// the vector exactly once in each direction.
func (r *Rank) hierAllreduceTree(p *sim.Proc, vals []float64) []float64 {
	r.collSeq++
	tagReduce := r.collTag(0)
	tagUp := r.collTag(1)
	tagDown := r.collTag(2)
	tagBcast := r.collTag(3)
	rootSite := r.world.ranks[0].node.Site()
	st := r.siteTree(rootSite)
	mySite := r.node.Site()
	mine := st.groups[mySite]
	leader := st.leader(mySite)
	acc := r.localReduce(p, mine, vals, tagReduce)
	var result []byte
	if r.id == leader {
		buf := make([]byte, 8*len(vals)) // one receive buffer for the whole call
		for _, c := range st.children(mySite) {
			got, _ := r.Recv(p, st.leader(c), tagUp, buf, 0)
			addF64(acc, buf[:got])
		}
		if mySite != rootSite {
			parent := st.leader(st.parent[mySite])
			r.Send(p, parent, tagUp, encodeF64(acc), 0)
			got, _ := r.Recv(p, parent, tagDown, buf, 0)
			acc = decodeF64(buf[:got])
		}
		for _, c := range st.children(mySite) {
			r.Send(p, st.leader(c), tagDown, encodeF64(acc), 0)
		}
		result = encodeF64(acc)
	} else {
		result = make([]byte, 8*len(vals))
	}
	out := r.bcastTree(p, leader, result, 8*len(vals), mine, tagBcast)
	return decodeF64(out)
}

func indexOf(ids []int, id int) int {
	for i, v := range ids {
		if v == id {
			return i
		}
	}
	panic("mpi: rank not in its own cluster group")
}
