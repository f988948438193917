package mpi

import "repro/internal/sim"

// This file implements the WAN-aware (hierarchical) allreduce — the
// paper's stated future work ("we plan to study collective communication
// operations in cluster-of-clusters scenarios in detail").
// The design principle is the one §3.4 demonstrates for broadcast: pay the
// WAN latency a constant number of times, independent of process count, by
// electing one leader per cluster.

// HierAllreduce sums float64 vectors with site-local reduction, leader
// exchanges along the site tree, and site-local broadcast: each WAN link
// of the tree is crossed once in each direction regardless of n. With two
// sites this degenerates to the original single leader exchange. The result
// is the rank's own buffer, valid until the rank's next collective.
func (r *Rank) HierAllreduce(p *sim.Proc, vals []float64) []float64 {
	st := r.world.siteTree(r.world.ranks[0].node.Site())
	if len(st.order) > 2 {
		return r.hierAllreduceTree(p, vals, st)
	}
	r.collSeq++
	tagReduce := r.collTag(0)
	tagWAN := r.collTag(1)
	tagBcast := r.collTag(2)
	if len(st.order) == 1 {
		return r.Allreduce(p, vals)
	}
	mySite, otherSite := r.node.Site(), st.order[0]
	if otherSite == mySite {
		otherSite = st.order[1]
	}
	mine := st.groups[mySite]
	leader, remoteLeader := st.leader(mySite), st.leader(otherSite)
	// Local binomial reduce onto the leader, then the same tree back down.
	t := posIn(mine, r.id, leader)
	acc := r.reduceTree(p, t, vals, tagReduce)
	// Leaders exchange partial sums (one WAN round trip) and combine.
	var result []byte
	if r.id == leader {
		got, _ := r.Sendrecv(p, remoteLeader, tagWAN, r.encode(acc), 0,
			remoteLeader, tagWAN, r.landing(len(vals)), 0)
		addF64(acc, r.land[:got])
		result = r.encode(acc)
	} else {
		result = r.landing(len(vals))
	}
	out := r.bcastTree(p, t, result, 8*len(vals), tagBcast)
	return r.decode(out)
}

// hierAllreduceTree is the >=3-site allreduce over st, the tree rooted at
// rank 0's site: site-local reduce onto each leader, partial sums combined up
// the site tree, the global vector pushed back down, then site-local
// broadcast. Each WAN link on the tree carries the vector exactly once in
// each direction.
func (r *Rank) hierAllreduceTree(p *sim.Proc, vals []float64, st *siteTree) []float64 {
	r.collSeq++
	tagReduce := r.collTag(0)
	tagUp := r.collTag(1)
	tagDown := r.collTag(2)
	tagBcast := r.collTag(3)
	rootSite := st.order[0]
	mySite := r.node.Site()
	mine := st.groups[mySite]
	leader := st.leader(mySite)
	t := posIn(mine, r.id, leader)
	acc := r.reduceTree(p, t, vals, tagReduce)
	var result []byte
	if r.id == leader {
		buf := r.landing(len(vals)) // one receive buffer for the whole call
		for _, c := range st.children(mySite) {
			got, _ := r.Recv(p, st.leader(c), tagUp, buf, 0)
			addF64(acc, buf[:got])
		}
		if mySite != rootSite {
			parent := st.leader(st.parent[mySite])
			r.Send(p, parent, tagUp, r.encode(acc), 0)
			got, _ := r.Recv(p, parent, tagDown, buf, 0)
			acc = r.decode(buf[:got])
		}
		result = r.encode(acc)
		for _, c := range st.children(mySite) {
			r.Send(p, st.leader(c), tagDown, result, 0)
		}
	} else {
		result = r.landing(len(vals))
	}
	out := r.bcastTree(p, t, result, 8*len(vals), tagBcast)
	return r.decode(out)
}
