package mpi

import "sort"

// siteTree is the per-collective view of the world's site structure: which
// ranks live at which site, and a spanning tree over the occupied sites
// rooted at the collective's root site. The hierarchical collectives walk
// this tree so that payloads cross each inter-site WAN link a constant
// number of times regardless of rank count — the generalization of the
// paper's two-cluster "cross the WAN once" rule (§3.4) to arbitrary site
// graphs.
type siteTree struct {
	groups map[string][]int    // site -> ascending rank ids
	order  []string            // occupied sites, root first (deterministic)
	parent map[string]string   // occupied site -> its occupied parent site
	kids   map[string][]string // occupied site -> its children, in order
}

// leader returns the site's leader rank (the lowest id at the site).
func (st *siteTree) leader(site string) int { return st.groups[site][0] }

// children returns the occupied sites whose tree parent is site, in order.
func (st *siteTree) children(site string) []string { return st.kids[site] }

// siteTree returns the tree for a collective rooted at rootSite (which must
// be occupied). It depends only on placement, so the world builds it once per
// root site, the first time a rank asks, and every rank shares it read-only;
// ranks on different shards ask concurrently, hence the lock.
func (w *World) siteTree(rootSite string) *siteTree {
	w.treeMu.Lock()
	defer w.treeMu.Unlock()
	for _, st := range w.trees {
		if st.order[0] == rootSite {
			return st
		}
	}
	st := w.buildSiteTree(rootSite)
	w.trees = append(w.trees, st)
	return st
}

// buildSiteTree builds the tree rooted at rootSite. When the ranks were
// placed on a topo.Network, the tree follows the physical site graph
// breadth-first from the root site — unoccupied transit sites collapse into
// their nearest occupied ancestor — so a payload forwarded leader-to-leader
// down the tree crosses each WAN link on the BFS paths exactly once. Ranks
// assembled outside the topology layer fall back to a star: every other site
// hangs directly off the root site (exactly the two-cluster behavior when
// there are two sites). Every occupied site is in the tree's order.
func (w *World) buildSiteTree(rootSite string) *siteTree {
	st := &siteTree{groups: map[string][]int{}, parent: map[string]string{}, kids: map[string][]string{}}
	var occupied []string // first-appearance order by rank id: deterministic
	for _, rk := range w.ranks {
		s := rk.node.Site()
		if len(st.groups[s]) == 0 {
			occupied = append(occupied, s)
		}
		st.groups[s] = append(st.groups[s], rk.id)
	}
	for _, ids := range st.groups {
		sort.Ints(ids)
	}
	st.order = append(st.order, rootSite)
	placed := map[string]bool{rootSite: true}
	if nw := w.ranks[0].node.Net(); nw != nil {
		full, fparent := nw.BcastOrder(rootSite)
		for _, s := range full {
			if placed[s] || len(st.groups[s]) == 0 {
				continue
			}
			// Effective parent: the nearest occupied ancestor on the BFS
			// tree (transit-only sites have no ranks to forward through).
			p := fparent[s]
			for p != rootSite && len(st.groups[p]) == 0 {
				p = fparent[p]
			}
			st.parent[s] = p
			st.order = append(st.order, s)
			placed[s] = true
		}
	}
	for _, s := range occupied {
		if !placed[s] {
			st.parent[s] = rootSite
			st.order = append(st.order, s)
			placed[s] = true
		}
	}
	for _, s := range st.order[1:] {
		p := st.parent[s]
		st.kids[p] = append(st.kids[p], s)
	}
	return st
}
