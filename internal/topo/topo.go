// Package topo generalizes the paper's two-cluster testbed (Fig. 2) into a
// declarative N-site WAN topology: a Topology spec names sites (each an IB
// cluster with its own spine switch and optionally a two-level fat tree)
// and links (each a Longbow pair with its own delay, rate and optional
// fault plan), and Build compiles the spec onto one ib.Fabric. Routing
// across multi-hop site graphs (star, ring, mesh) falls out of the
// fabric's deterministic shortest-path subnet manager: every Longbow is a
// switch, so BFS by hop count with construction-order tie-breaking routes
// packets between non-adjacent sites through intermediate sites.
//
// The paper's testbed is the degenerate two-site instance, Paper, and keeps
// the original device names, construction order and LID assignment
// byte-for-byte. Every world is held to one sharding rule: Build splits it
// into one event shard per site when the run asks for shard workers and its
// sites and links allow it (see shardEligible), whatever the spec is for.
package topo

import (
	"fmt"
	"strings"

	"repro/internal/fault"
	"repro/internal/ib"
	"repro/internal/sim"
	"repro/internal/wan"
)

// Site declares one cluster of the topology: a named group of nodes behind
// a spine switch.
type Site struct {
	// Name identifies the site; node Cluster labels and switch names
	// derive from it. Must be unique within the topology.
	Name string
	// Nodes is the number of compute nodes (must be >= 1).
	Nodes int
	// Cores is the per-node CPU core count (default 2).
	Cores int
	// LeafRadix, when nonzero, builds the site as a two-level fat tree:
	// nodes attach to leaf switches of this radix, every leaf uplinks to
	// the site spine. Zero keeps a single-switch site.
	LeafRadix int
}

// Link joins two sites through a Longbow WAN extender pair.
type Link struct {
	// A and B name the two sites the link joins.
	A, B string
	// Delay is the one-way WAN propagation delay (the emulated-distance
	// knob of the Longbow pair).
	Delay sim.Time
	// Rate is the long-haul data rate (default wan.WANRate, i.e. SDR).
	Rate ib.Rate
	// Fault, when non-nil, is a per-link fault plan armed on this link
	// only (its WAN levers: permanent down, flaps, loss, corruption). It
	// takes precedence over a run-wide plan attached to the environment,
	// which arms every WAN link.
	Fault *fault.Plan
	// QueueBytes bounds the long-haul hop's per-direction egress queue.
	// Zero with ECN or Lossless set selects the link's bandwidth-delay
	// product (wan.BDPQueueBytes); zero with neither leaves the
	// unbounded FIFO. Queue admission is a pure function of
	// shard-local state, so bounded links stay shard-eligible.
	QueueBytes int
	// ECN enables congestion-experienced marking of packets admitted on
	// top of half the queue bound or more (see ib.QueueConfig).
	ECN bool
	// Lossless enables credit-based link-level flow control: packets
	// stall at a full queue instead of tail-dropping.
	Lossless bool
}

// Topology is the declarative spec of an N-site WAN deployment.
type Topology struct {
	Sites []Site
	Links []Link
	// LinkRate is the intra-site (and site-to-Longbow) link rate
	// (default ib.DDR).
	LinkRate ib.Rate
	// Failover, when non-nil, arms the fabric's self-healing routing layer
	// (ib.Fabric.EnableFailover) with this health configuration: every WAN
	// link whose effective fault plan (see resolveFaults) arms a WAN lever is
	// monitored, its scheduled outages become debounced verdict edges, and
	// each verdict edge triggers a subnet re-sweep that routes around dead
	// links. Nil keeps the historical route-once behavior.
	Failover *ib.HealthConfig
}

// fill applies spec defaults without mutating the caller's slices.
func (t Topology) fill() Topology {
	if t.LinkRate == 0 {
		t.LinkRate = ib.DDR
	}
	sites := make([]Site, len(t.Sites))
	for i, s := range t.Sites {
		if s.Cores == 0 {
			s.Cores = 2
		}
		sites[i] = s
	}
	links := make([]Link, len(t.Links))
	for i, l := range t.Links {
		if l.Rate == 0 {
			l.Rate = wan.WANRate
		}
		links[i] = l
	}
	t.Sites, t.Links = sites, links
	return t
}

// Validate checks the spec: unique non-empty site names, positive node
// counts, links between distinct known sites with no duplicate pairs,
// non-negative delays, positive rates, valid per-link fault plans, and a
// connected site graph (every site reachable from the first).
func (t Topology) Validate() error {
	if len(t.Sites) == 0 {
		return fmt.Errorf("topo: no sites")
	}
	if t.LinkRate < 0 {
		return fmt.Errorf("topo: negative intra-site link rate %v", t.LinkRate)
	}
	seen := make(map[string]bool, len(t.Sites))
	for i, s := range t.Sites {
		if s.Name == "" {
			return fmt.Errorf("topo: site %d has no name", i)
		}
		if seen[s.Name] {
			return fmt.Errorf("topo: duplicate site %q", s.Name)
		}
		seen[s.Name] = true
		if s.Nodes < 1 {
			return fmt.Errorf("topo: site %q has %d nodes, want >= 1", s.Name, s.Nodes)
		}
		if s.Cores < 1 {
			return fmt.Errorf("topo: site %q has %d cores, want >= 1", s.Name, s.Cores)
		}
		if s.LeafRadix < 0 {
			return fmt.Errorf("topo: site %q has negative leaf radix", s.Name)
		}
	}
	pairs := make(map[[2]string]bool, len(t.Links))
	for i, l := range t.Links {
		if !seen[l.A] || !seen[l.B] {
			return fmt.Errorf("topo: link %d joins unknown site (%q - %q)", i, l.A, l.B)
		}
		if l.A == l.B {
			return fmt.Errorf("topo: link %d joins site %q to itself", i, l.A)
		}
		key := [2]string{l.A, l.B}
		if l.B < l.A {
			key = [2]string{l.B, l.A}
		}
		if pairs[key] {
			return fmt.Errorf("topo: duplicate link %q - %q", l.A, l.B)
		}
		pairs[key] = true
		if l.Delay < 0 {
			return fmt.Errorf("topo: link %q - %q has negative delay %v", l.A, l.B, l.Delay)
		}
		if l.Rate <= 0 {
			return fmt.Errorf("topo: link %q - %q has non-positive rate", l.A, l.B)
		}
		if l.Fault != nil {
			if err := l.Fault.Validate(); err != nil {
				return fmt.Errorf("topo: link %q - %q fault plan: %w", l.A, l.B, err)
			}
		}
		if l.QueueBytes < 0 {
			return fmt.Errorf("topo: link %q - %q has negative queue bound %d", l.A, l.B, l.QueueBytes)
		}
	}
	if len(t.Sites) > 1 {
		// Connectivity: BFS over the site graph from the first site.
		adj := make(map[string][]string, len(t.Sites))
		for _, l := range t.Links {
			adj[l.A] = append(adj[l.A], l.B)
			adj[l.B] = append(adj[l.B], l.A)
		}
		reached := map[string]bool{t.Sites[0].Name: true}
		frontier := []string{t.Sites[0].Name}
		for len(frontier) > 0 {
			var next []string
			for _, s := range frontier {
				for _, nb := range adj[s] {
					if !reached[nb] {
						reached[nb] = true
						next = append(next, nb)
					}
				}
			}
			frontier = next
		}
		for _, s := range t.Sites {
			if !reached[s.Name] {
				return fmt.Errorf("topo: site %q unreachable from %q", s.Name, t.Sites[0].Name)
			}
		}
	}
	return nil
}

// WithDelay returns a copy of the topology with every link's delay set to d
// (the per-experiment delay sweep knob).
func (t Topology) WithDelay(d sim.Time) Topology {
	links := make([]Link, len(t.Links))
	copy(links, t.Links)
	for i := range links {
		links[i].Delay = d
	}
	t.Links = links
	return t
}

// WithQueue returns a copy of the topology with every link's congestion
// knobs set: a queue bound of bytes (0 selects the per-link BDP), ECN
// marking, and lossless credit flow control.
func (t Topology) WithQueue(bytes int, ecn, lossless bool) Topology {
	links := make([]Link, len(t.Links))
	copy(links, t.Links)
	for i := range links {
		links[i].QueueBytes = bytes
		links[i].ECN = ecn
		links[i].Lossless = lossless
	}
	t.Links = links
	return t
}

// WithNodes returns a copy of the topology with every site's node count set
// to n (Quick-mode world shrinking).
func (t Topology) WithNodes(n int) Topology {
	sites := make([]Site, len(t.Sites))
	copy(sites, t.Sites)
	for i := range sites {
		sites[i].Nodes = n
	}
	t.Sites = sites
	return t
}

// Node is one compute node: an HCA plus a CPU resource used by software
// protocol stacks (TCP/IPoIB, NFS) to model host processing contention.
type Node struct {
	Name string
	HCA  *ib.HCA
	CPU  *sim.Resource
	// Cluster is the name of the site the node belongs to. (The field name
	// survives from the two-site testbed, where the sites were "A" and "B";
	// every layer above keys on it as an opaque site id.)
	Cluster string
	// net is the owning network (nil for hand-assembled nodes).
	net *Network
}

// Site returns the name of the site the node belongs to.
func (n *Node) Site() string { return n.Cluster }

// Net returns the network the node was built into, or nil for nodes
// assembled outside the topology layer.
func (n *Node) Net() *Network { return n.net }

// SiteNet is one compiled site: its spec, nodes and switches.
type SiteNet struct {
	Spec   Site
	Nodes  []*Node
	Spine  *ib.Switch
	Leaves []*ib.Switch
}

// Name returns the site name.
func (s *SiteNet) Name() string { return s.Spec.Name }

// WANLink is one compiled inter-site link: the Longbow pair plus the names
// of the sites it joins (A faces Pair.A, B faces Pair.B).
type WANLink struct {
	A, B string
	Pair *wan.Pair
	name string
}

// Name returns the link's name (unique within the network; it prefixes the
// two Longbow device names, so per-link telemetry tracks inherit it).
func (l *WANLink) Name() string { return l.name }

// Joins reports whether the link directly joins sites a and b (in either
// order).
func (l *WANLink) Joins(a, b string) bool {
	return (l.A == a && l.B == b) || (l.A == b && l.B == a)
}

// Network is a compiled topology: the fabric, sites and WAN links.
type Network struct {
	Env    *sim.Env
	Fabric *ib.Fabric
	sites  []*SiteNet
	byName map[string]*SiteNet
	links  []*WANLink
	// adj lists each site's directly linked neighbor sites, in link
	// declaration order — the deterministic iteration order behind
	// BcastOrder.
	adj map[string][]string
}

// resolveFaults sets each link's Fault to its effective plan, once: its own
// Fault, else the run-wide plan rw when rw's Link restriction matches. It
// writes t.Links in place, so t must be Build's fill()ed copy. A run-wide
// plan that names a link the spec does not have is an error.
func (t Topology) resolveFaults(rw *fault.Plan) error {
	matched := false
	for i := range t.Links {
		if lk := &t.Links[i]; rw.MatchesLink(lk.A, lk.B) {
			matched = true
			if lk.Fault == nil {
				lk.Fault = rw
			}
		}
	}
	if rw != nil && rw.Link != "" && !matched {
		return fmt.Errorf("topo: fault plan targets unknown link %q", rw.Link)
	}
	return nil
}

// shardEligible reports whether Build may partition env into per-site
// shards. It decides from the world alone: the run asked for shard workers,
// there is more than one site, the environment is not already a shard view,
// and every WAN link has a positive delay (a zero-delay link cannot bound the
// lookahead). A fault plan does not enter into it — a verdict is a pure
// function of the packet and simulated time — save for one clause: a
// topology that arms failover stays on one shard if a link is reactive,
// because the health monitor blames such a link from retry timeouts, and a
// verdict it decides must hold world-wide at that instant, which no lookahead
// allows. No spec opts in: the layers above connect at construction time, so
// what runs on a world cannot make it unsafe (sdp, which cannot, refuses two
// environments, and its one caller sets one shard worker).
func (t Topology) shardEligible(env *sim.Env) bool {
	if env.ShardWorkers() <= 1 || len(t.Sites) < 2 || env.Sharded() {
		return false
	}
	for _, lk := range t.Links {
		p := lk.Fault // reactive: a random WAN lever and no outage schedule
		reactive := p != nil && p.WANLoss+p.WANCorrupt > 0 && len(p.DownEdges()) == 0
		if lk.Delay <= 0 || t.Failover != nil && reactive {
			return false
		}
	}
	return true
}

// Build compiles the topology onto a fresh fabric in env. Construction
// order is fixed — site spines in declaration order, then Longbow pairs in
// link order, then nodes site by site — so LID assignment, routing
// tie-breaks and therefore simulated results are a pure function of the
// spec. Each WAN link is armed once, with its effective fault plan (see
// resolveFaults): its own Fault, else the environment's run-wide plan if
// that plan's Link restriction matches (every link when empty).
//
// When the spec and run qualify (see shardEligible), Build partitions env
// into one event shard per site and compiles each site's devices, node
// CPUs and — transitively — all software layered on them onto that site's
// shard view. WAN links become the cross-shard edges, each link's delay
// the conservative bound of its own directed channels, so Env.Run executes
// the sites in parallel — every shard's window sized by its own incoming
// links, not the world minimum — with output identical to the single-heap
// run.
func Build(env *sim.Env, t Topology) (*Network, error) {
	t = t.fill()
	if err := t.Validate(); err != nil {
		return nil, err
	}
	rw := fault.PlanFromEnv(env)
	if err := t.resolveFaults(rw); err != nil {
		return nil, err
	}
	f := ib.NewFabric(env)
	var views []*sim.Env // per-site shard views; nil on the classic path
	if t.shardEligible(env) {
		views = env.Partition(len(t.Sites))
	}
	siteEnv := func(i int) *sim.Env {
		if views == nil {
			return env
		}
		return views[i]
	}
	siteIdx := make(map[string]int, len(t.Sites))
	for i, s := range t.Sites {
		siteIdx[s.Name] = i
	}
	nw := &Network{
		Env:    env,
		Fabric: f,
		byName: make(map[string]*SiteNet, len(t.Sites)),
		adj:    make(map[string][]string, len(t.Sites)),
	}
	for i, spec := range t.Sites {
		f.UseEnv(siteEnv(i))
		sn := &SiteNet{Spec: spec, Spine: f.AddSwitch("switch-"+spec.Name, ib.SwitchDelay)}
		nw.sites = append(nw.sites, sn)
		nw.byName[spec.Name] = sn
	}
	f.UseEnv(env)
	for i, lk := range t.Links {
		// The single-link name stays the paper's "longbow", which keeps the
		// two-site device names (longbow-A, longbow-B) — and the golden
		// output — unchanged. Multi-link topologies qualify the name with
		// the site pair so Longbow device names (and the telemetry tracks
		// derived from them) identify their link.
		name := "longbow"
		if len(t.Links) > 1 {
			name = fmt.Sprintf("longbow[%s:%s]", lk.A, lk.B)
		}
		pair := wan.NewPairAcross(f, name, lk.A, lk.B, lk.Rate, lk.Delay,
			siteEnv(siteIdx[lk.A]), siteEnv(siteIdx[lk.B]))
		if lk.QueueBytes > 0 || lk.ECN || lk.Lossless {
			cfg := ib.QueueConfig{QueueBytes: lk.QueueBytes, ECN: lk.ECN, Lossless: lk.Lossless}
			if err := pair.EnableCongestion(cfg); err != nil {
				return nil, fmt.Errorf("topo: link %s: %w", name, err)
			}
		}
		f.Connect(nw.byName[lk.A].Spine, pair.A.Device(), t.LinkRate, ib.DefaultCableDelay)
		f.Connect(nw.byName[lk.B].Spine, pair.B.Device(), t.LinkRate, ib.DefaultCableDelay)
		// From here on a link's Fault is a plan that arms a WAN lever on it,
		// or nil: the links with one are those the health monitor watches.
		if lk.Fault.ArmWAN(pair.Link()) == nil {
			t.Links[i].Fault = nil
		}
		nw.links = append(nw.links, &WANLink{A: lk.A, B: lk.B, Pair: pair, name: name})
		nw.adj[lk.A] = append(nw.adj[lk.A], lk.B)
		nw.adj[lk.B] = append(nw.adj[lk.B], lk.A)
	}
	for si, sn := range nw.sites {
		f.UseEnv(siteEnv(si))
		prefix := strings.ToLower(sn.Spec.Name)
		for i := 0; i < sn.Spec.Nodes; i++ {
			n := &Node{
				Name:    fmt.Sprintf("%s%02d", prefix, i),
				CPU:     sim.NewResource(siteEnv(si), sn.Spec.Cores),
				Cluster: sn.Spec.Name,
				net:     nw,
			}
			n.HCA = f.AddHCA(n.Name)
			if sn.Spec.LeafRadix <= 0 {
				f.Connect(n.HCA, sn.Spine, t.LinkRate, ib.DefaultCableDelay)
			} else {
				leafIdx := i / sn.Spec.LeafRadix
				for len(sn.Leaves) <= leafIdx {
					leaf := f.AddSwitch(fmt.Sprintf("leaf-%s%d", sn.Spec.Name, len(sn.Leaves)), ib.SwitchDelay)
					f.Connect(leaf, sn.Spine, t.LinkRate, ib.DefaultCableDelay)
					sn.Leaves = append(sn.Leaves, leaf)
				}
				f.Connect(n.HCA, sn.Leaves[leafIdx], t.LinkRate, ib.DefaultCableDelay)
			}
			sn.Nodes = append(sn.Nodes, n)
		}
	}
	f.UseEnv(env)
	f.Finalize()
	if t.Failover != nil {
		// A plan that only drops at random has no schedule: reactive detection.
		for i, lk := range t.Links {
			if lk.Fault != nil {
				f.MonitorLink(nw.links[i].Pair.Link(), nw.links[i].Name(), lk.Fault.DownEdges())
			}
		}
		if err := f.EnableFailover(*t.Failover); err != nil {
			return nil, err
		}
	}
	return nw, nil
}

// Sites returns the compiled sites in declaration order.
func (nw *Network) Sites() []*SiteNet { return nw.sites }

// Site returns the compiled site with the given name (nil if unknown).
func (nw *Network) Site(name string) *SiteNet { return nw.byName[name] }

// Links returns the compiled WAN links in declaration order.
func (nw *Network) Links() []*WANLink { return nw.links }

// Link returns the link directly joining sites a and b, or nil.
func (nw *Network) Link(a, b string) *WANLink {
	for _, l := range nw.links {
		if l.Joins(a, b) {
			return l
		}
	}
	return nil
}

// Nodes returns every node, sites in declaration order.
func (nw *Network) Nodes() []*Node {
	var out []*Node
	for _, s := range nw.sites {
		out = append(out, s.Nodes...)
	}
	return out
}

// BcastOrder returns the sites reachable from root in breadth-first order
// (root first; neighbors visited in link declaration order, so the order —
// and everything layered on it, like the hierarchical collectives' site
// trees — is a pure function of the spec) together with each site's BFS
// parent (absent for root).
func (nw *Network) BcastOrder(root string) (order []string, parent map[string]string) {
	parent = make(map[string]string, len(nw.sites))
	seen := map[string]bool{root: true}
	order = append(order, root)
	frontier := []string{root}
	for len(frontier) > 0 {
		var next []string
		for _, s := range frontier {
			for _, nb := range nw.adj[s] {
				if !seen[nb] {
					seen[nb] = true
					parent[nb] = s
					order = append(order, nb)
					next = append(next, nb)
				}
			}
		}
		frontier = next
	}
	return order, parent
}
