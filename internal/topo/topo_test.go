package topo

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/ib"
	"repro/internal/perftest"
	"repro/internal/sim"
)

func twoSites() Topology {
	return Topology{
		Sites: []Site{{Name: "A", Nodes: 1}, {Name: "B", Nodes: 1}},
		Links: []Link{{A: "A", B: "B"}},
	}
}

func TestValidateRejectsMalformedSpecs(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Topology)
		want string
	}{
		{"no sites", func(tp *Topology) { tp.Sites = nil }, "no sites"},
		{"empty name", func(tp *Topology) { tp.Sites[0].Name = "" }, "no name"},
		{"dup site", func(tp *Topology) { tp.Sites[1].Name = "A" }, "duplicate site"},
		{"zero nodes", func(tp *Topology) { tp.Sites[0].Nodes = 0 }, "nodes"},
		{"negative radix", func(tp *Topology) { tp.Sites[0].LeafRadix = -1 }, "leaf radix"},
		{"unknown site", func(tp *Topology) { tp.Links[0].B = "C" }, "unknown site"},
		{"self link", func(tp *Topology) { tp.Links[0].B = "A" }, "to itself"},
		{"dup link", func(tp *Topology) {
			tp.Links = append(tp.Links, Link{A: "B", B: "A"})
		}, "duplicate link"},
		{"negative delay", func(tp *Topology) { tp.Links[0].Delay = -1 }, "negative delay"},
		{"disconnected", func(tp *Topology) {
			tp.Sites = append(tp.Sites, Site{Name: "C", Nodes: 1})
		}, "unreachable"},
		{"bad fault plan", func(tp *Topology) {
			tp.Links[0].Fault = &fault.Plan{WANLoss: 2}
		}, "fault plan"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tp := twoSites()
			c.mut(&tp)
			err := tp.fill().Validate()
			if err == nil {
				t.Fatalf("Validate accepted a spec with %s", c.name)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not mention %q", err, c.want)
			}
		})
	}
	if err := twoSites().fill().Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
}

func TestBuildShape(t *testing.T) {
	env := sim.NewEnv()
	defer env.Shutdown()
	nw, err := Build(env, Topology{
		Sites: []Site{
			{Name: "hub", Nodes: 4, LeafRadix: 2},
			{Name: "s1", Nodes: 2},
			{Name: "s2", Nodes: 3, Cores: 8},
		},
		Links: []Link{
			{A: "hub", B: "s1", Delay: sim.Micros(100)},
			{A: "hub", B: "s2", Delay: sim.Micros(200)},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(nw.Sites()); got != 3 {
		t.Fatalf("sites = %d, want 3", got)
	}
	if got := len(nw.Links()); got != 2 {
		t.Fatalf("links = %d, want 2", got)
	}
	if got := len(nw.Nodes()); got != 9 {
		t.Fatalf("nodes = %d, want 9", got)
	}
	hub := nw.Site("hub")
	if len(hub.Leaves) != 2 {
		t.Errorf("hub leaves = %d, want 2 (4 nodes at radix 2)", len(hub.Leaves))
	}
	if name := hub.Nodes[0].Name; name != "hub00" {
		t.Errorf("first hub node named %q, want hub00", name)
	}
	if site := hub.Nodes[0].Site(); site != "hub" {
		t.Errorf("node site = %q, want hub", site)
	}
	if hub.Nodes[0].Net() != nw {
		t.Error("node does not point back at its network")
	}
	// Multi-link topologies qualify Longbow names with the site pair.
	if name := nw.Links()[0].Name(); name != "longbow[hub:s1]" {
		t.Errorf("link 0 named %q, want longbow[hub:s1]", name)
	}
	if l := nw.Link("s1", "hub"); l != nw.Links()[0] {
		t.Error("Link lookup is not order-insensitive")
	}
	if l := nw.Link("s1", "s2"); l != nil {
		t.Error("Link invented a nonexistent s1-s2 link")
	}
	if d := nw.Links()[1].Pair.Delay(); d != sim.Micros(200) {
		t.Errorf("link 1 delay = %v, want 200us", d)
	}
}

func TestSingleLinkKeepsPaperNames(t *testing.T) {
	env := sim.NewEnv()
	defer env.Shutdown()
	nw, err := Build(env, twoSites())
	if err != nil {
		t.Fatal(err)
	}
	// The degenerate two-site case must keep the classic device names —
	// the golden-output byte identity of the compatibility path rides on
	// this.
	if name := nw.Links()[0].Name(); name != "longbow" {
		t.Errorf("single link named %q, want longbow", name)
	}
	if n := nw.Links()[0].Pair.A.Name(); n != "longbow-A" {
		t.Errorf("Longbow end named %q, want longbow-A", n)
	}
}

// TestFatTreeTopology builds the paper's two sites as two-level fat trees
// of leaf radix 3: ceil(8/3) = 3 leaves in A and ceil(4/3) = 2 in B,
// same-leaf traffic faster than cross-leaf traffic (two extra switch hops
// through the spine), and cross-site traffic through leaves, spines and the
// WAN.
func TestFatTreeTopology(t *testing.T) {
	env := sim.NewEnv()
	defer env.Shutdown()
	nw, err := Build(env, Topology{
		Sites: []Site{{Name: "A", Nodes: 8, LeafRadix: 3}, {Name: "B", Nodes: 4, LeafRadix: 3}},
		Links: []Link{{A: "A", B: "B"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	a, b := nw.Site("A"), nw.Site("B")
	if len(a.Leaves) != 3 || len(b.Leaves) != 2 {
		t.Fatalf("leaves = %d/%d, want 3/2", len(a.Leaves), len(b.Leaves))
	}
	ping := func(x, y *Node) sim.Time { return perftest.PingRC(env, x.HCA, y.HCA, 8, 1, ib.QPConfig{}) }
	sameLeaf := ping(a.Nodes[0], a.Nodes[1])  // both on leaf 0
	crossLeaf := ping(a.Nodes[0], a.Nodes[3]) // leaf 0 -> leaf 1
	if crossLeaf <= sameLeaf {
		t.Errorf("cross-leaf latency (%v) not above same-leaf (%v)", crossLeaf, sameLeaf)
	}
	if lat := ping(a.Nodes[7], b.Nodes[3]); lat <= crossLeaf {
		t.Errorf("cross-site latency (%v) not above cross-leaf (%v)", lat, crossLeaf)
	}
}

func TestPresetsBuild(t *testing.T) {
	for _, name := range PresetNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			spec, err := Preset(name, 2, sim.Micros(10))
			if err != nil {
				t.Fatal(err)
			}
			env := sim.NewEnv()
			defer env.Shutdown()
			nw, err := Build(env, spec)
			if err != nil {
				t.Fatal(err)
			}
			// Every preset must route end to end between any site pair.
			a := nw.Sites()[0].Nodes[0].HCA
			b := nw.Sites()[len(nw.Sites())-1].Nodes[0].HCA
			lat := perftest.PingRC(env, a, b, 8, 4, ib.QPConfig{})
			if lat <= 0 {
				t.Errorf("ping latency = %v", lat)
			}
		})
	}
	if _, err := Preset("nope", 0, 0); err == nil {
		t.Error("unknown preset accepted")
	}
}

func TestBcastOrderRing(t *testing.T) {
	env := sim.NewEnv()
	defer env.Shutdown()
	spec, err := Preset("ring4", 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := Build(env, spec)
	if err != nil {
		t.Fatal(err)
	}
	order, parent := nw.BcastOrder("r0")
	want := []string{"r0", "r1", "r3", "r2"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Errorf("BcastOrder(r0) = %v, want %v", order, want)
	}
	wantParent := map[string]string{"r1": "r0", "r3": "r0", "r2": "r1"}
	for s, p := range wantParent {
		if parent[s] != p {
			t.Errorf("parent[%s] = %q, want %q", s, parent[s], p)
		}
	}
}

// TestMultiHopRouting pins that packets between non-adjacent ring sites
// route through an intermediate site: the one-way r0-r2 path pays two WAN
// link delays, the r0-r1 path one.
func TestMultiHopRouting(t *testing.T) {
	d := sim.Millisecond
	lat := func(from, to string) sim.Time {
		env := sim.NewEnv()
		defer env.Shutdown()
		spec, err := Preset("ring4", 1, d)
		if err != nil {
			t.Fatal(err)
		}
		nw, err := Build(env, spec)
		if err != nil {
			t.Fatal(err)
		}
		return perftest.PingRC(env, nw.Site(from).Nodes[0].HCA, nw.Site(to).Nodes[0].HCA, 8, 4, ib.QPConfig{})
	}
	oneHop := lat("r0", "r1")
	twoHop := lat("r0", "r2")
	extra := twoHop - oneHop
	// One extra WAN hop on the one-way path: ~d more.
	if extra < d-sim.Micros(100) || extra > d+sim.Micros(100) {
		t.Errorf("two-hop latency %v vs one-hop %v: extra %v, want ~%v", twoHop, oneHop, extra, d)
	}
}

// TestPerLinkFault pins per-link fault isolation: a WANDown plan on one
// star link kills traffic crossing it while the sibling link keeps
// working.
func TestPerLinkFault(t *testing.T) {
	env := sim.NewEnv()
	defer env.Shutdown()
	spec, err := Preset("star3", 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	spec.Links[0].Fault = &fault.Plan{WANDown: true} // hub-s1 dead
	nw, err := Build(env, spec)
	if err != nil {
		t.Fatal(err)
	}
	hub := nw.Site("hub").Nodes[0].HCA
	qcfg := ib.QPConfig{RetryLimit: 4, RetryTimeout: sim.Millisecond}
	// The healthy link still carries traffic.
	if lat := perftest.PingRC(env, hub, nw.Site("s2").Nodes[0].HCA, 8, 2, qcfg); lat <= 0 {
		t.Errorf("healthy link latency = %v", lat)
	}
	// The dead link fails with retry exhaustion (PingRC panics on
	// completion errors).
	func() {
		defer func() {
			if recover() == nil {
				t.Error("ping across the dead link succeeded")
			}
		}()
		perftest.PingRC(env, hub, nw.Site("s1").Nodes[0].HCA, 8, 2, qcfg)
	}()
}

// TestWithDelayWithNodes pins the copy-on-write sweep helpers.
func TestWithDelayWithNodes(t *testing.T) {
	base, err := Preset("ring4", 4, sim.Micros(10))
	if err != nil {
		t.Fatal(err)
	}
	mod := base.WithDelay(sim.Millisecond).WithNodes(2)
	for i, l := range mod.Links {
		if l.Delay != sim.Millisecond {
			t.Errorf("link %d delay = %v", i, l.Delay)
		}
	}
	for i, s := range mod.Sites {
		if s.Nodes != 2 {
			t.Errorf("site %d nodes = %d", i, s.Nodes)
		}
	}
	// The originals must be untouched.
	if base.Links[0].Delay != sim.Micros(10) || base.Sites[0].Nodes != 4 {
		t.Error("WithDelay/WithNodes mutated the receiver")
	}
}

// TestFailoverBlamesOnlyFaultyLink runs total loss on ring4's r0-r1 link
// alone (a run-wide plan restricted to it) with failover on. An RC stream
// r0→r2 first routes r0-r1-r2, so its timeouts walk both links; only r0-r1
// has a plan, so only it is monitored and declared dead, and the stream
// completes over r0-r3-r2.
func TestFailoverBlamesOnlyFaultyLink(t *testing.T) {
	env := sim.NewEnv()
	defer env.Shutdown()
	if err := fault.AttachPlan(env, &fault.Plan{Link: "r0-r1", WANLoss: 1}); err != nil {
		t.Fatal(err)
	}
	spec, err := Preset("ring4", 1, 100*sim.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	spec.Failover = &ib.HealthConfig{}
	nw, err := Build(env, spec)
	if err != nil {
		t.Fatal(err)
	}
	qcfg := ib.QPConfig{RetryLimit: 30, RetryTimeout: sim.Millisecond}
	if bw := perftest.StreamRC(env, nw.Site("r0").Nodes[0].HCA, nw.Site("r2").Nodes[0].HCA, 4096, 16, qcfg); bw <= 0 {
		t.Fatalf("stream goodput = %v", bw)
	}
	if got := nw.Fabric.HealthTransitions(); got != 1 {
		t.Errorf("HealthTransitions = %d, want 1 (r0-r1 only)", got)
	}
	if got := nw.Link("r0", "r3").Pair.Link().TxTotal(); got == 0 {
		t.Error("the stream did not reroute over r0-r3")
	}
}
