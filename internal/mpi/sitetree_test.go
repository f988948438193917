package mpi

import (
	"math"
	"testing"

	"repro/internal/ib"
	"repro/internal/sim"
	"repro/internal/topo"
)

// presetWorld builds a world with one rank per node of the named preset.
func presetWorld(t *testing.T, preset string, nodesPerSite int, delay sim.Time) (*World, *topo.Network) {
	t.Helper()
	env := sim.NewEnv()
	spec, err := topo.Preset(preset, nodesPerSite, delay)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := topo.Build(env, spec)
	if err != nil {
		t.Fatal(err)
	}
	return NewWorld(env, nw.Nodes(), Config{}), nw
}

// TestHierBcastCrossesEachLinkOnce is the N-site generalization of
// TestHierBcastCrossesWANOnce: on a star the payload must cross every WAN
// link exactly once; on a ring it must cross each BFS-tree link once and
// the off-tree link not at all.
func TestHierBcastCrossesEachLinkOnce(t *testing.T) {
	const size = 100 << 10
	// Per-link bytes for one HierBcast from rank 0.
	linkBytes := func(preset string) map[string]int64 {
		w, nw := presetWorld(t, preset, 2, sim.Micros(100))
		defer w.Shutdown()
		before := make([]int64, len(nw.Links()))
		for i, l := range nw.Links() {
			before[i] = l.Pair.Link().Counters().XmitData
		}
		w.Run(func(r *Rank, p *sim.Proc) {
			r.HierBcast(p, 0, nil, size)
		})
		out := make(map[string]int64, len(nw.Links()))
		for i, l := range nw.Links() {
			out[l.Name()] = l.Pair.Link().Counters().XmitData - before[i]
		}
		return out
	}
	// One crossing of a 100 KB payload plus packet/ack overhead.
	const lo, hi = size, size + 30000
	for name, b := range linkBytes("star3") {
		if b < lo || b > hi {
			t.Errorf("star3 %s carried %d bytes, want one crossing in [%d, %d]", name, b, lo, hi)
		}
	}
	ring := linkBytes("ring4")
	// BFS from r0 visits r1 and r3 directly and r2 through r1; the r2-r3
	// link is off the tree and must stay silent.
	for _, name := range []string{"longbow[r0:r1]", "longbow[r1:r2]", "longbow[r3:r0]"} {
		if b := ring[name]; b < lo || b > hi {
			t.Errorf("ring4 %s carried %d bytes, want one crossing in [%d, %d]", name, b, lo, hi)
		}
	}
	if b := ring["longbow[r2:r3]"]; b != 0 {
		t.Errorf("ring4 off-tree link carried %d bytes, want 0", b)
	}
}

// TestHierBcastDeliversMultisite checks payload delivery on a ring: every
// rank — including those two WAN hops from the root — receives the root's
// bytes.
func TestHierBcastDeliversMultisite(t *testing.T) {
	w, _ := presetWorld(t, "ring4", 2, sim.Micros(10))
	defer w.Shutdown()
	msg := []byte("multi-hop payload")
	bad := false
	w.Run(func(r *Rank, p *sim.Proc) {
		var got []byte
		if r.ID() == 0 {
			got = r.HierBcast(p, 0, msg, 0)
		} else {
			got = r.HierBcast(p, 0, make([]byte, 64), 0)
		}
		if string(got) != string(msg) {
			bad = true
		}
	})
	if bad {
		t.Error("a rank received the wrong payload")
	}
}

// TestHierAllreduceMultisite checks numerical correctness of the site-tree
// allreduce on 3- and 4-site topologies.
func TestHierAllreduceMultisite(t *testing.T) {
	for _, preset := range []string{"star3", "ring4", "mesh4"} {
		w, _ := presetWorld(t, preset, 2, sim.Micros(100))
		n := w.Size()
		vecLen := 4
		want := make([]float64, vecLen)
		for i := 0; i < n; i++ {
			for j := 0; j < vecLen; j++ {
				want[j] += float64(i*100 + j)
			}
		}
		ok := true
		w.Run(func(r *Rank, p *sim.Proc) {
			vals := make([]float64, vecLen)
			for j := range vals {
				vals[j] = float64(r.ID()*100 + j)
			}
			got := r.HierAllreduce(p, vals)
			for j := range got {
				if math.Abs(got[j]-want[j]) > 1e-9 {
					ok = false
				}
			}
		})
		if !ok {
			t.Errorf("%s: HierAllreduce mismatch", preset)
		}
		w.Shutdown()
	}
}

// TestSiteTreeFallbackStar checks the path for ranks assembled outside the
// topology layer: with no Network to consult, every non-root site hangs
// off the root site directly, and the collectives still work.
func TestSiteTreeFallbackStar(t *testing.T) {
	env := sim.NewEnv()
	defer env.Shutdown()
	f := ib.NewFabric(env)
	sw := f.AddSwitch("sw", ib.SwitchDelay)
	var nodes []*topo.Node
	for i, site := range []string{"x", "y", "z", "x", "y", "z"} {
		n := &topo.Node{Name: site, CPU: sim.NewResource(env, 2), Cluster: site}
		n.HCA = f.AddHCA(n.Name + string(rune('0'+i)))
		f.Connect(n.HCA, sw, ib.DDR, ib.DefaultCableDelay)
		nodes = append(nodes, n)
	}
	f.Finalize()
	w := NewWorld(env, nodes, Config{})
	defer w.Shutdown()
	want := 0
	for i := range nodes {
		want += i
	}
	ok := true
	w.Run(func(r *Rank, p *sim.Proc) {
		got := r.HierAllreduce(p, []float64{float64(r.ID())})
		if got[0] != float64(want) {
			ok = false
		}
		r.HierBcast(p, 0, nil, 4<<10)
	})
	if !ok {
		t.Error("fallback-star HierAllreduce mismatch")
	}
	st := w.siteTree("x")
	if len(st.order) != 3 || st.order[0] != "x" {
		t.Errorf("fallback site order = %v, want x first of 3", st.order)
	}
	for _, s := range []string{"y", "z"} {
		if st.parent[s] != "x" {
			t.Errorf("fallback parent[%s] = %q, want x", s, st.parent[s])
		}
	}
}
