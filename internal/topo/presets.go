package topo

import (
	"fmt"

	"repro/internal/sim"
)

// Paper returns the paper's testbed (Fig. 2), the one definition of its
// spec: cluster A of nodesA dual-processor nodes (2 cores) and cluster B of
// nodesB dual quad-core nodes (8 cores), joined by one Longbow pair of the
// given one-way delay. A zero node count selects the paper's 32 or 6.
func Paper(nodesA, nodesB int, delay sim.Time) Topology {
	if nodesA == 0 {
		nodesA = 32
	}
	if nodesB == 0 {
		nodesB = 6
	}
	return Topology{
		Sites: []Site{
			{Name: "A", Nodes: nodesA, Cores: 2},
			{Name: "B", Nodes: nodesB, Cores: 8},
		},
		Links: []Link{{A: "A", B: "B", Delay: delay}},
	}
}

// presetNames lists the built-in topology presets in display order.
var presetNames = []string{"paper", "star3", "star3-hetero", "ring4", "mesh4"}

// PresetNames returns the names Preset accepts, in display order.
func PresetNames() []string {
	out := make([]string, len(presetNames))
	copy(out, presetNames)
	return out
}

// Preset returns a named built-in topology. nodesPerSite sizes every site
// except the paper preset's fixed 32/6 split (pass 0 for defaults: the
// paper sizes, or 4 nodes per site elsewhere); delay is applied to every
// link.
//
//	paper          the two-site testbed of Fig. 2 (A: 32x2-core, B: 6x8-core)
//	star3          hub + two satellite sites, all traffic through the hub
//	star3-hetero   hub + three satellites with heterogeneous link delays:
//	               hub–s1 at the base delay (a metro hop), hub–s2 and
//	               hub–s3 at 10x (transcontinental hops)
//	ring4          four sites in a cycle, two disjoint paths between any pair
//	mesh4          four sites, a dedicated link between every pair
//
// star3 sites use LeafRadix 2, exercising the two-level fat tree under
// multi-site experiments. star3-hetero is the channel-clock scheduler's
// stress shape: under a global minimum lookahead the short metro link
// would force its 1x windows on the 10x links' shards; per-channel bounds
// let each shard's horizon follow its own incoming links.
func Preset(name string, nodesPerSite int, delay sim.Time) (Topology, error) {
	n := nodesPerSite
	switch name {
	case "paper":
		n = max(n, 0)
		return Paper(n, n, delay), nil
	case "star3":
		if n <= 0 {
			n = 4
		}
		return Topology{
			Sites: []Site{
				{Name: "hub", Nodes: n, LeafRadix: 2},
				{Name: "s1", Nodes: n, LeafRadix: 2},
				{Name: "s2", Nodes: n, LeafRadix: 2},
			},
			Links: []Link{
				{A: "hub", B: "s1", Delay: delay},
				{A: "hub", B: "s2", Delay: delay},
			},
		}, nil
	case "star3-hetero":
		if n <= 0 {
			n = 4
		}
		return Topology{
			Sites: []Site{
				{Name: "hub", Nodes: n, LeafRadix: 2},
				{Name: "s1", Nodes: n, LeafRadix: 2},
				{Name: "s2", Nodes: n, LeafRadix: 2},
				{Name: "s3", Nodes: n, LeafRadix: 2},
			},
			Links: []Link{
				{A: "hub", B: "s1", Delay: delay},
				{A: "hub", B: "s2", Delay: 10 * delay},
				{A: "hub", B: "s3", Delay: 10 * delay},
			},
		}, nil
	case "ring4":
		if n <= 0 {
			n = 4
		}
		return Topology{
			Sites: []Site{
				{Name: "r0", Nodes: n},
				{Name: "r1", Nodes: n},
				{Name: "r2", Nodes: n},
				{Name: "r3", Nodes: n},
			},
			Links: []Link{
				{A: "r0", B: "r1", Delay: delay},
				{A: "r1", B: "r2", Delay: delay},
				{A: "r2", B: "r3", Delay: delay},
				{A: "r3", B: "r0", Delay: delay},
			},
		}, nil
	case "mesh4":
		if n <= 0 {
			n = 4
		}
		return Topology{
			Sites: []Site{
				{Name: "m0", Nodes: n},
				{Name: "m1", Nodes: n},
				{Name: "m2", Nodes: n},
				{Name: "m3", Nodes: n},
			},
			Links: []Link{
				{A: "m0", B: "m1", Delay: delay},
				{A: "m0", B: "m2", Delay: delay},
				{A: "m0", B: "m3", Delay: delay},
				{A: "m1", B: "m2", Delay: delay},
				{A: "m1", B: "m3", Delay: delay},
				{A: "m2", B: "m3", Delay: delay},
			},
		}, nil
	default:
		return Topology{}, fmt.Errorf("topo: unknown preset %q (have %v)", name, presetNames)
	}
}
