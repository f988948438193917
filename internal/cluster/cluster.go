// Package cluster builds the paper's experimental testbed (Fig. 2),
// topo.Paper, in the two-cluster shape the benchmark and the quickstart
// example use: cluster A's nodes, cluster B's nodes and the Longbow pair
// between them. It is a shim over internal/topo, which defines the spec and
// decides whether the world shards; new code should use topo directly.
package cluster

import (
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/wan"
)

// Node is one compute node. It is the topology layer's node type; the
// Cluster field carries the site name ("A" or "B" here).
type Node = topo.Node

// Config sizes the testbed. Zero node counts select the paper's 32 and 6.
type Config struct {
	NodesA, NodesB int
	// Delay is the one-way WAN delay.
	Delay sim.Time
}

// Testbed is the assembled cluster-of-clusters.
type Testbed struct {
	A, B []*Node
	WAN  *wan.Pair
}

// New assembles the testbed on the given environment.
func New(env *sim.Env, cfg Config) *Testbed {
	nw, err := topo.Build(env, topo.Paper(cfg.NodesA, cfg.NodesB, cfg.Delay))
	if err != nil {
		// Only reachable through a malformed Config (e.g. negative node
		// count); the zero Config is always valid.
		panic(err)
	}
	return &Testbed{A: nw.Site("A").Nodes, B: nw.Site("B").Nodes, WAN: nw.Links()[0].Pair}
}

// Nodes returns all nodes, cluster A first.
func (t *Testbed) Nodes() []*Node {
	out := make([]*Node, 0, len(t.A)+len(t.B))
	out = append(out, t.A...)
	out = append(out, t.B...)
	return out
}

// PaperDelays are the WAN delays the paper sweeps (Table 1 and all
// figures): 0 (LAN-like), 10 us, 100 us, 1 ms and 10 ms one-way.
func PaperDelays() []sim.Time {
	return []sim.Time{0, sim.Micros(10), sim.Micros(100), sim.Micros(1000), sim.Micros(10000)}
}
