// Multisite: build N-site WAN topologies from declarative specs and watch
// the hierarchical broadcast pay each WAN link exactly once. The paper's
// testbed is two clusters on one Longbow pair; this example runs its MPI
// layer on a 3-site star and a 4-site ring (where some site pairs are two
// WAN hops apart) and counts the bytes every Longbow link carries.
package main

import (
	"fmt"

	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/topo"
)

func main() {
	fmt.Println("ibwan multisite: star and ring site graphs, per-link WAN bytes")
	fmt.Println()

	const size = 256 << 10 // one 256 KB broadcast from rank 0

	for _, preset := range []string{"star3", "ring4"} {
		spec, err := topo.Preset(preset, 2, sim.Millisecond)
		must(err)
		fmt.Printf("%s: %d sites, %d WAN links, 1 ms per link\n",
			preset, len(spec.Sites), len(spec.Links))

		for _, hier := range []bool{false, true} {
			env := sim.NewEnv()
			nw, err := topo.Build(env, spec)
			must(err)
			w := mpi.NewWorld(env, nw.Nodes(), mpi.Config{})

			before := make([]int64, len(nw.Links()))
			for i, l := range nw.Links() {
				before[i] = l.Pair.Link().Counters().XmitData
			}
			fin := w.Run(func(r *mpi.Rank, p *sim.Proc) {
				if hier {
					r.HierBcast(p, 0, nil, size)
				} else {
					r.Bcast(p, 0, nil, size)
				}
			})

			name := "flat binomial"
			if hier {
				name = "hierarchical"
			}
			fmt.Printf("  %-14s %8.0f us", name, fin.Microseconds())
			for i, l := range nw.Links() {
				fmt.Printf("   %s=%dKB", l.Name(), (l.Pair.Link().Counters().XmitData-before[i])>>10)
			}
			fmt.Println()
			w.Shutdown()
		}
		fmt.Println()
	}
	fmt.Println("The hierarchical broadcast relays through per-site leaders")
	fmt.Println("along the site tree, so each WAN link carries the payload at")
	fmt.Println("most once (the ring's off-tree link carries nothing), while")
	fmt.Println("the flat tree re-crosses links once per remote child.")
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
