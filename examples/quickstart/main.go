// Quickstart: build the paper's cluster-of-clusters testbed — two
// InfiniBand clusters joined by a pair of Obsidian Longbow XR WAN
// extenders — at an emulated distance, and measure verbs-level latency
// and bandwidth across the WAN.
package main

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/ib"
	"repro/internal/perftest"
	"repro/internal/sim"
	"repro/internal/wan"
)

func main() {
	fmt.Println("ibwan quickstart: two clusters, one emulated WAN link")
	fmt.Println()

	for _, km := range []float64{0, 10, 200, 2000} {
		delay, err := wan.DelayForDistance(km)
		if err != nil {
			panic(err)
		}
		// A fresh simulation per measurement keeps runs independent; each
		// testbed is built at the distance's delay.
		testbed := func() (*sim.Env, *cluster.Testbed) {
			env := sim.NewEnv()
			return env, cluster.New(env, cluster.Config{NodesA: 2, NodesB: 2, Delay: delay})
		}

		env, tb := testbed()
		lat := perftest.SendLatency(env, tb.A[0].HCA, tb.B[0].HCA, ib.RC, 8, 100)

		env2, tb2 := testbed()
		bwSmall := perftest.BandwidthRC(env2, tb2.A[0].HCA, tb2.B[0].HCA, 64<<10, 256, 0)

		env3, tb3 := testbed()
		bwLarge := perftest.BandwidthRC(env3, tb3.A[0].HCA, tb3.B[0].HCA, 4<<20, 16, 0)

		fmt.Printf("distance %6.0f km (%v one-way):\n", km, tb.WAN.Delay())
		fmt.Printf("  RC 8B latency:        %8.2f us\n", lat.Microseconds())
		fmt.Printf("  RC 64KB bandwidth:    %8.1f MillionBytes/s\n", bwSmall)
		fmt.Printf("  RC 4MB bandwidth:     %8.1f MillionBytes/s\n", bwLarge)
		fmt.Println()
	}
	fmt.Println("Note how 64KB messages collapse with distance while 4MB")
	fmt.Println("messages hold the wire rate: RC's bounded in-flight window")
	fmt.Println("cannot cover the WAN bandwidth-delay product with small")
	fmt.Println("messages (paper Fig. 5).")
}
