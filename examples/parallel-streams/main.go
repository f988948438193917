// Parallel streams: the paper's simplest WAN optimization. A single TCP
// stream over IPoIB is limited to window/RTT once the link gets long;
// multiple streams, each with its own window, fill the pipe again
// (paper Figs. 6(b) and 7(b)).
package main

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/ipoib"
	"repro/internal/sim"
	"repro/internal/tcpsim"
)

func throughput(streams int, delay sim.Time) float64 {
	env := sim.NewEnv()
	tb := cluster.New(env, cluster.Config{NodesA: 1, NodesB: 1, Delay: delay})
	net := ipoib.NewNetwork()
	sa := tcpsim.NewStack(net.Attach(tb.A[0].HCA, ipoib.Datagram, 0), tcpsim.Config{})
	sb := tcpsim.NewStack(net.Attach(tb.B[0].HCA, ipoib.Datagram, 0), tcpsim.Config{})
	for i := 0; i < streams; i++ {
		port := 5000 + i
		ln := sb.Listen(port)
		sb.Env().Go("srv", func(p *sim.Proc) { ln.Accept(p) })
		sa.Env().Go("cli", func(p *sim.Proc) {
			c, err := sa.Dial(p, sb.Addr(), port)
			if err != nil {
				panic(err)
			}
			for {
				if err := c.WriteSynthetic(p, 2<<20); err != nil {
					panic(err)
				}
			}
		})
	}
	dur := 60*sim.Millisecond + 60*delay
	env.RunUntil(dur / 2)
	mid := sb.Stats().RxBytes
	env.RunUntil(dur)
	bw := float64(sb.Stats().RxBytes-mid) / (dur / 2).Seconds() / 1e6
	env.Shutdown()
	return bw
}

func main() {
	fmt.Println("IPoIB-UD throughput vs parallel TCP streams (MillionBytes/s)")
	fmt.Println()
	fmt.Printf("%-10s", "streams")
	delays := []sim.Time{0, sim.Micros(100), sim.Micros(1000), sim.Micros(10000)}
	for _, d := range delays {
		fmt.Printf("%12s", d.String())
	}
	fmt.Println()
	for _, n := range []int{1, 2, 4, 8} {
		fmt.Printf("%-10d", n)
		for _, d := range delays {
			fmt.Printf("%12.1f", throughput(n, d))
		}
		fmt.Println()
	}
	fmt.Println()
	fmt.Println("At zero delay the host stack is the ceiling and extra streams")
	fmt.Println("add nothing; at 1-10 ms each stream is window-limited and the")
	fmt.Println("aggregate grows nearly linearly until the stack ceiling returns.")
}
