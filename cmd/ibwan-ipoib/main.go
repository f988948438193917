// Command ibwan-ipoib measures socket-stream throughput across the
// simulated IB WAN testbed, iperf-style, over TCP/IPoIB or SDP.
//
// Usage:
//
//	ibwan-ipoib [-mode ud|rc|sdp] [-mtu bytes] [-window bytes] [-streams n]
//	            [-delay us] [-ms virtual-milliseconds]
//
// Examples:
//
//	ibwan-ipoib -mode ud -delay 1000 -streams 8
//	ibwan-ipoib -mode rc -mtu 65532 -delay 100
//	ibwan-ipoib -mode sdp -delay 100
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/cluster"
	"repro/internal/ipoib"
	"repro/internal/sdp"
	"repro/internal/sim"
	"repro/internal/tcpsim"
)

func main() {
	mode := flag.String("mode", "ud", "transport: ud (IPoIB datagram), rc (IPoIB connected) or sdp")
	mtu := flag.Int("mtu", 0, "IP MTU (0 = mode default: 2044 for ud, 65532 for rc)")
	window := flag.Int("window", 0, "TCP window in bytes (0 = auto-tuned default)")
	streams := flag.Int("streams", 1, "parallel TCP connections")
	delay := flag.Float64("delay", 0, "one-way WAN delay in microseconds")
	ms := flag.Int("ms", 100, "measurement duration in virtual milliseconds")
	flag.Parse()

	env := sim.NewEnv()
	tb := cluster.New(env, cluster.Config{NodesA: 1, NodesB: 1, Delay: sim.Micros(*delay)})
	if *mode == "sdp" {
		runSDP(env, tb, *streams, *delay, *ms)
		return
	}
	m := ipoib.Datagram
	if *mode == "rc" {
		m = ipoib.Connected
	} else if *mode != "ud" {
		fmt.Fprintf(os.Stderr, "ibwan-ipoib: unknown mode %q\n", *mode)
		os.Exit(2)
	}
	net := ipoib.NewNetwork()
	da := net.Attach(tb.A[0].HCA, m, *mtu)
	db := net.Attach(tb.B[0].HCA, m, *mtu)
	sa := tcpsim.NewStack(da, tcpsim.Config{Window: *window})
	sb := tcpsim.NewStack(db, tcpsim.Config{Window: *window})

	dur := sim.Time(*ms)*sim.Millisecond + 60*sim.Micros(*delay)
	for i := 0; i < *streams; i++ {
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
	env.RunUntil(dur / 2)
	mid := sb.Stats().RxBytes
	env.RunUntil(dur)
	bw := float64(sb.Stats().RxBytes-mid) / (dur / 2).Seconds() / 1e6
	env.Shutdown()
	fmt.Printf("IPoIB-%s throughput: %d stream(s), window %d, MTU %d, delay %.0fus: %.1f MillionBytes/s\n",
		m, *streams, sa.Window(), da.MTU(), *delay, bw)
}

// runSDP measures SDP stream throughput on the same testbed.
func runSDP(env *sim.Env, tb *cluster.Testbed, streams int, delay float64, ms int) {
	dur := sim.Time(ms)*sim.Millisecond + 60*sim.Micros(delay)
	conns := make([]*sdp.Conn, 0, streams)
	for i := 0; i < streams; i++ {
		port := 5000 + i
		ln := sdp.Listen(tb.B[0], port)
		env.Go("srv", func(p *sim.Proc) { conns = append(conns, ln.Accept(p)) })
		env.Go("cli", func(p *sim.Proc) {
			c := sdp.Dial(p, tb.A[0], tb.B[0], port)
			for {
				c.WriteSynthetic(p, 1<<20)
			}
		})
	}
	env.RunUntil(dur / 2)
	var mid int64
	for _, c := range conns {
		mid += c.Delivered()
	}
	env.RunUntil(dur)
	var end int64
	for _, c := range conns {
		end += c.Delivered()
	}
	env.Shutdown()
	bw := float64(end-mid) / (dur / 2).Seconds() / 1e6
	fmt.Printf("SDP throughput: %d stream(s), delay %.0fus: %.1f MillionBytes/s\n", streams, delay, bw)
}
