package core

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/ipoib"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tcpsim"
	"repro/internal/topo"
	"repro/internal/wan"
)

// The congest-* family bounds the WAN links' egress queues (ib.QueueConfig
// via the topo layer) and lets congestion emerge from traffic instead of
// being injected by a fault plan: parallel IPoIB-UD TCP streams between the
// first two sites overload a deliberately narrowed long-haul hop, and the
// resulting marks, drops and credit stalls come entirely from queue
// occupancy. The paper's parallel-stream recovery (Figs. 6b/7b) reappears
// here with a cause the two-site testbed could not express — streams
// contending for one bounded bottleneck rather than each filling a private
// window.
//
// Every knob is chosen so the effect is visible even in -quick worlds: the
// links are slowed to congestRate so that a single default-window stream is
// window-limited below the pipe while two or more streams exceed it, and
// the delay is large enough that the bandwidth-delay product dwarfs the
// minimum queue bound. All queue state is shard-local (admission and drain
// run on the transmitting port's shard), so every experiment here runs
// byte-identical on sharded worlds.

const (
	// congestDelay is the family's one-way WAN delay: long enough that the
	// 768 KB default window limits a single stream well below the narrowed
	// pipe (768 KB / ~4.1 ms RTT = ~187 MB/s).
	congestDelay = 2 * sim.Millisecond
	// congestRate narrows the long-haul hop so aggregate demand from two or
	// more default-window streams exceeds it — the contention the bounded
	// queues turn into marks and drops. SDR (1000 MB/s) would never
	// congest: the per-interface host-processing ceiling binds first.
	congestRate = 250e6
	// congestStreamCount is the fixed stream count for the queue-bound
	// sweep: enough aggregate window to overload every swept bound.
	congestStreamCount = 4
)

// congestSeriesSpec is one series of a congest table: a queue configuration
// applied to every WAN link.
type congestSeriesSpec struct {
	name     string
	frac     float64 // queue bound as a fraction of the link BDP; 0 = unbounded
	ecn      bool
	lossless bool
}

// congestStreamSeries are the three transmit-path disciplines compared by
// congest-streams: the seed model's unbounded FIFO, a BDP-sized tail-drop
// queue, and the same queue with ECN marking.
var congestStreamSeries = []congestSeriesSpec{
	{name: "unbounded"},
	{name: "taildrop-bdp", frac: 1},
	{name: "ecn-bdp", frac: 1, ecn: true},
}

// congestNet builds the preset topology with every WAN link narrowed to
// congestRate and, when frac > 0, bounded at frac of its own
// bandwidth-delay product with the given marking/backpressure discipline.
func congestNet(m *Meter, opt Options, sc congestSeriesSpec) *topo.Network {
	spec := opt.preset(congestDelay)
	links := make([]topo.Link, len(spec.Links))
	copy(links, spec.Links)
	for i := range links {
		links[i].Rate = congestRate
		if sc.frac > 0 {
			links[i].QueueBytes = int(sc.frac * float64(wan.BDPQueueBytes(congestRate, links[i].Delay)))
			links[i].ECN = sc.ecn
			links[i].Lossless = sc.lossless
		}
	}
	spec.Links = links
	nw, err := topo.Build(m.NewEnv(), spec)
	m.Check(err)
	return nw
}

// congestLedgers cross-checks the drop accounting after a fault-free
// congest point: every loss must come from queue overflow, never from the
// injected-fault ledger, and disciplines that cannot drop or stall must not
// have. Under a run-wide chaos plan (the chaos matrix runs every experiment
// with one) injected losses are expected, so only the discipline invariants
// that still hold are checked.
func congestLedgers(nw *topo.Network, sc congestSeriesSpec) error {
	faultFree := true
	if pl := fault.PlanFromEnv(nw.Env); pl != nil && pl.Enabled() {
		faultFree = false
	}
	for _, l := range nw.Links() {
		lk := l.Pair.Link()
		if faultFree {
			if d := lk.Drops(); d != 0 {
				return fmt.Errorf("congest: link %s counts %d injected drops in a fault-free run", l.Name(), d)
			}
		}
		if sc.frac == 0 {
			if d, m := lk.OverflowDrops(), lk.ECNMarks(); d != 0 || m != 0 {
				return fmt.Errorf("congest: unbounded link %s counts %d overflow drops, %d marks", l.Name(), d, m)
			}
		}
		if sc.lossless {
			if d := lk.OverflowDrops(); d != 0 {
				return fmt.Errorf("congest: lossless link %s counts %d overflow drops", l.Name(), d)
			}
		} else if s := lk.CreditStalls(); s != 0 {
			return fmt.Errorf("congest: lossy link %s counts %d credit stalls", l.Name(), s)
		}
	}
	return nil
}

// congestTCP runs streams one-way IPoIB-UD TCP flows from the first site to
// the second for dur and returns aggregate steady-state goodput over the
// second half in MillionBytes/s. Flows round-robin over the sites' nodes
// (sharing each interface's serialized stack contexts, as parallel streams
// on one host do); goodput is the receivers' in-order delivered bytes, so
// go-back-N duplicate arrivals under tail drop never inflate the number.
//
// Every per-flow process runs on its own stack's environment — the shard
// that owns the events it waits on — so the world may shard.
func congestTCP(nw *topo.Network, ecn bool, streams int, dur sim.Time) (float64, error) {
	siteA, siteB := nw.Sites()[0], nw.Sites()[1]
	net := ipoib.NewNetwork()
	cfg := tcpsim.Config{ECN: ecn}
	nstacks := streams
	if n := len(siteA.Nodes); nstacks > n {
		nstacks = n
	}
	if n := len(siteB.Nodes); nstacks > n {
		nstacks = n
	}
	sas := make([]*tcpsim.Stack, nstacks)
	sbs := make([]*tcpsim.Stack, nstacks)
	for i := 0; i < nstacks; i++ {
		sas[i] = tcpsim.NewStack(net.Attach(siteA.Nodes[i].HCA, ipoib.Datagram, 0), cfg)
		sbs[i] = tcpsim.NewStack(net.Attach(siteB.Nodes[i].HCA, ipoib.Datagram, 0), cfg)
	}
	// Per-flow slots, each written by exactly one process on one shard.
	conns := make([]*tcpsim.Conn, streams)
	errs := make([]error, streams)
	for i := 0; i < streams; i++ {
		sa, sb := sas[i%nstacks], sbs[i%nstacks]
		port := 6000 + i
		ln := sb.Listen(port)
		sb.Env().Go(fmt.Sprintf("congest-srv-%d", i), func(p *sim.Proc) {
			c, err := ln.Accept(p)
			if err != nil {
				errs[i] = err
				return
			}
			conns[i] = c
		})
		sa.Env().Go(fmt.Sprintf("congest-cli-%d", i), func(p *sim.Proc) {
			c, err := sa.Dial(p, sb.Addr(), port)
			if err != nil {
				errs[i] = err
				return
			}
			for {
				// The paper sends 2 MB application messages.
				if err := c.WriteSynthetic(p, 2<<20); err != nil {
					errs[i] = err
					return
				}
			}
		})
	}
	delivered := func() int64 {
		var n int64
		for _, c := range conns {
			if c != nil {
				n += c.Delivered()
			}
		}
		return n
	}
	// The chaos matrix kills links under congest too: this surfaces
	// what a dead WAN did to the flows.
	return secondHalfRate(nw.Env, dur, delivered, func() error { return firstOf(errs...) })
}

// congestDur is the family's per-point measurement window. AIMD needs tens
// of round trips to settle into its sawtooth — and a standing queue doubles
// the effective RTT — so the window is floored well above the quick-mode
// default: the first half absorbs slow start and the synchronized first
// congestion event, the measured second half is steady state.
func congestDur(opt Options) sim.Time {
	ms := opt.TCPMillis
	if ms < 600 {
		ms = 600
	}
	return sim.Time(ms)*sim.Millisecond + 60*congestDelay
}

// congestStreams reproduces the paper's parallel-stream recovery with the
// congestion emerging from a bounded queue: one default-window stream is
// window-limited below the narrowed pipe, and added streams recover the gap
// while the tail-drop and ECN disciplines keep the queue bounded — every
// mark and drop coming from occupancy, with the injected-fault ledger
// reading zero.
func congestStreams(opt Options) *Plan {
	t := stats.NewTable(multisiteTitle(opt, "IPoIB-UD aggregate goodput vs parallel streams, bounded WAN queue"),
		"Parallel Streams", "Goodput (MillionBytes/s)")
	pl := &Plan{Tables: []*stats.Table{t}}
	streams := []int{1, 2, 4, 8}
	if opt.Quick {
		streams = []int{1, 4}
	}
	for _, sc := range congestStreamSeries {
		s := t.AddSeries(sc.name)
		for _, n := range streams {
			label := fmt.Sprintf("congest-streams/%s/%s/%d", opt.Topo, sc.name, n)
			pl.point(s, float64(n), label, func(m *Meter) float64 {
				nw := congestNet(m, opt, sc)
				bw, err := congestTCP(nw, sc.ecn, n, congestDur(opt))
				m.Check(err)
				m.Check(congestLedgers(nw, sc))
				return bw
			})
		}
	}
	return pl
}

// congestQueue sweeps the queue bound at a fixed stream count, comparing
// the three bounded disciplines: tail drop loses throughput to go-back-N
// recovery as the bound shrinks, ECN backs the senders off without loss,
// and lossless credit stalls trade drops for head-of-line blocking on the
// stalled port.
func congestQueue(opt Options) *Plan {
	t := stats.NewTable(multisiteTitle(opt,
		fmt.Sprintf("IPoIB-UD aggregate goodput vs queue bound, %d streams", congestStreamCount)),
		"Queue Bound (fraction of BDP)", "Goodput (MillionBytes/s)")
	pl := &Plan{Tables: []*stats.Table{t}}
	fracs := []float64{0.25, 0.5, 1, 2}
	if opt.Quick {
		fracs = []float64{0.25, 1}
	}
	disciplines := []congestSeriesSpec{
		{name: "taildrop"},
		{name: "ecn", ecn: true},
		{name: "lossless", lossless: true},
	}
	for _, d := range disciplines {
		s := t.AddSeries(d.name)
		for _, frac := range fracs {
			sc := d
			sc.frac = frac
			label := fmt.Sprintf("congest-queue/%s/%s/bdp-%g", opt.Topo, sc.name, frac)
			pl.point(s, frac, label, func(m *Meter) float64 {
				nw := congestNet(m, opt, sc)
				bw, err := congestTCP(nw, sc.ecn, congestStreamCount, congestDur(opt))
				m.Check(err)
				m.Check(congestLedgers(nw, sc))
				return bw
			})
		}
	}
	return pl
}
