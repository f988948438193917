package core

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/ib"
	"repro/internal/ipoib"
	"repro/internal/mpi"
	"repro/internal/nas"
	"repro/internal/nfs"
	"repro/internal/perftest"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tcpsim"
	"repro/internal/wan"
)

// This file holds the experiment builders: one func per table/figure of the
// paper, each expanding its sweep into a Plan (see registry.go) — skeleton
// tables whose series and slots are reserved in sequential order, plus one
// self-contained Point per (workload × delay × message-size) cell. Every
// point builds a private simulation world through its Meter, so the runner
// (runner.go) may execute them on any number of workers without changing
// the rendered output.

// Options tunes experiment weight without changing shape.
type Options struct {
	// NASClass selects the NAS problem class for fig12 ("B" = paper;
	// "A"/"W" are faster). Default "B" ("W" under Quick).
	NASClass string
	// NFSFileMB is the IOzone file size in MB (paper: 512). Throughput is
	// steady-state, so smaller files give the same numbers faster.
	// Default 512.
	NFSFileMB int
	// TCPMillis is the per-point measurement window for the TCP
	// experiments in milliseconds of virtual time at zero delay; it is
	// scaled up with delay automatically. Default 60.
	TCPMillis int
	// Topo names the topo preset the multisite-* family runs on
	// ("paper", "star3", "ring4", "mesh4"). Default "star3".
	Topo string
	// Quick shrinks every sweep (fewer delays, sizes, streams, smaller
	// worlds) for smoke runs; shapes remain visible but are coarser.
	Quick bool
}

func (o *Options) fill() {
	if o.NASClass == "" {
		o.NASClass = "B"
		if o.Quick {
			o.NASClass = "W"
		}
	}
	if o.NFSFileMB == 0 {
		o.NFSFileMB = 512
		if o.Quick {
			o.NFSFileMB = 16
		}
	}
	if o.TCPMillis == 0 {
		o.TCPMillis = 60
		if o.Quick {
			o.TCPMillis = 10
		}
	}
	if o.Topo == "" {
		o.Topo = "star3"
	}
}

// delays returns the WAN delay sweep.
func (o Options) delays() []sim.Time {
	if o.Quick {
		return []sim.Time{0, sim.Micros(1000)}
	}
	return cluster.PaperDelays()
}

// sizes returns the message-size sweep between lo and hi.
func (o Options) sizes(lo, hi int) []int {
	all := stats.Sizes(lo, hi)
	if !o.Quick || len(all) <= 3 {
		return all
	}
	return []int{all[0], all[len(all)/2], all[len(all)-1]}
}

// delayLabel formats a delay series label in the paper's style.
func delayLabel(d sim.Time) string {
	if d == 0 {
		return "no-delay"
	}
	return fmt.Sprintf("%dus-delay", int64(d/sim.Microsecond))
}

// table1 reproduces the delay/distance mapping.
func table1(Options) *Plan {
	t := stats.NewTable("Table 1: Delay Overhead corresponding to Wire Length",
		"Distance (km)", "Delay (us)")
	s := t.AddSeries("delay")
	pl := &Plan{Tables: []*stats.Table{t}}
	for _, km := range []float64{10, 20, 200, 2000, 20000} {
		pl.point(s, km, fmt.Sprintf("table1/%gkm", km), func(m *Meter) float64 {
			d, err := wan.DelayForDistance(km)
			m.Check(err)
			return d.Microseconds()
		})
	}
	return pl
}

// fig3 reproduces the verbs-level small-message latency comparison.
func fig3(Options) *Plan {
	t := stats.NewTable("Figure 3: Verbs-level Latency (8-byte messages)",
		"Configuration", "Latency (us)")
	const iters = 100
	rows := []struct {
		name string
		fn   func(m *Meter) float64
	}{
		// Through the Longbow pair at zero configured delay.
		{"SendRecv/UD", func(m *Meter) float64 { return verbsPoint(m, 0, "lat", ib.UD, 8, iters, 0) }},
		{"SendRecv/RC", func(m *Meter) float64 { return verbsPoint(m, 0, "lat", ib.RC, 8, iters, 0) }},
		{"RDMAWrite/RC", func(m *Meter) float64 { return verbsPoint(m, 0, "wlat", ib.RC, 8, iters, 0) }},
		// Back-to-back DDR nodes, no Longbows.
		{"BackToBack-SR/RC", func(m *Meter) float64 {
			env := m.NewEnv()
			f := ib.NewFabric(env)
			a, b := f.AddHCA("a"), f.AddHCA("b")
			f.Connect(a, b, ib.DDR, ib.DefaultCableDelay)
			f.Finalize()
			return perftest.SendLatency(env, a, b, ib.RC, 8, iters).Microseconds()
		}},
	}
	pl := &Plan{Tables: []*stats.Table{t}}
	for i, row := range rows {
		s := t.AddSeries(row.name)
		pl.point(s, float64(i), "fig3/"+row.name, row.fn)
	}
	return pl
}

// bwCount picks a message count that keeps per-point cost bounded while
// giving a stable estimate (large messages get at least 64 MB of traffic
// so the one-time pipe fill does not dominate at 10 ms delay).
func bwCount(size int) int {
	c := 64 << 20 / size
	if c < 16 {
		c = 16
	}
	if c > 2048 {
		c = 2048
	}
	return c
}

// verbsPoint runs one perftest-style verbs measurement across the WAN pair:
// test is lat (send/recv ping-pong), wlat (RDMA write), bw or bibw; n is the
// iteration count of a latency test or the message count of a bandwidth
// one, window the RC in-flight message window (0 = default). Latencies come
// back in microseconds, bandwidths in MillionBytes/s.
func verbsPoint(m *Meter, d sim.Time, test string, tr ib.Transport, size, n, window int) float64 {
	env, tb := m.pair(d)
	a, b := tb.A[0].HCA, tb.B[0].HCA
	switch {
	case test == "lat":
		return perftest.SendLatency(env, a, b, tr, size, n).Microseconds()
	case test == "wlat":
		return perftest.WriteLatency(env, a, b, size, n).Microseconds()
	case test == "bw" && tr == ib.UD:
		return perftest.BandwidthUD(env, a, b, size, n)
	case test == "bw":
		return perftest.BandwidthRC(env, a, b, size, n, window)
	case tr == ib.UD:
		return perftest.BiBandwidthUD(env, a, b, size, n)
	}
	return perftest.BiBandwidthRC(env, a, b, size, n, window)
}

// fig4 reproduces verbs UD bandwidth and bidirectional bandwidth vs delay.
func fig4(opt Options) *Plan { return verbsBandwidth(opt, 4, ib.UD, ib.MaxUDPayload) }

// fig5 reproduces verbs RC bandwidth and bidirectional bandwidth vs delay.
func fig5(opt Options) *Plan { return verbsBandwidth(opt, 5, ib.RC, 4<<20) }

// verbsBandwidth is the shape fig4 and fig5 share: one series per delay,
// message sizes from 2 bytes to maxSize, uni- and bidirectional.
func verbsBandwidth(opt Options, fig int, tr ib.Transport, maxSize int) *Plan {
	opt.fill()
	bw := stats.NewTable(fmt.Sprintf("Figure %d(a): Verbs-level %s Bandwidth", fig, tr),
		"Message Size (Bytes)", "Bandwidth (MillionBytes/s)")
	bibw := stats.NewTable(fmt.Sprintf("Figure %d(b): Verbs-level %s Bidirectional Bandwidth", fig, tr),
		"Message Size (Bytes)", "Bidirectional Bandwidth (MillionBytes/s)")
	pl := &Plan{Tables: []*stats.Table{bw, bibw}}
	for _, d := range opt.delays() {
		s1 := bw.AddSeries(tr.String() + "-" + delayLabel(d))
		s2 := bibw.AddSeries(tr.String() + "-" + delayLabel(d))
		for _, size := range opt.sizes(2, maxSize) {
			label := fmt.Sprintf("fig%d/%s/%s", fig, delayLabel(d), stats.FormatSize(float64(size)))
			pl.point(s1, float64(size), label+"/uni", func(m *Meter) float64 {
				return verbsPoint(m, d, "bw", tr, size, bwCount(size), 0)
			})
			pl.point(s2, float64(size), label+"/bidir", func(m *Meter) float64 {
				return verbsPoint(m, d, "bibw", tr, size, bwCount(size), 0)
			})
		}
	}
	return pl
}

// tcpPoint measures aggregate TCP throughput for the given IPoIB mode, MTU,
// window, stream count and delay.
func tcpPoint(m *Meter, mode ipoib.Mode, mtu int, window int, streams int, d sim.Time, opt Options) float64 {
	env := m.NewEnv()
	tb := cluster.New(env, cluster.Config{NodesA: 1, NodesB: 1, Delay: d})
	net := ipoib.NewNetwork()
	da := net.Attach(tb.A[0].HCA, mode, mtu)
	db := net.Attach(tb.B[0].HCA, mode, mtu)
	sa := tcpsim.NewStack(da, tcpsim.Config{Window: window})
	sb := tcpsim.NewStack(db, tcpsim.Config{Window: window})
	defer env.Shutdown()
	bw, err := tcpThroughput(env, sa, sb, streams, streamWindow(opt.TCPMillis, d))
	m.Check(err)
	return bw
}

// streamWindow is the measurement window of a stream-throughput point: ms
// virtual milliseconds at zero delay, scaled up with delay so slow starts
// and pipe fills finish inside the first half.
func streamWindow(ms int, d sim.Time) sim.Time {
	return sim.Time(ms)*sim.Millisecond + 60*d
}

// tcpThroughput runs one-way flows for dur and returns the steady-state
// rate over the second half in MillionBytes/s. Under fault injection
// individual streams may die mid-run (their connections reset); the rate
// then reflects what the surviving streams delivered. Only when nothing at
// all was delivered does the first connection error surface instead.
//
// Each process is spawned through the stack it drives, so on a partitioned
// world the acceptor parks on its own shard's events and the dialer on its:
// firstErr is written by client processes only — one shard — and read here
// between runs.
func tcpThroughput(env *sim.Env, sa, sb *tcpsim.Stack, streams int, dur sim.Time) (float64, error) {
	var firstErr error
	note := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	for i := 0; i < streams; i++ {
		port := 6000 + i
		ln := sb.Listen(port)
		sb.Env().Go("srv", func(p *sim.Proc) { ln.Accept(p) })
		sa.Env().Go("cli", func(p *sim.Proc) {
			c, err := sa.Dial(p, sb.Addr(), port)
			if err != nil {
				note(err)
				return
			}
			for {
				// The paper sends 2 MB application messages.
				if err := c.WriteSynthetic(p, 2<<20); err != nil {
					note(err)
					return
				}
			}
		})
	}
	return secondHalfRate(env, dur, func() int64 { return sb.Stats().RxBytes }, func() error { return firstErr })
}

// secondHalfRate runs env for dur and returns, in MillionBytes/s, the rate
// at which delivered() grew over the second half of the window; the first
// half absorbs connection setup, slow start and the pipe fill. When nothing
// at all was delivered it runs on until the connect/retransmission
// machinery has reached its verdict (the budget covers the full handshake
// backoff schedule) and returns failed()'s error, so a dead WAN reports an
// error instead of a measurement of nothing.
func secondHalfRate(env *sim.Env, dur sim.Time, delivered func() int64, failed func() error) (float64, error) {
	env.RunUntil(dur / 2)
	mid := delivered()
	env.RunUntil(dur)
	end := delivered()
	if end == 0 {
		env.RunUntil(dur + 20*sim.Second)
		if err := failed(); err != nil {
			return 0, err
		}
	}
	return float64(end-mid) / (dur / 2).Seconds() / 1e6, nil
}

// tcpVariant is one single-stream series of fig6(a)/fig7(a): a TCP window
// or an IP MTU away from the default (0).
type tcpVariant struct {
	label       string
	mtu, window int
}

// fig6 reproduces IPoIB-UD throughput: (a) single stream with varying TCP
// windows, (b) parallel streams, both vs WAN delay.
func fig6(opt Options) *Plan {
	return tcpFigure(opt, 6, ipoib.Datagram, []tcpVariant{
		{label: "64k-window", window: 64 << 10},
		{label: "256k-window", window: 256 << 10},
		{label: "512k-window", window: 512 << 10},
		{label: "default-window"},
	})
}

// fig7 reproduces IPoIB-RC throughput: (a) single stream with varying IP
// MTUs, (b) parallel streams, both vs WAN delay.
func fig7(opt Options) *Plan {
	mtus := []tcpVariant{{label: "2K-MTU", mtu: 2044}, {label: "16K-MTU", mtu: 16380}, {label: "64K-MTU", mtu: 65532}}
	if opt.Quick {
		mtus = []tcpVariant{mtus[0], mtus[2]}
	}
	return tcpFigure(opt, 7, ipoib.Connected, mtus)
}

// tcpFigure is the shape fig6 and fig7 share: (a) one stream per variant,
// (b) parallel streams at the mode's defaults, both vs WAN delay.
func tcpFigure(opt Options, fig int, mode ipoib.Mode, variants []tcpVariant) *Plan {
	opt.fill()
	a := stats.NewTable(fmt.Sprintf("Figure %d(a): IPoIB-%s single-stream throughput vs delay", fig, mode),
		"Delay (usecs)", "Throughput (MillionBytes/s)")
	pl := &Plan{}
	for _, v := range variants {
		s := a.AddSeries(v.label)
		for _, d := range opt.delays() {
			pl.point(s, d.Microseconds(), fmt.Sprintf("fig%da/%s/%s", fig, v.label, delayLabel(d)),
				func(m *Meter) float64 {
					return tcpPoint(m, mode, v.mtu, v.window, 1, d, opt)
				})
		}
	}
	b := stats.NewTable(fmt.Sprintf("Figure %d(b): IPoIB-%s parallel-stream throughput vs delay", fig, mode),
		"Delay (usecs)", "Throughput (MillionBytes/s)")
	streams := []int{1, 2, 4, 6, 8}
	if opt.Quick {
		streams = []int{1, 4}
	}
	for _, n := range streams {
		s := b.AddSeries(fmt.Sprintf("%d-streams", n))
		for _, d := range opt.delays() {
			pl.point(s, d.Microseconds(), fmt.Sprintf("fig%db/%d-streams/%s", fig, n, delayLabel(d)),
				func(m *Meter) float64 {
					return tcpPoint(m, mode, 0, 0, n, d, opt)
				})
		}
	}
	pl.Tables = []*stats.Table{a, b}
	return pl
}

// mpiWorld builds a fresh 2-rank cross-WAN world.
func mpiWorld(m *Meter, delay sim.Time, cfg mpi.Config) *mpi.World {
	return clusterWorld(m, 1, 1, delay, cfg)
}

// clusterWorld builds a fresh world of ppn ranks on each of perSide nodes
// per cluster, placed block-wise, cluster A's ranks first.
func clusterWorld(m *Meter, perSide, ppn int, delay sim.Time, cfg mpi.Config) *mpi.World {
	env := m.NewEnv()
	tb := cluster.New(env, cluster.Config{NodesA: perSide, NodesB: perSide, Delay: delay})
	return mpi.NewWorld(env, mpi.BlockPlacement(tb.Nodes(), ppn), cfg)
}

// mpiPoint runs one OSU-microbenchmark-style measurement on w and shuts the
// world down: latency, bcast and hier-bcast in microseconds, bw and bibw in
// MillionBytes/s, mr — w's first half of ranks streaming to its second — in
// million messages/s.
func mpiPoint(w *mpi.World, bench string, size, iters int) float64 {
	defer w.Shutdown()
	switch bench {
	case "latency":
		return mpi.Latency(w, size, iters).Microseconds()
	case "bw":
		return mpi.Bandwidth(w, size, iters)
	case "bibw":
		return mpi.BiBandwidth(w, size, iters)
	case "mr":
		return mpi.MessageRate(w, w.Size()/2, size, iters)
	}
	return mpi.BcastLatency(w, size, iters, bench == "hier-bcast").Microseconds()
}

// mpiIters bounds per-point cost for the MPI bandwidth loops.
func mpiIters(size int) int {
	if size >= 1<<20 {
		return 1
	}
	if size >= 64<<10 {
		return 2
	}
	return 4
}

// fig8 reproduces MPI bandwidth and bidirectional bandwidth vs delay.
func fig8(opt Options) *Plan {
	opt.fill()
	bw := stats.NewTable("Figure 8(a): MPI Bandwidth (MVAPICH2-model)",
		"Message Size (Bytes)", "Bandwidth (MillionBytes/s)")
	bibw := stats.NewTable("Figure 8(b): MPI Bidirectional Bandwidth",
		"Message Size (Bytes)", "Bidirectional Bandwidth (MillionBytes/s)")
	pl := &Plan{Tables: []*stats.Table{bw, bibw}}
	for _, d := range opt.delays() {
		s1 := bw.AddSeries("MVAPICH-" + delayLabel(d))
		s2 := bibw.AddSeries("MVAPICH-" + delayLabel(d))
		for _, size := range opt.sizes(1, 4<<20) {
			label := fmt.Sprintf("fig8/%s/%s", delayLabel(d), stats.FormatSize(float64(size)))
			pl.point(s1, float64(size), label+"/uni", func(m *Meter) float64 {
				return mpiPoint(mpiWorld(m, d, mpi.Config{}), "bw", size, mpiIters(size))
			})
			pl.point(s2, float64(size), label+"/bidir", func(m *Meter) float64 {
				return mpiPoint(mpiWorld(m, d, mpi.Config{}), "bibw", size, mpiIters(size))
			})
		}
	}
	return pl
}

// fig9 reproduces the rendezvous-threshold tuning experiment at 1 ms delay.
func fig9(opt Options) *Plan {
	opt.fill()
	const delay = 1000 // microseconds
	bw := stats.NewTable("Figure 9(a): MPI Bandwidth with protocol thresholds, 1ms delay",
		"Message Size (Bytes)", "Bandwidth (MillionBytes/s)")
	bibw := stats.NewTable("Figure 9(b): MPI Bidirectional Bandwidth with protocol thresholds, 1ms delay",
		"Message Size (Bytes)", "Bidirectional Bandwidth (MillionBytes/s)")
	cfgs := []struct {
		label string
		cfg   mpi.Config
	}{
		{"thresh-8k (original)", mpi.Config{}},
		{"thresh-64k (tuned)", mpi.Config{EagerThreshold: TunedThreshold}},
	}
	pl := &Plan{Tables: []*stats.Table{bw, bibw}}
	for _, c := range cfgs {
		s1 := bw.AddSeries(c.label)
		s2 := bibw.AddSeries(c.label)
		for _, size := range opt.sizes(1<<10, 64<<10) {
			label := fmt.Sprintf("fig9/%s/%s", c.label, stats.FormatSize(float64(size)))
			pl.point(s1, float64(size), label+"/uni", func(m *Meter) float64 {
				return mpiPoint(mpiWorld(m, sim.Micros(delay), c.cfg), "bw", size, 4)
			})
			pl.point(s2, float64(size), label+"/bidir", func(m *Meter) float64 {
				return mpiPoint(mpiWorld(m, sim.Micros(delay), c.cfg), "bibw", size, 4)
			})
		}
	}
	return pl
}

// fig10 reproduces the multi-pair aggregate message rate at three delays.
func fig10(opt Options) *Plan {
	opt.fill()
	delays := []sim.Time{sim.Micros(10), sim.Micros(1000), sim.Micros(10000)}
	pairCounts := []int{4, 8, 16}
	if opt.Quick {
		delays = []sim.Time{sim.Micros(1000)}
		pairCounts = []int{2, 4}
	}
	pl := &Plan{}
	for _, d := range delays {
		t := stats.NewTable(
			fmt.Sprintf("Figure 10: Multi-pair message rate, %s", delayLabel(d)),
			"Message Size (Bytes)", "Message Rate (Million Messages/s)")
		for _, pairs := range pairCounts {
			s := t.AddSeries(fmt.Sprintf("%d pairs", pairs))
			for _, size := range opt.sizes(1, 32<<10) {
				label := fmt.Sprintf("fig10/%s/%dpairs/%s", delayLabel(d), pairs, stats.FormatSize(float64(size)))
				pl.point(s, float64(size), label, func(m *Meter) float64 {
					return mpiPoint(clusterWorld(m, pairs, 1, d, mpi.Config{}), "mr", size, 2)
				})
			}
		}
		pl.Tables = append(pl.Tables, t)
	}
	return pl
}

// fig11 reproduces the broadcast comparison: the stock algorithm vs the
// WAN-aware hierarchical broadcast, 64+64 processes, three delays.
func fig11(opt Options) *Plan {
	opt.fill()
	delays := []sim.Time{sim.Micros(10), sim.Micros(100), sim.Micros(1000)}
	sizes := []int{4, 16, 64, 256, 1 << 10, 4 << 10, 16 << 10, 64 << 10, 128 << 10}
	nodesPerCluster := 32
	if opt.Quick {
		delays = []sim.Time{sim.Micros(1000)}
		sizes = []int{64, 128 << 10}
		nodesPerCluster = 4
	}
	pl := &Plan{}
	for _, d := range delays {
		t := stats.NewTable(
			fmt.Sprintf("Figure 11: MPI broadcast latency over IB WAN, %s", delayLabel(d)),
			"Message Size (Bytes)", "Latency (us)")
		orig := t.AddSeries("Original")
		mod := t.AddSeries("Modified")
		for _, size := range sizes {
			for _, bench := range []string{"bcast", "hier-bcast"} {
				s, variant := orig, "orig"
				if bench == "hier-bcast" {
					s, variant = mod, "hier"
				}
				label := fmt.Sprintf("fig11/%s/%s/%s", delayLabel(d), stats.FormatSize(float64(size)), variant)
				pl.point(s, float64(size), label, func(m *Meter) float64 {
					return mpiPoint(clusterWorld(m, nodesPerCluster, 2, d, mpi.Config{}), bench, size, 3)
				})
			}
		}
		pl.Tables = append(pl.Tables, t)
	}
	return pl
}

// fig12 reproduces the NAS benchmark delay sweep: 64 processes, 32 per
// cluster, execution time vs WAN delay. The slowdown table is derived from
// the measured one after all points land (Finish), exactly as the
// sequential loop computed it.
func fig12(opt Options) *Plan {
	opt.fill()
	t := stats.NewTable(
		fmt.Sprintf("Figure 12: NAS class %s execution time (64 procs, 32+32)", opt.NASClass),
		"Delay (usecs)", "Execution Time (s)")
	rel := stats.NewTable(
		fmt.Sprintf("Figure 12 (derived): NAS class %s slowdown vs zero delay", opt.NASClass),
		"Delay (usecs)", "Slowdown (x)")
	nasNodes := 32
	if opt.Quick {
		nasNodes = 8
	}
	kernels := nas.AllKernels()
	if opt.Quick {
		kernels = nas.Kernels()
	}
	pl := &Plan{Tables: []*stats.Table{t, rel}}
	for _, k := range kernels {
		s := t.AddSeries(k)
		sr := rel.AddSeries(k)
		for _, d := range opt.delays() {
			sr.Alloc(d.Microseconds())
			pl.point(s, d.Microseconds(), fmt.Sprintf("fig12/%s/%s", k, delayLabel(d)),
				func(m *Meter) float64 {
					w := clusterWorld(m, nasNodes, 1, d, mpi.Config{})
					defer w.Shutdown()
					return nas.RunClass(w, k, opt.NASClass).Seconds()
				})
		}
	}
	pl.Finish = func() {
		for ki := range t.Series {
			s, sr := t.Series[ki], rel.Series[ki]
			var base float64
			for i := range s.Y {
				if s.X[i] == 0 {
					base = s.Y[i]
				}
				sr.Set(i, s.Y[i]/base)
			}
		}
	}
	return pl
}

// nfsPoint mounts a server over the named transport — across the WAN pair
// at the given delay, or with lan inside one cluster (DDR, no Longbows) —
// and runs the IOzone workload against a synthetic file of cfg's size.
func nfsPoint(m *Meter, transport string, lan bool, d sim.Time, cfg nfs.IOzoneConfig) float64 {
	env := m.NewEnv()
	var server, client *cluster.Node
	if lan {
		tb := cluster.New(env, cluster.Config{NodesA: 2, NodesB: 1})
		server, client = tb.A[1], tb.A[0]
	} else {
		tb := cluster.New(env, cluster.Config{NodesA: 1, NodesB: 1, Delay: d})
		server, client = tb.B[0], tb.A[0]
	}
	var srv *nfs.Server
	var cl *nfs.Client
	var err error
	switch transport {
	case "rdma":
		srv, cl = nfs.MountRDMA(server, client)
	case "tcp-rc":
		srv, cl, err = nfs.MountTCP(env, server, client, ipoib.Connected)
	case "tcp-ud":
		srv, cl, err = nfs.MountTCP(env, server, client, ipoib.Datagram)
	default:
		err = fmt.Errorf("nfs: unknown transport %q", transport)
	}
	m.Check(err)
	srv.AddSyntheticFile("f", cfg.FileSize)
	return nfs.IOzone(env, cl, "f", cfg)
}

// fig13 reproduces the NFS read throughput experiments.
func fig13(opt Options) *Plan {
	opt.fill()
	fileMB := int64(opt.NFSFileMB)
	streams := []int{1, 2, 4, 8}
	if opt.Quick {
		streams = []int{1, 8}
	}
	iozone := func(threads int) nfs.IOzoneConfig {
		return nfs.IOzoneConfig{FileSize: fileMB << 20, RecordSize: 256 << 10, Threads: threads}
	}
	pl := &Plan{}
	// (a) NFS/RDMA: LAN vs WAN delays.
	a := stats.NewTable("Figure 13(a): NFS/RDMA read throughput",
		"Number of Streams", "Throughput (MillionBytes/s)")
	lan := a.AddSeries("LAN")
	for _, th := range streams {
		pl.point(lan, float64(th), fmt.Sprintf("fig13a/LAN/%dstreams", th), func(m *Meter) float64 {
			return nfsPoint(m, "rdma", true, 0, iozone(th))
		})
	}
	wanDelays := []sim.Time{0, sim.Micros(10), sim.Micros(100), sim.Micros(1000)}
	if opt.Quick {
		wanDelays = []sim.Time{0, sim.Micros(1000)}
	}
	for _, d := range wanDelays {
		s := a.AddSeries(fmt.Sprintf("%dusec", int64(d/sim.Microsecond)))
		for _, th := range streams {
			pl.point(s, float64(th), fmt.Sprintf("fig13a/%s/%dstreams", delayLabel(d), th),
				func(m *Meter) float64 {
					return nfsPoint(m, "rdma", false, d, iozone(th))
				})
		}
	}
	pl.Tables = append(pl.Tables, a)
	// (b), (c): transport comparison at 100 us and 1000 us.
	for _, d := range []sim.Time{sim.Micros(100), sim.Micros(1000)} {
		t := stats.NewTable(
			fmt.Sprintf("Figure 13(%s): NFS read throughput, RDMA vs IPoIB, %s",
				map[sim.Time]string{sim.Micros(100): "b", sim.Micros(1000): "c"}[d], delayLabel(d)),
			"Number of Streams", "Throughput (MillionBytes/s)")
		rdma := t.AddSeries("RDMA")
		rc := t.AddSeries("IPoIB-RC")
		ud := t.AddSeries("IPoIB-UD")
		for _, th := range streams {
			label := fmt.Sprintf("fig13/%s/%dstreams", delayLabel(d), th)
			pl.point(rdma, float64(th), label+"/rdma", func(m *Meter) float64 {
				return nfsPoint(m, "rdma", false, d, iozone(th))
			})
			pl.point(rc, float64(th), label+"/ipoib-rc", func(m *Meter) float64 {
				return nfsPoint(m, "tcp-rc", false, d, iozone(th))
			})
			pl.point(ud, float64(th), label+"/ipoib-ud", func(m *Meter) float64 {
				return nfsPoint(m, "tcp-ud", false, d, iozone(th))
			})
		}
		pl.Tables = append(pl.Tables, t)
	}
	return pl
}
