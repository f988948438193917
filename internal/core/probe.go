package core

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"

	"repro/internal/cluster"
	"repro/internal/ib"
	"repro/internal/ipoib"
	"repro/internal/mpi"
	"repro/internal/nas"
	"repro/internal/nfs"
	"repro/internal/sdp"
	"repro/internal/sim"
	"repro/internal/stats"
)

// This file holds the probes: single measurement cells named on the command
// line, one per middleware layer, after the tool the paper measured that
// layer with (perftest, iperf, OMB, NAS, IOzone). A probe is an ordinary
// Spec whose point calls what the registry figures call, so it runs under
// every harness option and, at a figure's parameters, is that figure's cell.

// Probe is one probe layer: its name on the command line, its -list line,
// and a binder that registers the layer's flags and returns the builder
// ProbeSpec calls once they are parsed, and each Build again. The builder
// validates the values — a probe never runs on one the model has no meaning
// for, nor on two that contradict each other — and adds the tables and
// points.
type Probe struct {
	Name string
	Desc string
	bind func(fs *flag.FlagSet) func(b *probeBuild) error
}

// probes is the probe table, in the paper's layer order.
var probes = []Probe{
	{"perftest", "verbs-level point, OFED perftest style: -test lat|wlat|bw|bibw over -transport rc|ud", probePerftest},
	{"ipoib", "iperf-style socket-stream throughput: -mode ud|rc (TCP over IPoIB) or sdp", probeIPoIB},
	{"mpi", "OSU-microbenchmark-style MPI point: -bench latency|bw|bibw|mr|bcast (-autotune, -hier)", probeMPI},
	{"nas", "NAS kernel skeletons across the two clusters: -kernel IS|FT|CG|MG|LU|all (-profile)", probeNAS},
	{"nfs", "IOzone-style NFS throughput: -transport rdma|tcp-rc|tcp-ud (-write, -lan)", probeNFS},
}

// Probes returns a copy of the probe table (the CLI's -list view).
func Probes() []Probe { return slices.Clone(probes) }

// maxProbeDelayUS bounds -delay at one second one way, a hundred times the
// paper's longest emulated wire.
const maxProbeDelayUS = 1e6

// ProbeSpec builds the Spec for "probe <layer> [flags]" from the words
// after "probe". Any error — an unknown layer, a flag that does not parse, a
// value out of range — is a usage error: its first line says what is wrong,
// the rest lists the layer's flags. Like every registry Spec, its Build
// fills the Options it is given and reads them: NASClass for nas, NFSFileMB
// for nfs, TCPMillis for ipoib.
func ProbeSpec(args []string) (Spec, error) {
	var layer string
	if len(args) > 0 {
		layer = args[0]
	}
	i := slices.IndexFunc(probes, func(p Probe) bool { return p.Name == layer })
	if i < 0 {
		return Spec{}, fmt.Errorf("probe: unknown layer %q (want perftest, ipoib, mpi, nas or nfs)", layer)
	}
	p := probes[i]
	fs := flag.NewFlagSet("probe "+p.Name, flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	delay := fs.Float64("delay", 0, "one-way WAN delay in microseconds")
	build := p.bind(fs)
	plan := func(opt Options) (*Plan, error) {
		b := &probeBuild{pl: &Plan{}, title: "probe " + strings.Join(args, " "),
			us: *delay, d: sim.Micros(*delay), opt: opt.filled()}
		return b.pl, build(b)
	}
	err := fs.Parse(args[1:]) // args[0] is the layer
	switch {
	case err != nil:
	case fs.NArg() > 0:
		err = fmt.Errorf("unexpected argument %q", fs.Arg(0))
	case !(*delay >= 0 && *delay <= maxProbeDelayUS): // also rejects NaN
		err = fmt.Errorf("-delay must be between 0 and %g microseconds (got %g)", float64(maxProbeDelayUS), *delay)
	default:
		_, err = plan(Options{})
	}
	if err != nil {
		var usage strings.Builder
		fs.SetOutput(&usage)
		fs.PrintDefaults()
		return Spec{}, fmt.Errorf("probe %s: %v\nprobe %s flags:\n%s", p.Name, err, p.Name, strings.TrimRight(usage.String(), "\n"))
	}
	return Spec{ID: "probe-" + p.Name, Desc: p.Desc, Build: func(opt Options) *Plan {
		pl, err := plan(opt)
		if err != nil {
			panic(err) // the builders check flags only, and those passed above
		}
		return pl
	}}, nil
}

// probeBuild is a probe's plan under construction: every table is titled
// with the command line and has the WAN delay as its one x.
type probeBuild struct {
	pl    *Plan
	title string
	us    float64  // -delay as given
	d     sim.Time // and as simulated
	opt   Options  // filled
}

// table adds a table. Probe tables print three decimals: a message rate or
// a NAS run time needs the third.
func (b *probeBuild) table(what, ylabel string) *stats.Table {
	t := stats.NewTable(b.title+what, "Delay (usecs)", ylabel)
	t.Decimals = 3
	b.pl.Tables = append(b.pl.Tables, t)
	return t
}

// point adds the measurement that fills series s.
func (b *probeBuild) point(s *stats.Series, fn func(m *Meter) float64) {
	b.pl.point(s, b.us, b.title+": "+s.Label, fn)
}

// side reserves a cell for something a point's Fn learns on the way (a tuned
// threshold, a message census) and returns its setter for the Fn to call.
// The cell reads ERR until then, so a failed point leaves no stale number
// beside its error row.
func (b *probeBuild) side(t *stats.Table, label string) func(y float64) {
	s := t.AddSeries(label)
	slot := s.Alloc(b.us)
	s.Set(slot, math.NaN())
	return func(y float64) { s.Set(slot, y) }
}

// Flag-value checks. Each returns a one-line error naming the flag; firstOf
// keeps a command line with several bad values to one line too.

func firstOf(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func atLeast(name string, v, lo int) error {
	if v < lo {
		return fmt.Errorf("-%s must be at least %d (got %d)", name, lo, v)
	}
	return nil
}

func oneOf(name, v string, allowed ...string) error {
	if !slices.Contains(allowed, v) {
		return fmt.Errorf("-%s must be one of %s (got %q)", name, strings.Join(allowed, ", "), v)
	}
	return nil
}

const (
	latencyUS  = "Latency (us)"
	bandwidth  = "Bandwidth (MillionBytes/s)"
	throughput = "Throughput (MillionBytes/s)"
)

func probePerftest(fs *flag.FlagSet) func(*probeBuild) error {
	test := fs.String("test", "lat", "test: lat, wlat (RDMA write latency), bw, bibw")
	transport := fs.String("transport", "rc", "transport: rc or ud")
	size := fs.Int("size", 8, "message size in bytes")
	count := fs.Int("count", 1000, "messages per bandwidth measurement (bw, bibw)")
	iters := fs.Int("iters", 1000, "iterations per latency measurement (lat, wlat)")
	window := fs.Int("window", 0, "RC in-flight message window for bw, bibw (0 = default)")
	return func(b *probeBuild) error {
		test, size, count, iters, window := *test, *size, *count, *iters, *window
		tr, ylabel := ib.RC, bandwidth
		err := firstOf(
			oneOf("test", test, "lat", "wlat", "bw", "bibw"), oneOf("transport", *transport, "rc", "ud"),
			atLeast("size", size, 1), atLeast("count", count, 1), atLeast("iters", iters, 1), atLeast("window", window, 0))
		switch {
		case err != nil || *transport == "rc":
		case size > ib.MaxUDPayload:
			err = fmt.Errorf("-size must be at most %d for -transport ud (got %d)", ib.MaxUDPayload, size)
		case test == "wlat":
			err = errors.New("-test wlat needs -transport rc (UD has no RDMA write)")
		case window != 0:
			err = errors.New("-window is the RC in-flight window: it does not apply to -transport ud")
		default:
			tr = ib.UD
		}
		if err != nil {
			return err
		}
		n := count
		if test == "lat" || test == "wlat" {
			n, ylabel = iters, latencyUS
		}
		b.point(b.table("", ylabel).AddSeries(test), func(m *Meter) float64 {
			return verbsPoint(m, b.d, test, tr, size, n, window)
		})
		return nil
	}
}

// minProbeMTU is the smallest IP MTU the ipoib probe accepts: the IPv4
// minimum, well above the TCP/IP header a segment's payload is what is left
// of.
const minProbeMTU = 576

func probeIPoIB(fs *flag.FlagSet) func(*probeBuild) error {
	mode := fs.String("mode", "ud", "transport: ud (IPoIB datagram), rc (IPoIB connected) or sdp")
	mtu := fs.Int("mtu", 0, "IP MTU (0 = mode default: 2044 for ud, 65532 for rc)")
	window := fs.Int("window", 0, "TCP window in bytes (0 = auto-tuned default)")
	streams := fs.Int("streams", 1, "parallel connections")
	return func(b *probeBuild) error {
		mtu, window, streams := *mtu, *window, *streams
		ipMode, maxMTU := ipoib.Datagram, ipoib.DatagramMTU
		if *mode == "rc" {
			ipMode, maxMTU = ipoib.Connected, ipoib.MaxConnectedMTU
		}
		err := firstOf(oneOf("mode", *mode, "ud", "rc", "sdp"), atLeast("streams", streams, 1))
		switch {
		case err != nil:
		case *mode == "sdp" && (mtu != 0 || window != 0):
			err = errors.New("-mtu and -window are TCP/IPoIB knobs: they do not apply to -mode sdp")
		case mtu != 0 && (mtu < minProbeMTU || mtu > maxMTU):
			err = fmt.Errorf("-mtu must be 0 or between %d and %d for -mode %s (got %d)", minProbeMTU, maxMTU, *mode, mtu)
		case window != 0 && window < max(mtu, minProbeMTU):
			// A window under one segment never opens: the stream would
			// measure a stall, not the link.
			err = fmt.Errorf("-window must be 0 or at least %d bytes (got %d)", max(mtu, minProbeMTU), window)
		}
		if err != nil {
			return err
		}
		s := b.table("", throughput).AddSeries(*mode)
		if *mode == "sdp" {
			b.point(s, func(m *Meter) float64 { return sdpPoint(m, streams, b.d, b.opt.TCPMillis) })
		} else {
			b.point(s, func(m *Meter) float64 {
				return tcpPoint(m, ipMode, mtu, window, streams, b.d, b.opt)
			})
		}
		return nil
	}
}

// sdpPoint measures aggregate SDP stream throughput across the WAN pair, as
// tcpThroughput does for TCP streams.
func sdpPoint(m *Meter, streams int, d sim.Time, ms int) float64 {
	env := m.NewEnv()
	// sdp.Dial makes both ends of a connection: the world stays one
	// environment whatever shard workers the run has.
	env.SetShardWorkers(1)
	tb := cluster.New(env, cluster.Config{NodesA: 1, NodesB: 1, Delay: d})
	defer env.Shutdown()
	var conns []*sdp.Conn
	for i := 0; i < streams; i++ {
		port := 5000 + i
		ln := sdp.Listen(tb.B[0], port)
		defer ln.Close()
		tb.B[0].HCA.Env().Go("srv", func(p *sim.Proc) { conns = append(conns, ln.Accept(p)) })
		tb.A[0].HCA.Env().Go("cli", func(p *sim.Proc) {
			c := sdp.Dial(p, tb.A[0], tb.B[0], port)
			for {
				c.WriteSynthetic(p, 1<<20)
			}
		})
	}
	delivered := func() (n int64) {
		for _, c := range conns {
			n += c.Delivered()
		}
		return n
	}
	bw, err := secondHalfRate(env, streamWindow(ms, d), delivered, func() error {
		return errors.New("sdp: no stream delivered a byte")
	})
	m.Check(err)
	return bw
}

func probeMPI(fs *flag.FlagSet) func(*probeBuild) error {
	bench := fs.String("bench", "latency", "benchmark: latency, bw, bibw, mr, bcast")
	size := fs.Int("size", 8, "message size in bytes")
	iters := fs.Int("iters", 10, "iterations")
	threshold := fs.Int("threshold", 0, "eager/rendezvous threshold in bytes (0 = default 8K)")
	autotune := fs.Bool("autotune", false, "probe the link and set the threshold adaptively (latency, bw, bibw)")
	pairs := fs.Int("pairs", 4, "communicating pairs for -bench mr")
	nodes := fs.Int("nodes", 32, "nodes per cluster for -bench bcast")
	ppn := fs.Int("ppn", 2, "processes per node for -bench bcast")
	hier := fs.Bool("hier", false, "use the WAN-aware hierarchical broadcast (-bench bcast)")
	return func(b *probeBuild) error {
		bench, size, iters, autotune, pairs, nodes, ppn, hier := *bench, *size, *iters, *autotune, *pairs, *nodes, *ppn, *hier
		cfg := mpi.Config{EagerThreshold: *threshold}
		ylabel := bandwidth
		err := firstOf(
			oneOf("bench", bench, "latency", "bw", "bibw", "mr", "bcast"),
			atLeast("size", size, 1), atLeast("iters", iters, 1), atLeast("threshold", *threshold, 0),
			atLeast("pairs", pairs, 1), atLeast("nodes", nodes, 1), atLeast("ppn", ppn, 1))
		switch {
		case err != nil:
		case hier && bench != "bcast":
			err = fmt.Errorf("-hier is the broadcast algorithm: it does not apply to -bench %s", bench)
		case autotune && (bench == "mr" || bench == "bcast"):
			err = fmt.Errorf("-autotune tunes the two-rank benchmarks: it does not apply to -bench %s", bench)
		case autotune && *threshold != 0:
			err = errors.New("-autotune chooses the threshold: drop -threshold")
		}
		if err != nil {
			return err
		}
		switch bench {
		case "latency", "bcast":
			ylabel = latencyUS
		case "mr":
			ylabel = "Message Rate (Million Messages/s)"
		}
		s := b.table("", ylabel).AddSeries(bench)
		tuned := func(float64) {}
		if autotune {
			tuned = b.side(b.table(": autotuned eager threshold", "Threshold (Bytes)"), "threshold")
		}
		if hier {
			bench = "hier-bcast"
		}
		b.point(s, func(m *Meter) float64 {
			switch {
			case bench == "mr":
				return mpiPoint(clusterWorld(m, pairs, 1, b.d, cfg), bench, size, iters)
			case bench == "bcast" || bench == "hier-bcast":
				return mpiPoint(clusterWorld(m, nodes, ppn, b.d, cfg), bench, size, iters)
			case autotune:
				env, tb := m.pair(b.d)
				cfg := AutoTune(env, tb.A[0], tb.B[0])
				tuned(float64(cfg.EagerThreshold))
				return mpiPoint(mpi.NewWorld(env, tb.Nodes(), cfg), bench, size, iters)
			}
			return mpiPoint(mpiWorld(m, b.d, cfg), bench, size, iters)
		})
		return nil
	}
}

func probeNAS(fs *flag.FlagSet) func(*probeBuild) error {
	kernel := fs.String("kernel", "all", "kernel: IS, FT, CG, MG, LU or all")
	procs := fs.Int("procs", 64, "total MPI processes (half per cluster)")
	profile := fs.Bool("profile", false, "add each kernel's message-size census")
	return func(b *probeBuild) error {
		procs := *procs
		kernels := nas.AllKernels()
		err := oneOf("kernel", *kernel, append(nas.AllKernels(), "all")...)
		if err == nil && (procs < 2 || procs%2 != 0) {
			err = fmt.Errorf("-procs must be even and at least 2 (got %d)", procs)
		}
		if err != nil {
			return err
		}
		if *kernel != "all" {
			kernels = []string{*kernel}
		}
		t := b.table("", "Execution Time (s)")
		for _, k := range kernels {
			census := func(mpi.MessageProfile) {}
			if *profile {
				ct := b.table(": "+k+" message census", "Value")
				msgs, vol := b.side(ct, "messages"), b.side(ct, "volume (MB)")
				large, tiny := b.side(ct, "large-volume fraction"), b.side(ct, "tiny-count fraction")
				biggest := b.side(ct, "max message (B)")
				census = func(mp mpi.MessageProfile) {
					msgs(float64(mp.Msgs))
					vol(float64(mp.Bytes) / 1e6)
					large(mp.LargeVolumeFraction())
					tiny(mp.TinyCountFraction())
					biggest(float64(mp.MaxMessage))
				}
			}
			b.point(t.AddSeries(k), func(m *Meter) float64 {
				w := clusterWorld(m, procs/2, 1, b.d, mpi.Config{})
				defer w.Shutdown()
				elapsed := nas.RunClass(w, k, b.opt.NASClass).Seconds()
				census(w.Profile())
				return elapsed
			})
		}
		return nil
	}
}

func probeNFS(fs *flag.FlagSet) func(*probeBuild) error {
	transport := fs.String("transport", "rdma", "transport: rdma, tcp-rc or tcp-ud")
	threads := fs.Int("threads", 1, "IOzone client threads")
	record := fs.Int("record", 256<<10, "record size in bytes")
	write := fs.Bool("write", false, "measure writes instead of reads")
	lan := fs.Bool("lan", false, "mount within one cluster (DDR, no Longbows)")
	return func(b *probeBuild) error {
		transport, lan := *transport, *lan
		cfg := nfs.IOzoneConfig{FileSize: int64(b.opt.NFSFileMB) << 20, RecordSize: *record, Threads: *threads, Write: *write}
		err := firstOf(oneOf("transport", transport, "rdma", "tcp-rc", "tcp-ud"),
			atLeast("threads", *threads, 1), atLeast("record", *record, 1))
		if err == nil && lan && b.d != 0 {
			err = errors.New("-lan mounts inside one cluster: -delay does not apply")
		}
		if err != nil {
			return err
		}
		b.point(b.table("", throughput).AddSeries(transport), func(m *Meter) float64 {
			return nfsPoint(m, transport, lan, b.d, cfg)
		})
		return nil
	}
}
