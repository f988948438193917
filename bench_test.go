package repro

// One benchmark per table and figure of the paper's evaluation. Each runs
// a representative point (or contrast pair) of the corresponding
// experiment on the simulated testbed and reports the headline values as
// custom metrics. Full sweeps, with every series and size, come from
// cmd/ibwan-exp (e.g. `go run ./cmd/ibwan-exp fig5`).
//
// Metrics ending in _MBps are MillionBytes/s as the paper reports
// bandwidth; _us are microseconds; _x are ratios.

import (
	"io"
	"runtime"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/ib"
	"repro/internal/ipoib"
	"repro/internal/mpi"
	"repro/internal/nas"
	"repro/internal/nfs"
	"repro/internal/perftest"
	"repro/internal/pfs"
	"repro/internal/sdp"
	"repro/internal/sim"
	"repro/internal/tcpsim"
	"repro/internal/wan"
)

// pair builds the standard one-node-per-cluster WAN testbed.
func pair(delay sim.Time) (*sim.Env, *cluster.Testbed) {
	env := sim.NewEnv()
	tb := cluster.New(env, cluster.Config{NodesA: 1, NodesB: 1, Delay: delay})
	return env, tb
}

// Harness benchmarks: the full Quick regeneration through the registry +
// parallel runner, sequentially and at GOMAXPROCS workers. Comparing the
// two tracks the harness speedup on multicore hosts; the repository
// benchmark (`sh bench/run.sh`) reports it as core.par_speedup_x, with
// per-family wall times as core.family.*.wall_ms.

func BenchmarkHarnessRunAllQuickSeq(b *testing.B) {
	b.ReportAllocs()
	var events int64
	for i := 0; i < b.N; i++ {
		results := core.RunAllWith(io.Discard, core.Options{Quick: true}, core.RunnerOptions{Workers: 1})
		events = 0
		for _, r := range results {
			events += r.Metrics.Events
		}
	}
	b.ReportMetric(float64(events), "sim_events")
	reportKernelRate(b, int64(b.N)*events)
}

func BenchmarkHarnessRunAllQuickPar(b *testing.B) {
	b.ReportAllocs()
	workers := runtime.GOMAXPROCS(0)
	var events int64
	for i := 0; i < b.N; i++ {
		results := core.RunAllWith(io.Discard, core.Options{Quick: true}, core.RunnerOptions{Workers: workers})
		events = 0
		for _, r := range results {
			events += r.Metrics.Events
		}
	}
	b.ReportMetric(float64(workers), "workers")
	reportKernelRate(b, int64(b.N)*events)
}

func BenchmarkTable1_DelayDistance(b *testing.B) {
	b.ReportAllocs()
	var last sim.Time
	for i := 0; i < b.N; i++ {
		for _, km := range []float64{10, 20, 200, 2000, 20000} {
			d, err := wan.DelayForDistance(km)
			if err != nil {
				b.Fatal(err)
			}
			last = d
		}
	}
	b.ReportMetric(last.Microseconds(), "delay20000km_us")
}

func BenchmarkFig3_VerbsLatency(b *testing.B) {
	b.ReportAllocs()
	var rc, ud, wr sim.Time
	var events int64
	for i := 0; i < b.N; i++ {
		env1, tb1 := pair(0)
		rc = perftest.SendLatency(env1, tb1.A[0].HCA, tb1.B[0].HCA, ib.RC, 8, 50)
		env2, tb2 := pair(0)
		ud = perftest.SendLatency(env2, tb2.A[0].HCA, tb2.B[0].HCA, ib.UD, 8, 50)
		env3, tb3 := pair(0)
		wr = perftest.WriteLatency(env3, tb3.A[0].HCA, tb3.B[0].HCA, 8, 50)
		events += env1.Executed() + env2.Executed() + env3.Executed()
	}
	b.ReportMetric(rc.Microseconds(), "sendrecv_rc_us")
	b.ReportMetric(ud.Microseconds(), "sendrecv_ud_us")
	b.ReportMetric(wr.Microseconds(), "rdmawrite_rc_us")
	reportKernelRate(b, events)
}

func BenchmarkFig4_VerbsUDBandwidth(b *testing.B) {
	b.ReportAllocs()
	var near, far float64
	var events int64
	for i := 0; i < b.N; i++ {
		env1, tb1 := pair(0)
		near = perftest.BandwidthUD(env1, tb1.A[0].HCA, tb1.B[0].HCA, ib.MaxUDPayload, 1000)
		env2, tb2 := pair(sim.Micros(10000))
		far = perftest.BandwidthUD(env2, tb2.A[0].HCA, tb2.B[0].HCA, ib.MaxUDPayload, 1000)
		events += env1.Executed() + env2.Executed()
	}
	b.ReportMetric(near, "bw_nodelay_MBps")
	b.ReportMetric(far, "bw_10ms_MBps")
	b.ReportMetric(far/near, "delay_independence_x")
	reportKernelRate(b, events)
}

func BenchmarkFig5_VerbsRCBandwidth(b *testing.B) {
	b.ReportAllocs()
	var medium, large float64
	var events int64
	for i := 0; i < b.N; i++ {
		env1, tb1 := pair(sim.Micros(1000))
		medium = perftest.BandwidthRC(env1, tb1.A[0].HCA, tb1.B[0].HCA, 64<<10, 128, 0)
		env2, tb2 := pair(sim.Micros(1000))
		large = perftest.BandwidthRC(env2, tb2.A[0].HCA, tb2.B[0].HCA, 4<<20, 16, 0)
		events += env1.Executed() + env2.Executed()
	}
	b.ReportMetric(medium, "bw_64K_1ms_MBps")
	b.ReportMetric(large, "bw_4M_1ms_MBps")
	b.ReportMetric(large/medium, "large_msg_advantage_x")
	reportKernelRate(b, events)
}

// tcpBW measures aggregate TCP throughput with the given streams/delay,
// returning the bandwidth and the number of simulation events executed.
func tcpBW(bnch *testing.B, mode ipoib.Mode, streams int, delay sim.Time, window int) (float64, int64) {
	bnch.Helper()
	env := sim.NewEnv()
	tb := cluster.New(env, cluster.Config{NodesA: 1, NodesB: 1, Delay: delay})
	net := ipoib.NewNetwork()
	sa := tcpsim.NewStack(net.Attach(tb.A[0].HCA, mode, 0), tcpsim.Config{Window: window})
	sb := tcpsim.NewStack(net.Attach(tb.B[0].HCA, mode, 0), tcpsim.Config{Window: window})
	for i := 0; i < streams; i++ {
		port := 5000 + i
		ln := sb.Listen(port)
		env.Go("srv", func(p *sim.Proc) { ln.Accept(p) })
		env.Go("cli", func(p *sim.Proc) {
			c, err := sa.Dial(p, sb.Addr(), port)
			if err != nil {
				panic(err)
			}
			for {
				c.WriteSynthetic(p, 2<<20)
			}
		})
	}
	dur := 40*sim.Millisecond + 40*delay
	env.RunUntil(dur / 2)
	mid := sb.Stats().RxBytes
	env.RunUntil(dur)
	bw := float64(sb.Stats().RxBytes-mid) / (dur / 2).Seconds() / 1e6
	env.Shutdown()
	return bw, env.Executed()
}

func BenchmarkFig6_IPoIBUD(b *testing.B) {
	b.ReportAllocs()
	var single, multi float64
	var events, ev int64
	for i := 0; i < b.N; i++ {
		single, ev = tcpBW(b, ipoib.Datagram, 1, sim.Micros(10000), 0)
		events += ev
		multi, ev = tcpBW(b, ipoib.Datagram, 8, sim.Micros(10000), 0)
		events += ev
	}
	b.ReportMetric(single, "single_stream_10ms_MBps")
	b.ReportMetric(multi, "eight_streams_10ms_MBps")
	b.ReportMetric(multi/single, "parallel_gain_x")
	reportKernelRate(b, events)
}

func BenchmarkFig7_IPoIBRC(b *testing.B) {
	b.ReportAllocs()
	var near, far float64
	var events, ev int64
	for i := 0; i < b.N; i++ {
		near, ev = tcpBW(b, ipoib.Connected, 1, sim.Micros(100), 0)
		events += ev
		far, ev = tcpBW(b, ipoib.Connected, 1, sim.Micros(10000), 0)
		events += ev
	}
	b.ReportMetric(near, "bw_100us_MBps")
	b.ReportMetric(far, "bw_10ms_MBps")
	b.ReportMetric(near/far, "sharp_drop_x")
	reportKernelRate(b, events)
}

func mpiPair(delay sim.Time, cfg mpi.Config) *mpi.World {
	env := sim.NewEnv()
	tb := cluster.New(env, cluster.Config{NodesA: 1, NodesB: 1, Delay: delay})
	return mpi.NewWorld(env, []*cluster.Node{tb.A[0], tb.B[0]}, cfg)
}

func BenchmarkFig8_MPIBandwidth(b *testing.B) {
	b.ReportAllocs()
	var peak, medium1ms float64
	var events int64
	for i := 0; i < b.N; i++ {
		w1 := mpiPair(0, mpi.Config{})
		peak = mpi.Bandwidth(w1, 1<<20, 2)
		w1.Shutdown()
		events += w1.Env().Executed()
		w2 := mpiPair(sim.Micros(1000), mpi.Config{})
		medium1ms = mpi.Bandwidth(w2, 16<<10, 4)
		w2.Shutdown()
		events += w2.Env().Executed()
	}
	b.ReportMetric(peak, "peak_MBps")
	b.ReportMetric(medium1ms, "bw_16K_1ms_MBps")
	reportKernelRate(b, events)
}

func BenchmarkFig9_ThresholdTuning(b *testing.B) {
	b.ReportAllocs()
	var orig, tuned float64
	var events int64
	for i := 0; i < b.N; i++ {
		w1 := mpiPair(sim.Micros(1000), mpi.Config{})
		orig = mpi.Bandwidth(w1, 16<<10, 4)
		w1.Shutdown()
		events += w1.Env().Executed()
		w2 := mpiPair(sim.Micros(1000), mpi.Config{EagerThreshold: core.TunedThreshold})
		tuned = mpi.Bandwidth(w2, 16<<10, 4)
		w2.Shutdown()
		events += w2.Env().Executed()
	}
	b.ReportMetric(orig, "orig_8K_thresh_MBps")
	b.ReportMetric(tuned, "tuned_64K_thresh_MBps")
	b.ReportMetric((tuned/orig-1)*100, "improvement_pct")
	reportKernelRate(b, events)
}

func BenchmarkFig10_MessageRate(b *testing.B) {
	b.ReportAllocs()
	var events int64
	rate := func(pairs int) float64 {
		env := sim.NewEnv()
		tb := cluster.New(env, cluster.Config{NodesA: pairs, NodesB: pairs, Delay: sim.Micros(1000)})
		var nodes []*cluster.Node
		nodes = append(nodes, tb.A...)
		nodes = append(nodes, tb.B...)
		w := mpi.NewWorld(env, nodes, mpi.Config{})
		r := mpi.MessageRate(w, pairs, 1024, 2)
		w.Shutdown()
		events += env.Executed()
		return r
	}
	var four, sixteen float64
	for i := 0; i < b.N; i++ {
		four = rate(4)
		sixteen = rate(16)
	}
	b.ReportMetric(four, "4pairs_Mmsgs")
	b.ReportMetric(sixteen, "16pairs_Mmsgs")
	b.ReportMetric(sixteen/four, "scaling_x")
	reportKernelRate(b, events)
}

func BenchmarkFig11_Broadcast(b *testing.B) {
	b.ReportAllocs()
	var events int64
	lat := func(hier bool) sim.Time {
		env := sim.NewEnv()
		tb := cluster.New(env, cluster.Config{NodesA: 16, NodesB: 16, Delay: sim.Micros(1000)})
		w := mpi.NewWorld(env, mpi.BlockPlacement(tb.Nodes(), 2), mpi.Config{})
		r := mpi.BcastLatency(w, 128<<10, 2, hier)
		w.Shutdown()
		events += env.Executed()
		return r
	}
	var orig, hier sim.Time
	for i := 0; i < b.N; i++ {
		orig = lat(false)
		hier = lat(true)
	}
	b.ReportMetric(orig.Microseconds(), "original_128K_1ms_us")
	b.ReportMetric(hier.Microseconds(), "hierarchical_128K_1ms_us")
	b.ReportMetric((1-float64(hier)/float64(orig))*100, "improvement_pct")
	reportKernelRate(b, events)
}

func BenchmarkFig12_NAS(b *testing.B) {
	b.ReportAllocs()
	var events int64
	run := func(kernel string, delay sim.Time) sim.Time {
		env := sim.NewEnv()
		tb := cluster.New(env, cluster.Config{NodesA: 8, NodesB: 8, Delay: delay})
		var nodes []*cluster.Node
		nodes = append(nodes, tb.A...)
		nodes = append(nodes, tb.B...)
		w := mpi.NewWorld(env, nodes, mpi.Config{})
		r := nas.RunClass(w, kernel, "A")
		w.Shutdown()
		events += env.Executed()
		return r
	}
	var isSlow, cgSlow float64
	for i := 0; i < b.N; i++ {
		isSlow = float64(run(nas.IS, sim.Micros(10000))) / float64(run(nas.IS, 0))
		cgSlow = float64(run(nas.CG, sim.Micros(10000))) / float64(run(nas.CG, 0))
	}
	b.ReportMetric(isSlow, "IS_slowdown_10ms_x")
	b.ReportMetric(cgSlow, "CG_slowdown_10ms_x")
	reportKernelRate(b, events)
}

func BenchmarkFig13_NFS(b *testing.B) {
	b.ReportAllocs()
	var events int64
	read := func(transport string, delay sim.Time) float64 {
		env, tb := pair(delay)
		var srv *nfs.Server
		var cl *nfs.Client
		switch transport {
		case "rdma":
			srv, cl = nfs.MountRDMA(tb.B[0], tb.A[0])
		case "tcp-rc":
			srv, cl, _ = nfs.MountTCP(env, tb.B[0], tb.A[0], ipoib.Connected)
		}
		srv.AddSyntheticFile("f", 32<<20)
		r := nfs.IOzone(env, cl, "f", nfs.IOzoneConfig{FileSize: 32 << 20, Threads: 8})
		env.Shutdown()
		events += env.Executed()
		return r
	}
	var rdma100, rc100, rdma1ms, rc1ms float64
	for i := 0; i < b.N; i++ {
		rdma100 = read("rdma", sim.Micros(100))
		rc100 = read("tcp-rc", sim.Micros(100))
		rdma1ms = read("rdma", sim.Micros(1000))
		rc1ms = read("tcp-rc", sim.Micros(1000))
	}
	b.ReportMetric(rdma100, "rdma_100us_MBps")
	b.ReportMetric(rc100, "ipoibrc_100us_MBps")
	b.ReportMetric(rdma1ms, "rdma_1ms_MBps")
	b.ReportMetric(rc1ms, "ipoibrc_1ms_MBps")
	reportKernelRate(b, events)
}

// Ablations for the design choices DESIGN.md calls out.

func BenchmarkAblationRCWindow(b *testing.B) {
	// The RC in-flight window is the mechanism behind Fig. 5: widen it
	// and medium messages survive high delay.
	b.ReportAllocs()
	var narrow, wide float64
	var events int64
	for i := 0; i < b.N; i++ {
		env1, tb1 := pair(sim.Micros(1000))
		narrow = perftest.BandwidthRC(env1, tb1.A[0].HCA, tb1.B[0].HCA, 64<<10, 128, 8)
		env2, tb2 := pair(sim.Micros(1000))
		wide = perftest.BandwidthRC(env2, tb2.A[0].HCA, tb2.B[0].HCA, 64<<10, 128, 64)
		events += env1.Executed() + env2.Executed()
	}
	b.ReportMetric(narrow, "window8_MBps")
	b.ReportMetric(wide, "window64_MBps")
	reportKernelRate(b, events)
}

func BenchmarkAblationCoalescing(b *testing.B) {
	// Message coalescing: 2000 x 128 B records across a 1 ms link,
	// individually vs packed into 64 KB carriers.
	b.ReportAllocs()
	var events int64
	elapsed := func(coalesced bool) sim.Time {
		w := mpiPair(sim.Micros(1000), mpi.Config{})
		defer func() {
			w.Shutdown()
			events += w.Env().Executed()
		}()
		return w.Run(func(r *mpi.Rank, p *sim.Proc) {
			const records = 2000
			switch r.ID() {
			case 0:
				if coalesced {
					co := core.NewCoalescer(r, 1, 5, 0)
					for j := 0; j < records; j++ {
						co.Add(p, make([]byte, 128))
					}
					co.Wait(p)
				} else {
					var reqs []*mpi.Request
					for j := 0; j < records; j++ {
						reqs = append(reqs, r.Isend(p, 1, 5, make([]byte, 128), 0))
					}
					mpi.WaitAll(p, reqs)
				}
			case 1:
				if coalesced {
					rc := core.NewCoalescedReceiver(r, 0, 5, 0)
					for j := 0; j < records; j++ {
						rc.Next(p)
					}
				} else {
					for j := 0; j < records; j++ {
						r.Recv(p, 0, 5, nil, 128)
					}
				}
			}
		})
	}
	var plain, coal sim.Time
	for i := 0; i < b.N; i++ {
		plain = elapsed(false)
		coal = elapsed(true)
	}
	b.ReportMetric(plain.Microseconds(), "individual_us")
	b.ReportMetric(coal.Microseconds(), "coalesced_us")
	b.ReportMetric(float64(plain)/float64(coal), "speedup_x")
	reportKernelRate(b, events)
}

func BenchmarkAblationHierCollectives(b *testing.B) {
	// The paper's future work, implemented: hierarchical barrier and
	// allreduce vs their flat counterparts at 1 ms delay, 16+16 ranks.
	b.ReportAllocs()
	var events int64
	measure := func(hier bool) sim.Time {
		env := sim.NewEnv()
		tb := cluster.New(env, cluster.Config{NodesA: 16, NodesB: 16, Delay: sim.Micros(1000)})
		var nodes []*cluster.Node
		nodes = append(nodes, tb.A...)
		nodes = append(nodes, tb.B...)
		w := mpi.NewWorld(env, nodes, mpi.Config{})
		defer func() {
			w.Shutdown()
			events += env.Executed()
		}()
		return w.Run(func(r *mpi.Rank, p *sim.Proc) {
			vals := []float64{float64(r.ID())}
			for i := 0; i < 3; i++ {
				if hier {
					r.HierBarrier(p)
					r.HierAllreduce(p, vals)
				} else {
					r.Barrier(p)
					r.Allreduce(p, vals)
				}
			}
		})
	}
	var flat, hier sim.Time
	for i := 0; i < b.N; i++ {
		flat = measure(false)
		hier = measure(true)
	}
	b.ReportMetric(flat.Microseconds(), "flat_us")
	b.ReportMetric(hier.Microseconds(), "hierarchical_us")
	b.ReportMetric(float64(flat)/float64(hier), "speedup_x")
	reportKernelRate(b, events)
}

func BenchmarkAblationSDPvsIPoIB(b *testing.B) {
	// Related-work extension (Prescott & Taylor): SDP carries socket
	// streams at near wire speed over the Longbows, while IPoIB pays the
	// TCP/IP host-processing ceiling.
	b.ReportAllocs()
	var events int64
	sdpBW := func() float64 {
		env := sim.NewEnv()
		tb := cluster.New(env, cluster.Config{NodesA: 1, NodesB: 1})
		defer func() {
			env.Shutdown()
			events += env.Executed()
		}()
		ln := sdp.Listen(tb.B[0], 7000)
		defer ln.Close()
		var srv *sdp.Conn
		env.Go("srv", func(p *sim.Proc) { srv = ln.Accept(p) })
		var elapsed sim.Time
		env.Go("cli", func(p *sim.Proc) {
			c := sdp.Dial(p, tb.A[0], tb.B[0], 7000)
			start := p.Now()
			const total = 64 << 20
			for sent := 0; sent < total; sent += 1 << 20 {
				c.WriteSynthetic(p, 1<<20)
			}
			for srv == nil || srv.Delivered() < total {
				p.Sleep(100 * sim.Microsecond)
			}
			elapsed = p.Now() - start
			env.Stop()
		})
		env.Run()
		return float64(64<<20) / elapsed.Seconds() / 1e6
	}
	var s, u float64
	var ev int64
	for i := 0; i < b.N; i++ {
		s = sdpBW()
		u, ev = tcpBW(b, ipoib.Datagram, 1, 0, 0)
		events += ev
	}
	b.ReportMetric(s, "sdp_MBps")
	b.ReportMetric(u, "ipoib_ud_MBps")
	b.ReportMetric(s/u, "sdp_advantage_x")
	reportKernelRate(b, events)
}

func BenchmarkAblationPFSStriping(b *testing.B) {
	// Future-work extension: striping a file across object servers
	// multiplies in-flight data over a high-delay WAN (1 OSS vs 4 OSS at
	// 1 ms, 8 reader threads).
	b.ReportAllocs()
	var events int64
	measure := func(oss int) float64 {
		env := sim.NewEnv()
		tb := cluster.New(env, cluster.Config{NodesA: 1, NodesB: oss, Delay: sim.Micros(1000)})
		fs := pfs.New(tb.B, 0)
		fs.AddSyntheticFile("f", 64<<20)
		cl := fs.Mount(tb.A[0])
		r := pfs.Throughput(env, cl, "f", 8, 1<<20)
		env.Shutdown()
		events += env.Executed()
		return r
	}
	var one, four float64
	for i := 0; i < b.N; i++ {
		one = measure(1)
		four = measure(4)
	}
	b.ReportMetric(one, "oss1_MBps")
	b.ReportMetric(four, "oss4_MBps")
	b.ReportMetric(four/one, "striping_gain_x")
	reportKernelRate(b, events)
}

func BenchmarkAblationAdaptiveThreshold(b *testing.B) {
	// AutoTune vs static default across a sweep of delays: the adaptive
	// threshold tracks the best static choice at each distance.
	b.ReportAllocs()
	var static1ms, adaptive1ms float64
	var events int64
	for i := 0; i < b.N; i++ {
		w1 := mpiPair(sim.Micros(1000), mpi.Config{})
		static1ms = mpi.Bandwidth(w1, 32<<10, 2)
		w1.Shutdown()
		events += w1.Env().Executed()
		w2 := mpiPair(sim.Micros(1000), core.TuneForDelay(sim.Micros(1000)))
		adaptive1ms = mpi.Bandwidth(w2, 32<<10, 2)
		w2.Shutdown()
		events += w2.Env().Executed()
	}
	b.ReportMetric(static1ms, "static_MBps")
	b.ReportMetric(adaptive1ms, "adaptive_MBps")
	reportKernelRate(b, events)
}
