package repro

// DES-kernel microbenchmarks: the hot paths every experiment in the paper
// reproduction is wall-time-bound by. Each reports, besides ns/op
// and allocs/op, the machine-independent events/op (heap entries
// dispatched per benchmark op, via Env.Executed()) and the headline
// events/s rate. Run them with
//
//	go test -run='^$' -bench=Kernel -benchmem .
//
// CI runs the same selector at -benchtime=50x as a smoke test so these can
// never silently rot. The recorded numbers are the repository benchmark's:
// `sh bench/run.sh --trace 1` measures the same paths as its sim.* and ib.*
// per-layer metrics.

import (
	"bytes"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/ib"
	"repro/internal/ipoib"
	"repro/internal/mpi"
	"repro/internal/nfs"
	"repro/internal/perftest"
	"repro/internal/sim"
	"repro/internal/tcpsim"
	"repro/internal/topo"
)

// reportKernelRate attaches the events/s and events/op metrics.
func reportKernelRate(b *testing.B, events int64) {
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(events)/s, "events/s")
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
}

// BenchmarkKernelSchedule measures the bare schedule+dispatch cycle: a
// fixed fan of self-rescheduling timers keeps the heap at a realistic
// depth (64 pending entries) while b.N entries pass through it.
func BenchmarkKernelSchedule(b *testing.B) {
	env := sim.NewEnv()
	scheduled := 0
	var tick func()
	tick = func() {
		if scheduled < b.N {
			scheduled++
			env.At(sim.Microsecond, tick)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	seed := 64
	if seed > b.N {
		seed = b.N
	}
	for i := 0; i < seed; i++ {
		scheduled++
		env.At(sim.Time(i), tick)
	}
	env.Run()
	b.StopTimer()
	reportKernelRate(b, env.Executed())
}

// BenchmarkKernelProcHandoff measures the process path: each op is one
// Sleep — an event, a timer entry, a trigger and a scheduler->process
// handoff and back.
func BenchmarkKernelProcHandoff(b *testing.B) {
	env := sim.NewEnv()
	b.ReportAllocs()
	b.ResetTimer()
	env.Go("sleeper", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(sim.Nanosecond)
		}
	})
	env.Run()
	b.StopTimer()
	env.Shutdown()
	reportKernelRate(b, env.Executed())
}

// BenchmarkKernelProcSpawn measures a process's whole life on a warm
// carrier pool: each op is one Go, the first activation, the body's return
// and the carrier's trip back to the free list. allocs/op is the figure to
// read — the Proc itself; a cold carrier would add ten.
func BenchmarkKernelProcSpawn(b *testing.B) {
	env := sim.NewEnv()
	body := func(p *sim.Proc) {}
	env.Go("warm", body)
	env.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env.Go("spawned", body)
		env.Run()
	}
	b.StopTimer()
	reportKernelRate(b, env.Executed())
}

// TestKernelProcAllocs holds the process substrate's allocation budgets:
// a warm spawn run to completion is the Proc and little else, and a Sleep
// round trip — timer entry, trigger, switch to the process and back —
// allocates nothing.
func TestKernelProcAllocs(t *testing.T) {
	env := sim.NewEnv()
	body := func(p *sim.Proc) {}
	spawn := testing.AllocsPerRun(1000, func() {
		env.Go("spawned", body)
		env.Run()
	})
	if spawn > 2 {
		t.Errorf("warm Go+Run: %v allocs, want <= 2", spawn)
	}
	env.Go("sleeper", func(p *sim.Proc) {
		for {
			p.Sleep(sim.Microsecond)
		}
	})
	sleep := testing.AllocsPerRun(1000, func() {
		env.RunUntil(env.Now() + sim.Microsecond)
	})
	if sleep != 0 {
		t.Errorf("Sleep round trip: %v allocs, want 0", sleep)
	}
	env.Shutdown()
}

// BenchmarkKernelQueue measures the blocking producer/consumer channel: a
// bounded queue forces both put-side and get-side waits (the engines left on
// a queue — sdp's sender, the RPC/TCP writer and reply queues — take only
// the get side).
func BenchmarkKernelQueue(b *testing.B) {
	env := sim.NewEnv()
	q := sim.NewQueue[int](env, 16)
	b.ReportAllocs()
	b.ResetTimer()
	env.Go("producer", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			q.Put(p, i)
		}
	})
	env.Go("consumer", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			q.Get(p)
		}
	})
	env.Run()
	b.StopTimer()
	env.Shutdown()
	reportKernelRate(b, env.Executed())
}

// BenchmarkKernelRCStream measures the full simulation hot path end to
// end: b.N 64 KB messages streamed over an RC QP through the two-cluster
// testbed — packetization at the MTU, switch forwarding, link
// serialization, reassembly, acks and completions.
func BenchmarkKernelRCStream(b *testing.B) {
	env, tb := pair(0)
	b.ReportAllocs()
	b.ResetTimer()
	perftest.BandwidthRC(env, tb.A[0].HCA, tb.B[0].HCA, 64<<10, b.N, 0)
	b.StopTimer()
	reportKernelRate(b, env.Executed())
}

// BenchmarkKernelRCStreamWAN10ms is the deep-pipe case the paper is about:
// the same stream across a 10 ms WAN with a window wide enough to fill it,
// so up to 512 messages — sixteen thousand MTU packets — are in flight at
// once. They wait out the delay in the WAN ports' sim.Pipes rather than in
// the event heap; ns/op here against BenchmarkKernelRCStream is what a
// long pipe costs the simulator.
func BenchmarkKernelRCStreamWAN10ms(b *testing.B) {
	env, tb := pair(10 * sim.Millisecond)
	b.ReportAllocs()
	b.ResetTimer()
	perftest.BandwidthRC(env, tb.A[0].HCA, tb.B[0].HCA, 64<<10, b.N, 512)
	b.StopTimer()
	reportKernelRate(b, env.Executed())
}

// BenchmarkKernelTCPStreamUD measures the TCP/IPoIB per-segment path: each
// op streams 64 MB of synthetic payload over IPoIB-UD between two stacks on
// the zero-delay testbed — 33 K segments and their acks through both stacks'
// transmit and receive servers and both interfaces' completion handlers.
// The only processes are the writing client and a server that accepts and
// leaves the stream unread: the receiver's Delivered count is the check.
// Besides events/s it reports ns/MB, the figure the benchmark's
// tcpsim.ud_stream driver tracks.
func BenchmarkKernelTCPStreamUD(b *testing.B) {
	const opBytes = 64 << 20
	env, tb := pair(0)
	net := ipoib.NewNetwork()
	sa := tcpsim.NewStack(net.Attach(tb.A[0].HCA, ipoib.Datagram, 0), tcpsim.Config{})
	sb := tcpsim.NewStack(net.Attach(tb.B[0].HCA, ipoib.Datagram, 0), tcpsim.Config{})
	ln := sb.Listen(5000)
	var sink *tcpsim.Conn
	b.ReportAllocs()
	b.ResetTimer()
	env.Go("server", func(p *sim.Proc) { sink, _ = ln.Accept(p) })
	env.Go("client", func(p *sim.Proc) {
		c, err := sa.Dial(p, sb.Addr(), 5000)
		for i := 0; i < b.N && err == nil; i++ {
			err = c.WriteSynthetic(p, opBytes)
		}
		if err != nil {
			b.Error(err)
		}
	})
	env.Run()
	b.StopTimer()
	if sink == nil {
		b.Fatal("stream never connected")
	}
	if got := sink.Delivered(); got != int64(b.N)*opBytes {
		b.Fatalf("stream incomplete: receiver accepted %d of %d bytes", got, int64(b.N)*opBytes)
	}
	env.Shutdown()
	reportKernelRate(b, env.Executed())
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*(opBytes>>20)), "ns/MB")
}

// BenchmarkKernelRCStreamTelemetryOff is the telemetry regression guard:
// the same RC stream as BenchmarkKernelRCStream on an environment with no
// telemetry attached (nil registry, nil recorder). Every instrumentation
// site in the fabric sits behind a single nil check, so this must match
// the uninstrumented baseline (`sh bench/run.sh --trace 1`:
// ib.rc_stream.allocs_per_msg) — the disabled observability path adds zero
// allocations to the hot path.
func BenchmarkKernelRCStreamTelemetryOff(b *testing.B) {
	env, tb := pair(0)
	b.ReportAllocs()
	b.ResetTimer()
	perftest.BandwidthRC(env, tb.A[0].HCA, tb.B[0].HCA, 64<<10, b.N, 0)
	b.StopTimer()
	reportKernelRate(b, env.Executed())
}

// BenchmarkKernelWorldBuild measures world construction, which the
// multi-site families pay once per point: each op compiles the mesh4 preset
// (4 sites of 4 nodes, a WAN link per site pair) and builds a 32-rank MPI
// world on the two-site preset partitioned into 2 shards, where NewWorld
// pre-connects every cross-shard rank pair. allocs/op is the figure to read:
// a queue pair and a link are one object each.
func BenchmarkKernelWorldBuild(b *testing.B) {
	mesh, err := topo.Preset("mesh4", 4, sim.Millisecond)
	if err != nil {
		b.Fatal(err)
	}
	paper, err := topo.Preset("paper", 16, sim.Millisecond)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		env := sim.NewEnv()
		if _, err := topo.Build(env, mesh); err != nil {
			b.Fatal(err)
		}
		env.Shutdown()
		env = sim.NewEnv()
		env.SetShardWorkers(2)
		nw, err := topo.Build(env, paper)
		if err != nil {
			b.Fatal(err)
		}
		if !env.Sharded() {
			b.Fatal("the two-site world did not partition")
		}
		mpi.NewWorld(nw.Env, nw.Nodes(), mpi.Config{})
		env.Shutdown()
	}
}

// collWorld builds an MPI world of one rank per node on a topology preset
// of two nodes per site across 1 ms WAN links, on one environment.
func collWorld(tb testing.TB, preset string) *mpi.World {
	spec, err := topo.Preset(preset, 2, sim.Millisecond)
	if err != nil {
		tb.Fatal(err)
	}
	nw, err := topo.Build(sim.NewEnv(), spec)
	if err != nil {
		tb.Fatal(err)
	}
	return mpi.NewWorld(nw.Env, nw.Nodes(), mpi.Config{})
}

// allreduceAll runs calls 8-element reductions on every rank of w, the
// hierarchical allreduce when hier is set.
func allreduceAll(w *mpi.World, calls int, hier bool) {
	vec := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	w.Run(func(r *mpi.Rank, p *sim.Proc) {
		for i := 0; i < calls; i++ {
			if hier {
				r.HierAllreduce(p, vec)
			} else {
				r.Allreduce(p, vec)
			}
		}
	})
}

// BenchmarkKernelAllreduce measures a warm 8-element Allreduce over 4 ranks,
// two on each side of the paper's testbed: each op is one call on every
// rank. allocs/op is the figure to read, 0: the accumulator, the wire
// encoding, the landing buffer and the broadcast's group are the ranks' own.
func BenchmarkKernelAllreduce(b *testing.B) {
	w := collWorld(b, "paper")
	defer w.Shutdown()
	allreduceAll(w, 1, false) // connects the ranks and grows their scratch
	start := w.Env().Executed()
	b.ReportAllocs()
	b.ResetTimer()
	allreduceAll(w, b.N, false)
	b.StopTimer()
	reportKernelRate(b, w.Env().Executed()-start)
}

// TestKernelAllreduceAllocs is the collectives' object budget: a warm
// 8-element Allreduce over the paper's 4 ranks, and a warm HierAllreduce over
// star3's 6, allocate nothing per call. The figure is the difference of a
// 2 000- and a 1 000-call run of one world, so the runs' own processes
// cancel out, the least of three such pairs, rounded: an object or two per
// run (a ring doubling once more in the longer run) is not an object per
// call. A per-call encoding, accumulator or decoded result costs one object
// per rank.
func TestKernelAllreduceAllocs(t *testing.T) {
	const k = 1000
	for _, tc := range []struct {
		name, preset string
		hier         bool
	}{{"allreduce", "paper", false}, {"hier-allreduce", "star3", true}} {
		t.Run(tc.name, func(t *testing.T) {
			w := collWorld(t, tc.preset)
			defer w.Shutdown()
			mallocs := func(calls int) float64 {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				allreduceAll(w, calls, tc.hier)
				runtime.ReadMemStats(&after)
				return float64(after.Mallocs - before.Mallocs)
			}
			mallocs(k) // connects the ranks and grows their scratch and queues
			perCall := math.Inf(1)
			for range 3 {
				perCall = min(perCall, (mallocs(2*k)-mallocs(k))/k)
			}
			t.Logf("%s over %d ranks: %.3f objects per call", tc.name, w.Size(), perCall)
			if math.Round(perCall) > 0 {
				t.Errorf("a warm %s allocated %.2f objects per call, want 0", tc.name, perCall)
			}
		})
	}
}

// TestKernelRCStreamTelemetryOffAllocs enforces the disabled-path
// allocation budget as a plain test: the end-to-end RC stream must stay at
// the seed's <= 2 allocs per 64 KB message with telemetry off.
func TestKernelRCStreamTelemetryOffAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full benchmark")
	}
	r := testing.Benchmark(BenchmarkKernelRCStreamTelemetryOff)
	if a := r.AllocsPerOp(); a > 2 {
		t.Errorf("RC stream with telemetry disabled: %d allocs/op, want <= 2", a)
	}
}

// TestKernelRCStreamQueuesDisabledAllocs pins the congestion refactor's
// disabled path: with no QueueConfig on any link (the default), the
// bounded-queue support compiled into the port transmit path must add
// zero allocations — the end-to-end RC stream holds the seed's <= 2
// allocs per 64 KB message (`sh bench/run.sh --trace 1`:
// ib.rc_stream.allocs_per_msg).
func TestKernelRCStreamQueuesDisabledAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full benchmark")
	}
	r := testing.Benchmark(BenchmarkKernelRCStream)
	if a := r.AllocsPerOp(); a > 2 {
		t.Errorf("RC stream with queues disabled: %d allocs/op, want <= 2", a)
	}
}

// TestKernelNFSTCPReadAllocBytes is the byte budget of the one stack that
// moves file data through a socket: reading a synthetic file over
// NFS/IPoIB-RC must not allocate the bytes it reads. The records are lengths
// from the server's page cache to the client's caller — tcpsim spans, the RPC
// frame's bulkLen — and what is left per megabyte (four 256 KB records) is
// the socket's copies of the RPCs' headers and metadata, about 333 bytes.
// Materializing each record's zeroes in the socket reader made it a megabyte
// per megabyte; a pipe node and a record per RC retry timeout, each held for
// the whole timeout, made it 7.6 KB, and a handler process, request and
// reply per call 3.2 KB. A file with contents still arrives as its bytes.
func TestKernelNFSTCPReadAllocBytes(t *testing.T) {
	const fileMB = 64
	env, tb := pair(0)
	defer env.Shutdown()
	srv, cl, err := nfs.MountTCP(env, tb.B[0], tb.A[0], ipoib.Connected)
	if err != nil {
		t.Fatal(err)
	}
	srv.AddSyntheticFile("f", fileMB<<20)
	cfg := nfs.IOzoneConfig{FileSize: fileMB << 20, Threads: 8}
	nfs.IOzone(env, cl, "f", cfg) // the first pass grows the world's freelists and rings
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	nfs.IOzone(env, cl, "f", cfg)
	runtime.ReadMemStats(&after)
	perMB := float64(after.TotalAlloc-before.TotalAlloc) / fileMB
	t.Logf("%.0f bytes allocated per MB read", perMB)
	if perMB > 424 {
		t.Errorf("synthetic NFS/IPoIB-RC read allocated %.0f bytes per MB read, want <= 424", perMB)
	}

	content := make([]byte, 300_000)
	rand.New(rand.NewSource(13)).Read(content)
	srv.AddFile("data", content)
	got := make([]byte, len(content))
	env.Go("read-data", func(p *sim.Proc) {
		defer env.Stop()
		fh, _, err := cl.Lookup(p, "data")
		if err != nil {
			t.Error(err)
			return
		}
		if n, err := cl.Read(p, fh, 0, len(got), got); err != nil || n != len(got) {
			t.Errorf("Read = %d, %v, want %d", n, err, len(got))
		}
	})
	env.Run()
	if !bytes.Equal(got, content) {
		t.Error("a file with contents no longer reads back as its bytes")
	}
}

// TestKernelNFSReadCallAllocs is the RPC call path's object budget: the
// objects a warm 8-thread IOzone read of a synthetic file allocates per
// call, measured as the difference between a 128 MB and a 64 MB pass so the
// run's own processes cancel out, the least of three such pairs. Over RDMA that is at most one, as a
// call's record, wait event, fragment group and nfsd thread are all reused.
// Over IPoIB-RC it is at most four, the socket's own copies of the request's
// and the reply's header and metadata writes (tcpsim.Conn.Write keeps a copy
// of what it is given). A process per call, its closure and wait event and
// a fresh request, reply and metadata slices cost about seventeen.
func TestKernelNFSReadCallAllocs(t *testing.T) {
	for _, tc := range []struct {
		name string
		rdma bool
		max  float64
	}{{"rdma", true, 1}, {"ipoib-rc", false, 4}} {
		t.Run(tc.name, func(t *testing.T) {
			env, tb := pair(0)
			defer env.Shutdown()
			var srv *nfs.Server
			var cl *nfs.Client
			if tc.rdma {
				srv, cl = nfs.MountRDMA(tb.B[0], tb.A[0])
			} else {
				var err error
				if srv, cl, err = nfs.MountTCP(env, tb.B[0], tb.A[0], ipoib.Connected); err != nil {
					t.Fatal(err)
				}
			}
			srv.AddSyntheticFile("f", 128<<20)
			// pass returns the objects one IOzone read of the file's first
			// fileMB allocates and the calls it makes.
			pass := func(fileMB int64) (uint64, int64) {
				var before, after runtime.MemStats
				ops := srv.Ops()
				runtime.ReadMemStats(&before)
				nfs.IOzone(env, cl, "f", nfs.IOzoneConfig{FileSize: fileMB << 20, Threads: 8})
				runtime.ReadMemStats(&after)
				return after.Mallocs - before.Mallocs, srv.Ops() - ops
			}
			pass(128) // the first pass fills the freelists and starts the threads
			// The race runtime moves a pass's count by a few objects either
			// way, so the figure is the least of three pairs of passes.
			perCall := math.Inf(1)
			for range 3 {
				small, smallCalls := pass(64)
				large, largeCalls := pass(128)
				pc := (float64(large) - float64(small)) / float64(largeCalls-smallCalls)
				t.Logf("%.3f objects allocated per call (%d over %d calls, %d over %d)", pc, large, largeCalls, small, smallCalls)
				perCall = min(perCall, pc)
			}
			if perCall > tc.max {
				t.Errorf("warm NFS read over %s allocated %.2f objects per RPC call, want <= %v", tc.name, perCall, tc.max)
			}
		})
	}
}

// TestKernelUnreadStreamAllocBytes is the byte budget of the fig6/congest
// pattern: an IPoIB-UD TCP stream that the server accepts and never reads,
// counting delivered bytes instead. The receive buffer holds everything that
// arrives, and a synthetic run is one span however many segments brought it,
// so a megabyte delivered costs a small constant. When the buffer kept a span
// per segment it cost ~50 KB per MB, held for the whole run.
func TestKernelUnreadStreamAllocBytes(t *testing.T) {
	const warmMB, streamMB = 8, 64
	env, tb := pair(0)
	defer env.Shutdown()
	net := ipoib.NewNetwork()
	sa := tcpsim.NewStack(net.Attach(tb.A[0].HCA, ipoib.Datagram, 0), tcpsim.Config{})
	sb := tcpsim.NewStack(net.Attach(tb.B[0].HCA, ipoib.Datagram, 0), tcpsim.Config{})
	ln := sb.Listen(5000)
	var sink, c *tcpsim.Conn
	env.Go("server", func(p *sim.Proc) { sink, _ = ln.Accept(p) })
	stream := func(mb int) {
		env.Go("client", func(p *sim.Proc) {
			var err error
			if c == nil {
				c, err = sa.Dial(p, sb.Addr(), 5000)
			}
			if err == nil {
				err = c.WriteSynthetic(p, mb<<20)
			}
			if err != nil {
				t.Error(err)
			}
		})
		env.Run()
	}
	stream(warmMB) // the first megabytes grow the world's freelists and rings
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	stream(streamMB)
	runtime.ReadMemStats(&after)
	if sink == nil || sink.Delivered() != (warmMB+streamMB)<<20 {
		t.Fatal("the stream did not arrive whole")
	}
	perMB := float64(after.TotalAlloc-before.TotalAlloc) / streamMB
	t.Logf("%.0f bytes allocated per MB delivered", perMB)
	if perMB > 1<<10 {
		t.Errorf("an unread IPoIB-UD stream allocated %.0f bytes per MB delivered, want <= 1024", perMB)
	}
}

// TestKernelBlankRecvsStoreFlat: a QP's receive queue keeps consecutive
// blank receives (no buffer, no context — every production PostRecv) as one
// run, so posting more of them allocates nothing. An entry per receive was
// the largest single item of a paper-quick pass (IPoIB posts 1024 per QP).
func TestKernelBlankRecvsStoreFlat(t *testing.T) {
	env, tb := pair(0)
	defer env.Shutdown()
	qp := tb.A[0].HCA.CreateQP(ib.NewCQ(env), ib.QPConfig{Transport: ib.UD})
	qp.PostRecv(ib.RecvWR{})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 1<<16; i++ {
		qp.PostRecv(ib.RecvWR{})
	}
	runtime.ReadMemStats(&after)
	if b := after.TotalAlloc - before.TotalAlloc; b > 1<<10 {
		t.Errorf("posting 65536 blank receives allocated %d bytes, want <= 1024", b)
	}
}
