package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/ib"
	"repro/internal/ipoib"
	"repro/internal/mpi"
	"repro/internal/nas"
	"repro/internal/nfs"
	"repro/internal/perftest"
	"repro/internal/sdp"
	"repro/internal/sim"
	"repro/internal/tcpsim"
	"repro/internal/telemetry"
	"repro/internal/topo"
	"repro/internal/wan"
)

// The layer drivers: one fixed micro-workload per layer, driven through
// the layer's public functions only, each phase (build, attach, run,
// shutdown) under its own span. The measured phase is "run"; its wall time,
// allocation count and the world's executed events become the layer's
// ns/events/allocs per unit. Sizes are fixed so both commits of a
// comparison do identical work; shrink exists for the smoke test.

// drv is the state a driver function works against for one repetition.
type drv struct {
	tr     *tracer
	name   string
	op     int // span of this repetition
	shrink int
	seed   int64

	units  float64 // messages, iterations, MB ... the run phase processed
	events int64   // events the world executed
	ns     int64   // wall time of the run phase
	allocs uint64  // mallocs during the run phase
	extra  map[string]float64
}

// n scales a full-size count down for the smoke test.
func (d *drv) n(full int) int {
	n := full / d.shrink
	if n < 2 {
		n = 2
	}
	return n
}

func (d *drv) phase(name string, fn func()) { d.tr.in(d.op, d.name, name, fn) }

// run times the measured call.
func (d *drv) run(fn func()) {
	id := d.tr.begin(d.op, d.name, "run")
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	fn()
	d.ns += time.Since(t0).Nanoseconds()
	runtime.ReadMemStats(&m1)
	d.allocs += m1.Mallocs - m0.Mallocs
	d.tr.end(id, nil)
}

// pair builds the standard one-node-per-cluster WAN testbed.
func (d *drv) pair(delay sim.Time) (env *sim.Env, tb *cluster.Testbed) {
	d.phase("build", func() {
		env = sim.NewEnv()
		tb = cluster.New(env, cluster.Config{NodesA: 1, NodesB: 1, Delay: delay})
	})
	return env, tb
}

// world builds a na+nb-node two-site testbed.
func (d *drv) world(na, nb int, delay sim.Time) (env *sim.Env, tb *cluster.Testbed) {
	d.phase("build", func() {
		env = sim.NewEnv()
		tb = cluster.New(env, cluster.Config{NodesA: na, NodesB: nb, Delay: delay})
	})
	return env, tb
}

func (d *drv) shutdown(env *sim.Env) {
	d.phase("shutdown", env.Shutdown)
	d.events += env.Executed()
}

// layerDriver binds a driver function to the metrics it emits.
type layerDriver struct {
	name string   // metric prefix
	unit string   // what the rates are per
	emit []string // which of ns, events, allocs
	reps int
	fn   func(d *drv)
}

var layerDrivers = []layerDriver{
	{"sim.schedule", "event", []string{"ns", "allocs"}, 5, drvSchedule},
	{"sim.handoff", "op", []string{"ns", "allocs"}, 5, drvHandoff},
	{"sim.queue", "op", []string{"ns"}, 5, drvQueue},
	{"ib.rc_stream", "msg", []string{"ns", "events", "allocs"}, 3, drvRCStream},
	{"ib.rc_stream_bounded", "msg", []string{"ns", "events", "allocs"}, 3, drvRCStreamBounded},
	{"ib.ud_stream", "msg", []string{"ns", "allocs"}, 3, drvUDStream},
	{"ib.rc_pingpong", "iter", []string{"ns", "events"}, 3, drvRCPingPong},
	{"fault.rc_loss", "msg", []string{"ns"}, 3, drvRCLoss},
	{"congest", "", nil, 1, drvCongest},
	{"topo.build_mesh4", "world", []string{"ns", "allocs"}, 5, drvBuildMesh4},
	{"cluster.new_16x16", "world", []string{"ns", "allocs"}, 5, drvCluster16},
	{"tcpsim.ud_stream", "mb", []string{"ns", "events", "allocs"}, 3, func(d *drv) { drvTCPStream(d, ipoib.Datagram) }},
	{"tcpsim.rc_stream", "mb", []string{"ns", "events", "allocs"}, 3, func(d *drv) { drvTCPStream(d, ipoib.Connected) }},
	{"tcpsim.dial", "conn", []string{"ns"}, 3, drvTCPDial},
	{"sdp.stream", "mb", []string{"ns", "allocs"}, 3, drvSDPStream},
	{"mpi.newworld_32", "world", []string{"ns", "allocs"}, 5, drvNewWorld32},
	{"mpi.eager_pingpong", "iter", []string{"ns", "events", "allocs"}, 3, drvEagerPingPong},
	{"mpi.rndv_bw", "msg", []string{"ns", "events", "allocs"}, 3, drvRndvBW},
	{"mpi.hier_bcast_32", "op", []string{"ns", "events"}, 3, drvHierBcast32},
	{"mpi.msgrate_16pairs", "msg", []string{"ns"}, 3, drvMsgRate16},
	{"nas.is_w_16", "run", []string{"ns", "events"}, 3, drvNASIS},
	{"nfs.rdma_read", "mb", []string{"ns", "events", "allocs"}, 3, func(d *drv) { drvNFSRead(d, true) }},
	{"nfs.tcp_rc_read", "mb", []string{"ns", "events", "allocs"}, 3, func(d *drv) { drvNFSRead(d, false) }},
	{"nfs.mount", "mount", []string{"ns"}, 3, drvNFSMount},
}

// runLayerDrivers runs every driver reps times and emits its metrics: the
// median run time, the median allocation count and the (exactly repeating)
// event count, each per unit. A driver whose simulated counts differ
// between repetitions is reported as an error: the worlds are classic
// single-heap and deterministic.
func runLayerDrivers(tr *tracer, seed int64, shrink int, out metricSet) error {
	for _, ld := range layerDrivers {
		var ns, allocs []float64
		var first *drv
		for r := 0; r < ld.reps; r++ {
			d := &drv{tr: tr, name: ld.name, shrink: shrink, seed: seed, extra: map[string]float64{}}
			d.op = tr.begin(0, ld.name, fmt.Sprintf("%s#%d", ld.name, r))
			runtime.GC()
			ld.fn(d)
			tr.end(d.op, map[string]any{"events": d.events, "allocs": d.allocs, "units": d.units})
			ns = append(ns, float64(d.ns))
			allocs = append(allocs, float64(d.allocs))
			if first == nil {
				first = d
				continue
			}
			if d.events != first.events || d.units != first.units {
				return fmt.Errorf("driver %s: repetition %d ran %d events over %g units, repetition 0 ran %d over %g",
					ld.name, r, d.events, d.units, first.events, first.units)
			}
			for k, v := range d.extra {
				if first.extra[k] != v {
					return fmt.Errorf("driver %s: %s is %g on repetition %d, %g on repetition 0", ld.name, k, v, r, first.extra[k])
				}
			}
		}
		for _, what := range ld.emit {
			name := ld.name + "." + what + "_per_" + ld.unit
			switch what {
			case "ns":
				out.set(name, median(ns)/first.units)
			case "events":
				out.set(name, float64(first.events)/first.units)
			case "allocs":
				out.set(name, median(allocs)/first.units)
			}
		}
		for k, v := range first.extra {
			out.set(k, v)
		}
	}
	return nil
}

// drvSchedule keeps a 64-deep fan of self-rescheduling timers going: the
// bare schedule + dispatch cycle at a realistic heap depth.
func drvSchedule(d *drv) {
	total := d.n(400000)
	env := sim.NewEnv()
	scheduled := 0
	var tick func()
	tick = func() {
		if scheduled < total {
			scheduled++
			env.At(sim.Microsecond, tick)
		}
	}
	d.run(func() {
		for i := 0; i < 64 && scheduled < total; i++ {
			scheduled++
			env.At(sim.Time(i), tick)
		}
		env.Run()
	})
	d.units = float64(total)
	d.shutdown(env)
}

// drvHandoff is a Proc.Sleep loop: event, timer entry, trigger and a
// scheduler -> process -> scheduler handoff per op.
func drvHandoff(d *drv) {
	ops := d.n(100000)
	env := sim.NewEnv()
	d.run(func() {
		env.Go("sleeper", func(p *sim.Proc) {
			for i := 0; i < ops; i++ {
				p.Sleep(sim.Nanosecond)
			}
		})
		env.Run()
	})
	d.units = float64(ops)
	d.shutdown(env)
}

// drvQueue pushes ops items through a 16-deep bounded Queue, so both the
// put side and the get side block.
func drvQueue(d *drv) {
	ops := d.n(100000)
	env := sim.NewEnv()
	q := sim.NewQueue[int](env, 16)
	d.run(func() {
		env.Go("producer", func(p *sim.Proc) {
			for i := 0; i < ops; i++ {
				q.Put(p, i)
			}
		})
		env.Go("consumer", func(p *sim.Proc) {
			for i := 0; i < ops; i++ {
				q.Get(p)
			}
		})
		env.Run()
	})
	d.units = float64(ops)
	d.shutdown(env)
}

// drvRCStream streams 64 KB RC messages over the unbounded (seed) transmit
// path: packetization, switch forwarding, link serialization, reassembly,
// acks, completions.
func drvRCStream(d *drv) {
	msgs := d.n(2000)
	env, tb := d.pair(0)
	d.run(func() { perftest.BandwidthRC(env, tb.A[0].HCA, tb.B[0].HCA, 64<<10, msgs, 0) })
	d.units = float64(msgs)
	d.shutdown(env)
}

// boundedDelay is the WAN delay of the bounded-queue drivers: long enough
// that the BDP bound is well above the minimum queue size.
const boundedDelay = sim.Millisecond

// drvRCStreamBounded is drvRCStream over a WAN link whose egress queues are
// bounded at the link's bandwidth-delay product and ECN-marked.
func drvRCStreamBounded(d *drv) {
	msgs := d.n(2000)
	var env *sim.Env
	var nw *topo.Network
	d.phase("build", func() {
		env = sim.NewEnv()
		spec, err := topo.Preset("paper", 1, boundedDelay)
		must(err)
		spec = spec.WithQueue(wan.BDPQueueBytes(wan.WANRate, boundedDelay), true, false)
		nw, err = topo.Build(env, spec)
		must(err)
	})
	a, b := nw.Sites()[0].Nodes[0].HCA, nw.Sites()[1].Nodes[0].HCA
	d.run(func() { perftest.BandwidthRC(env, a, b, 64<<10, msgs, 0) })
	d.units = float64(msgs)
	d.shutdown(env)
}

// drvUDStream streams 2 KB UD datagrams.
func drvUDStream(d *drv) {
	msgs := d.n(20000)
	env, tb := d.pair(0)
	d.run(func() { perftest.BandwidthUD(env, tb.A[0].HCA, tb.B[0].HCA, ib.MaxUDPayload, msgs) })
	d.units = float64(msgs)
	d.shutdown(env)
}

// drvRCPingPong is the 8-byte RC send/recv latency loop.
func drvRCPingPong(d *drv) {
	iters := d.n(5000)
	env, tb := d.pair(0)
	d.run(func() { perftest.SendLatency(env, tb.A[0].HCA, tb.B[0].HCA, ib.RC, 8, iters) })
	d.units = float64(iters)
	d.shutdown(env)
}

// drvRCLoss streams RC messages under a seeded 1 % per-packet WAN loss
// plan and counts the sender's retransmissions. It drives the QP pair
// itself (perftest keeps its QPs private) the way perftest.StreamRC does.
func drvRCLoss(d *drv) {
	msgs := d.n(600)
	var env *sim.Env
	var tb *cluster.Testbed
	d.phase("build", func() {
		env = sim.NewEnv()
		must(fault.AttachPlan(env, &fault.Plan{Seed: uint64(d.seed), WANLoss: 0.01}))
		tb = cluster.New(env, cluster.Config{NodesA: 1, NodesB: 1})
	})
	var qa, qb *ib.QP
	d.phase("attach", func() {
		qa, qb = ib.CreateRCPair(tb.A[0].HCA, tb.B[0].HCA, nil, nil,
			ib.QPConfig{RetryLimit: 30, RetryTimeout: 5 * sim.Millisecond})
	})
	wait := func(p *sim.Proc, cq *ib.CQ, n int) {
		for i := 0; i < n; i++ {
			if c := cq.Poll(p); c.Status != ib.StatusOK {
				panic(fmt.Sprintf("bench: fault.rc_loss: %s completed with %s", c.Op, c.Status))
			}
		}
	}
	done := 0
	d.run(func() {
		env.Go("loss-recv", func(p *sim.Proc) {
			for i := 0; i < msgs; i++ {
				qb.PostRecv(ib.RecvWR{})
			}
			wait(p, qb.CQ(), msgs)
			done++
		})
		env.Go("loss-send", func(p *sim.Proc) {
			for i := 0; i < msgs; i++ {
				qa.PostSend(ib.SendWR{Op: ib.OpSend, Len: 64 << 10})
			}
			wait(p, qa.CQ(), msgs)
			done++
		})
		env.Run()
	})
	if done != 2 {
		panic("bench: fault.rc_loss: stream did not complete")
	}
	d.units = float64(msgs)
	d.extra["fault.rc_loss.retransmits_per_msg"] = float64(qa.Stats().Retransmits) / float64(msgs)
	d.shutdown(env)
}

// drvCongest overloads a narrowed, BDP-bounded WAN hop with four IPoIB-UD
// TCP streams, once under tail drop and once under ECN (the congest-streams
// experiment's two bounded disciplines on a shorter window), into one
// metrics registry, and reads the model's congestion statistics from it.
// They are simulated counts: a speed-only change must not move them.
func drvCongest(d *drv) {
	const (
		delay   = 2 * sim.Millisecond
		rate    = 250e6
		streams = 4
	)
	dur := sim.Time(d.n(300)) * sim.Millisecond
	reg := telemetry.NewRegistry()
	for _, ecn := range []bool{false, true} {
		var env *sim.Env
		var nw *topo.Network
		d.phase("build", func() {
			env = sim.NewEnv()
			telemetry.Attach(env, &telemetry.Telemetry{Metrics: reg})
			spec, err := topo.Preset("star3", 2, delay)
			must(err)
			links := append([]topo.Link(nil), spec.Links...)
			for i := range links {
				links[i].Rate = rate
				links[i].QueueBytes = wan.BDPQueueBytes(rate, delay)
				links[i].ECN = ecn
			}
			spec.Links = links
			nw, err = topo.Build(env, spec)
			must(err)
		})
		siteA, siteB := nw.Sites()[0], nw.Sites()[1]
		var sas, sbs []*tcpsim.Stack
		d.phase("attach", func() {
			net := ipoib.NewNetwork()
			cfg := tcpsim.Config{ECN: ecn}
			for i := range siteA.Nodes {
				sas = append(sas, tcpsim.NewStack(net.Attach(siteA.Nodes[i].HCA, ipoib.Datagram, 0), cfg))
				sbs = append(sbs, tcpsim.NewStack(net.Attach(siteB.Nodes[i].HCA, ipoib.Datagram, 0), cfg))
			}
		})
		d.run(func() {
			for i := 0; i < streams; i++ {
				sa, sb := sas[i%len(sas)], sbs[i%len(sbs)]
				port := 6000 + i
				ln := sb.Listen(port)
				env.Go("congest-srv", func(p *sim.Proc) { _, _ = ln.Accept(p) })
				env.Go("congest-cli", func(p *sim.Proc) {
					c, err := sa.Dial(p, sb.Addr(), port)
					must(err)
					for c.WriteSynthetic(p, 2<<20) == nil {
					}
				})
			}
			env.RunUntil(dur)
		})
		d.shutdown(env)
	}
	d.extra["wan.congest.ecn_marks"] = float64(reg.Counter("wan.link.ecn.marks").Value())
	d.extra["wan.congest.overflow_drops"] = float64(reg.Counter("wan.link.overflow.drops").Value())
	d.extra["wan.congest.queue_wait_p99_ns"] = reg.HiRes("wan.link.queue.wait.ns").Quantile(0.99)
	d.extra["tcpsim.congest.fast_retransmits"] = float64(reg.Counter("tcp.fast.retransmits").Value())
	d.extra["tcpsim.congest.cwnd_cuts"] = float64(reg.Counter("tcp.ecn.cwnd.cuts").Value())
}

// drvBuildMesh4 compiles the 4-site full mesh (4 nodes a site) onto a
// fabric: switches, six WAN pairs, routing.
func drvBuildMesh4(d *drv) {
	worlds := d.n(100)
	var envs []*sim.Env
	d.run(func() {
		for i := 0; i < worlds; i++ {
			env := sim.NewEnv()
			spec, err := topo.Preset("mesh4", 4, sim.Millisecond)
			must(err)
			_, err = topo.Build(env, spec)
			must(err)
			envs = append(envs, env)
		}
	})
	d.units = float64(worlds)
	for _, env := range envs {
		d.shutdown(env)
	}
}

// drvCluster16 builds the 16+16-node two-site testbed of fig10-12.
func drvCluster16(d *drv) {
	worlds := d.n(100)
	var envs []*sim.Env
	d.run(func() {
		for i := 0; i < worlds; i++ {
			env := sim.NewEnv()
			cluster.New(env, cluster.Config{NodesA: 16, NodesB: 16, Delay: sim.Millisecond})
			envs = append(envs, env)
		}
	})
	d.units = float64(worlds)
	for _, env := range envs {
		d.shutdown(env)
	}
}

// tcpPair attaches an IPoIB interface and a TCP stack to each end of a
// 1 ms pair testbed.
func tcpPair(d *drv, mode ipoib.Mode) (env *sim.Env, sa, sb *tcpsim.Stack) {
	env, tb := d.pair(sim.Millisecond)
	d.phase("attach", func() {
		net := ipoib.NewNetwork()
		sa = tcpsim.NewStack(net.Attach(tb.A[0].HCA, mode, 0), tcpsim.Config{})
		sb = tcpsim.NewStack(net.Attach(tb.B[0].HCA, mode, 0), tcpsim.Config{})
	})
	return env, sa, sb
}

// drvTCPStream runs one TCP stream over IPoIB (UD: 2 KB MTU, RC: 64 KB
// MTU) at 1 ms delay for a fixed virtual window; the unit is MB delivered
// in order.
func drvTCPStream(d *drv, mode ipoib.Mode) {
	dur := sim.Time(d.n(100)) * sim.Millisecond
	env, sa, sb := tcpPair(d, mode)
	var srv *tcpsim.Conn
	d.run(func() {
		ln := sb.Listen(5000)
		env.Go("srv", func(p *sim.Proc) { srv, _ = ln.Accept(p) })
		env.Go("cli", func(p *sim.Proc) {
			c, err := sa.Dial(p, sb.Addr(), 5000)
			must(err)
			for c.WriteSynthetic(p, 2<<20) == nil {
			}
		})
		env.RunUntil(dur)
	})
	if srv == nil || srv.Delivered() == 0 {
		panic("bench: tcp stream delivered nothing")
	}
	d.units = float64(srv.Delivered()) / 1e6
	d.shutdown(env)
}

// drvTCPDial opens connections one after another across the 1 ms WAN:
// handshake, connection state, listener hand-off.
func drvTCPDial(d *drv) {
	conns := d.n(2000)
	env, sa, sb := tcpPair(d, ipoib.Datagram)
	opened := 0
	d.run(func() {
		ln := sb.Listen(5000)
		env.Go("srv", func(p *sim.Proc) {
			for i := 0; i < conns; i++ {
				if _, err := ln.Accept(p); err != nil {
					return
				}
			}
		})
		env.Go("cli", func(p *sim.Proc) {
			for i := 0; i < conns; i++ {
				_, err := sa.Dial(p, sb.Addr(), 5000)
				must(err)
				opened++
			}
			env.Stop()
		})
		env.Run()
	})
	if opened != conns {
		panic("bench: tcp dial loop did not complete")
	}
	d.units = float64(conns)
	d.shutdown(env)
}

// drvSDPStream pushes a fixed volume through an SDP socket at 1 ms delay.
func drvSDPStream(d *drv) {
	mb := d.n(64)
	total := int64(mb) << 20
	env, tb := d.pair(sim.Millisecond)
	finished := false
	d.run(func() {
		ln := sdp.Listen(tb.B[0], 7000)
		defer ln.Close()
		var srv *sdp.Conn
		env.Go("srv", func(p *sim.Proc) { srv = ln.Accept(p) })
		env.Go("cli", func(p *sim.Proc) {
			c := sdp.Dial(p, tb.A[0], tb.B[0], 7000)
			for i := 0; i < mb; i++ {
				c.WriteSynthetic(p, 1<<20)
			}
			for srv == nil || srv.Delivered() < total {
				p.Sleep(100 * sim.Microsecond)
			}
			finished = true
			env.Stop()
		})
		env.Run()
	})
	if !finished {
		panic("bench: sdp stream did not complete")
	}
	d.units = float64(total) / 1e6
	d.shutdown(env)
}

// drvNewWorld32 constructs a 32-rank MPI world on the 16+16 testbed.
func drvNewWorld32(d *drv) {
	worlds := d.n(100)
	var envs []*sim.Env
	var beds []*cluster.Testbed
	d.phase("build", func() {
		for i := 0; i < worlds; i++ {
			env := sim.NewEnv()
			envs = append(envs, env)
			beds = append(beds, cluster.New(env, cluster.Config{NodesA: 16, NodesB: 16, Delay: sim.Millisecond}))
		}
	})
	d.run(func() {
		for i, tb := range beds {
			mpi.NewWorld(envs[i], tb.Nodes(), mpi.Config{})
		}
	})
	d.units = float64(worlds)
	for _, env := range envs {
		d.shutdown(env)
	}
}

// mpiPair builds a two-rank world across the WAN.
func mpiPair(d *drv, delay sim.Time) *mpi.World {
	env, tb := d.pair(delay)
	var w *mpi.World
	d.phase("attach", func() { w = mpi.NewWorld(env, []*cluster.Node{tb.A[0], tb.B[0]}, mpi.Config{}) })
	return w
}

// drvEagerPingPong is the 1 KB eager-protocol latency loop.
func drvEagerPingPong(d *drv) {
	iters := d.n(5000)
	w := mpiPair(d, 0)
	d.run(func() { mpi.Latency(w, 1<<10, iters) })
	d.units = float64(iters)
	d.shutdown(w.Env())
}

// drvRndvBW streams 1 MB rendezvous-protocol messages at 1 ms delay.
func drvRndvBW(d *drv) {
	iters := d.n(4)
	w := mpiPair(d, sim.Millisecond)
	d.run(func() { mpi.Bandwidth(w, 1<<20, iters) })
	d.units = float64(iters * mpi.BwWindow)
	d.shutdown(w.Env())
}

// world32 builds the 16+16 testbed with one rank per node.
func world32(d *drv) *mpi.World {
	env, tb := d.world(16, 16, sim.Millisecond)
	var w *mpi.World
	d.phase("attach", func() { w = mpi.NewWorld(env, tb.Nodes(), mpi.Config{}) })
	return w
}

// drvHierBcast32 is the WAN-aware hierarchical broadcast of 128 KB over 32
// ranks.
func drvHierBcast32(d *drv) {
	iters := d.n(8)
	w := world32(d)
	d.run(func() { mpi.BcastLatency(w, 128<<10, iters, true) })
	d.units = float64(iters)
	d.shutdown(w.Env())
}

// drvMsgRate16 is the 16-pair small-message rate test.
func drvMsgRate16(d *drv) {
	iters := d.n(4)
	w := world32(d)
	d.run(func() { mpi.MessageRate(w, 16, 1<<10, iters) })
	d.units = float64(16 * mpi.BwWindow * iters)
	d.shutdown(w.Env())
}

// drvNASIS runs the NAS IS class W skeleton on 8+8 ranks.
func drvNASIS(d *drv) {
	env, tb := d.world(8, 8, sim.Millisecond)
	var w *mpi.World
	d.phase("attach", func() { w = mpi.NewWorld(env, tb.Nodes(), mpi.Config{}) })
	d.run(func() { nas.RunClass(w, nas.IS, "W") })
	d.units = 1
	d.shutdown(env)
}

// mountNFS mounts an NFS client on A from a server on B, over RDMA or over
// TCP on IPoIB-RC.
func mountNFS(env *sim.Env, tb *cluster.Testbed, rdma bool) (*nfs.Server, *nfs.Client) {
	if rdma {
		return nfs.MountRDMA(tb.B[0], tb.A[0])
	}
	srv, cl, err := nfs.MountTCP(env, tb.B[0], tb.A[0], ipoib.Connected)
	must(err)
	return srv, cl
}

// drvNFSRead is an 8-thread IOzone read of one file at 100 us delay.
func drvNFSRead(d *drv, rdma bool) {
	size := int64(d.n(32)) << 20
	env, tb := d.pair(100 * sim.Microsecond)
	var cl *nfs.Client
	d.phase("attach", func() {
		var srv *nfs.Server
		srv, cl = mountNFS(env, tb, rdma)
		srv.AddSyntheticFile("f", size)
	})
	d.run(func() { nfs.IOzone(env, cl, "f", nfs.IOzoneConfig{FileSize: size, Threads: 8}) })
	d.units = float64(size) / 1e6
	d.shutdown(env)
}

// drvNFSMount mounts over RDMA and over TCP (a handshake across the 1 ms
// WAN inside a short simulation run), one fresh world each.
func drvNFSMount(d *drv) {
	mounts := d.n(200)
	var envs []*sim.Env
	var beds []*cluster.Testbed
	d.phase("build", func() {
		for i := 0; i < mounts; i++ {
			env := sim.NewEnv()
			envs = append(envs, env)
			beds = append(beds, cluster.New(env, cluster.Config{NodesA: 1, NodesB: 1, Delay: sim.Millisecond}))
		}
	})
	d.run(func() {
		for i, tb := range beds {
			mountNFS(envs[i], tb, i%2 == 0)
		}
	})
	d.units = float64(mounts)
	for _, env := range envs {
		d.shutdown(env)
	}
}

// must panics on an error only a bug in the benchmark's own fixed inputs
// can produce (an unknown preset name, an invalid fixed plan).
func must(err error) {
	if err != nil {
		panic(fmt.Sprintf("bench: %v", err))
	}
}
