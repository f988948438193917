package core

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/ib"
	"repro/internal/ipoib"
	"repro/internal/mpi"
	"repro/internal/nfs"
	"repro/internal/perftest"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tcpsim"
	"repro/internal/topo"
)

// The failover-* family measures the fabric's self-healing routing layer
// (ib.Fabric.EnableFailover) on redundant topologies: a WAN link is killed
// mid-run and — unlike multisite-loss, which demonstrates fault isolation
// as explicit ERR rows — traffic reroutes over the surviving paths and
// every point lands a measurement. The family is shard-safe (kills are
// scheduled flaps, pure functions of simulated time), so classic and
// sharded runs are byte-identical; TestFailoverDeterminismMatrix pins
// that.

const (
	// failoverDelay is the per-link one-way WAN delay the family runs at.
	// It is positive, so the presets remain eligible for sharded execution
	// (every link can bound its cross-shard channel).
	failoverDelay = 500 * sim.Microsecond
	// failoverKillAt is when the victim link goes down: late enough that
	// traffic is in full flight, early enough that most of the measurement
	// happens on the post-failover route.
	failoverKillAt = 2 * sim.Millisecond
)

// failoverNet builds the preset with the self-healing layer armed and,
// for kill >= 0, a scheduled permanent kill of link kill at
// failoverKillAt. A zero debounce selects the monitor defaults.
func failoverNet(m *Meter, opt Options, kill int, label string, debounce sim.Time) *topo.Network {
	spec := opt.preset(failoverDelay)
	spec.Failover = &ib.HealthConfig{DebounceDown: debounce, DebounceUp: debounce}
	if kill >= 0 {
		spec.Links[kill].Fault = &fault.Plan{
			Seed:     seedFor(label),
			WANFlaps: []fault.FlapStep{{At: failoverKillAt, Down: true}},
		}
	}
	nw, err := topo.Build(m.NewEnv(), spec)
	m.Check(err)
	return nw
}

// failoverKills enumerates the kill series: -1 (no fault) then every link.
func failoverKills(spec topo.Topology) []int {
	kills := make([]int, 0, len(spec.Links)+1)
	kills = append(kills, -1)
	for li := range spec.Links {
		kills = append(kills, li)
	}
	return kills
}

// failoverSeriesName labels a kill series.
func failoverSeriesName(spec topo.Topology, kill int) string {
	if kill < 0 {
		return "no-fault"
	}
	return fmt.Sprintf("kill %s:%s", spec.Links[kill].A, spec.Links[kill].B)
}

// failoverKill is the headline experiment: RC goodput and ping latency
// from the first site to every other site while one WAN link dies mid-run
// with failover enabled. On redundant presets (ring4, mesh4) every point
// is a measurement — destinations whose route crossed the dead link pay
// the detour and the recovery stall instead of erroring out.
func failoverKill(opt Options) *Plan {
	goodput := stats.NewTable(multisiteTitle(opt, "RC goodput, one WAN link killed mid-run, failover on"),
		"Destination Site Index", "Goodput (MillionBytes/s)")
	lat := stats.NewTable(multisiteTitle(opt, "RC latency, one WAN link killed mid-run, failover on"),
		"Destination Site Index", "Latency (us)")
	pl := &Plan{Tables: []*stats.Table{goodput, lat}}
	size := 64 << 10
	count := 256
	iters := 50
	if opt.Quick {
		count = 64
		iters = 20
	}
	spec := opt.preset(failoverDelay)
	for _, kill := range failoverKills(spec) {
		name := failoverSeriesName(spec, kill)
		gs := goodput.AddSeries(name)
		ls := lat.AddSeries(name)
		for si := 1; si < len(spec.Sites); si++ {
			si, site := si, spec.Sites[si].Name
			gl := fmt.Sprintf("failover-kill/%s/%s/goodput/site-%s", opt.Topo, name, site)
			pl.point(gs, float64(si), gl, func(m *Meter) float64 {
				nw := failoverNet(m, opt, kill, gl, 0)
				src := nw.Sites()[0].Nodes[0].HCA
				dst := nw.Sites()[si].Nodes[0].HCA
				return perftest.StreamRC(nw.Env, src, dst, size, count, lossQPCfg())
			})
			ll := fmt.Sprintf("failover-kill/%s/%s/latency/site-%s", opt.Topo, name, site)
			pl.point(ls, float64(si), ll, func(m *Meter) float64 {
				nw := failoverNet(m, opt, kill, ll, 0)
				src := nw.Sites()[0].Nodes[0].HCA
				dst := nw.Sites()[si].Nodes[0].HCA
				return perftest.PingRC(nw.Env, src, dst, 4096, iters, lossQPCfg()).Microseconds()
			})
		}
	}
	return pl
}

// convergeRC drives back-to-back small RC messages through the kill and
// returns how long after the kill the first message *posted after the
// kill* completes — the end-to-end convergence time: the outage, the
// debounced health verdict, the re-sweep, and the retry that finally
// crosses the new route. Gating on the post time matters: a probe that
// was already in flight when the link died crossed the WAN beforehand and
// completes unaffected, measuring nothing. The probe retries on a 500 us
// timer — much shorter than the stream experiments' 5 ms — so the
// debounce window, not the retry backoff ladder, dominates what it
// measures.
func convergeRC(env *sim.Env, a, b *ib.HCA) sim.Time {
	cfg := ib.QPConfig{RetryLimit: 30, RetryTimeout: 500 * sim.Microsecond}
	qa, qb := ib.CreateRCPair(a, b, nil, nil, cfg)
	var recovered sim.Time
	completed := false
	// Each probe process lives on its endpoint's environment so the world
	// may shard: posts and polls stay shard-local.
	// A probe is one WAN round trip (at least 2*failoverDelay) and the last
	// one is the first posted at or after failoverKillAt, so a handful ever
	// fly; 64 receives leave room for either constant to move.
	b.Env().Go("probe-recv", func(p *sim.Proc) {
		for i := 0; i < 64; i++ {
			qb.PostRecv(ib.RecvWR{})
		}
	})
	a.Env().Go("probe-send", func(p *sim.Proc) {
		for {
			posted := p.Now()
			qa.PostSend(ib.SendWR{Op: ib.OpSend, Len: 4096})
			c := qa.CQ().Poll(p)
			if c.Status != ib.StatusOK {
				panic(fmt.Sprintf("convergeRC: completion status %v", c.Status))
			}
			if posted >= failoverKillAt {
				recovered = p.Now()
				completed = true
				env.Stop()
				return
			}
		}
	})
	env.Run()
	env.Shutdown()
	if !completed {
		panic("convergeRC: probe never recovered")
	}
	return recovered - failoverKillAt
}

// failoverDebounce sweeps the health monitor's debounce window against a
// kill of the first WAN link: a short debounce converges fast, a long one
// stretches the outage (the retry that beats the re-sweep is dropped on
// the still-routed dead link and pays another backoff round). The no-fault
// series is the floor: the first probe completion after the kill instant
// on a healthy fabric.
func failoverDebounce(opt Options) *Plan {
	t := stats.NewTable(multisiteTitle(opt, "failover convergence vs debounce, first link killed"),
		"Debounce (usecs)", "Recovery After Kill (us)")
	pl := &Plan{Tables: []*stats.Table{t}}
	debounces := []sim.Time{
		100 * sim.Microsecond, 250 * sim.Microsecond, 500 * sim.Microsecond,
		sim.Millisecond, 2 * sim.Millisecond, 5 * sim.Millisecond,
	}
	if opt.Quick {
		debounces = []sim.Time{250 * sim.Microsecond, sim.Millisecond, 5 * sim.Millisecond}
	}
	for _, kill := range []int{-1, 0} {
		name := "no-fault"
		if kill >= 0 {
			name = "kill first link"
		}
		s := t.AddSeries(name)
		for _, d := range debounces {
			label := fmt.Sprintf("failover-debounce/%s/%s/%s", opt.Topo, name, delayLabel(d))
			pl.point(s, d.Microseconds(), label, func(m *Meter) float64 {
				nw := failoverNet(m, opt, kill, label, d)
				src := nw.Sites()[0].Nodes[0].HCA
				dst := nw.Sites()[1].Nodes[0].HCA
				return convergeRC(nw.Env, src, dst).Microseconds()
			})
		}
	}
	return pl
}

// failoverServices runs the paper's middleware stacks — MPI collectives,
// NFS/RDMA, and TCP over IPoIB — through a mid-run link kill with failover
// on: every service survives with a measurement (the recovery stall is
// priced into it), where the route-once fabric produced ERR rows. The
// no-fault series is the single baseline point at x = -1.
func failoverServices(opt Options) *Plan {
	mpiT := stats.NewTable(multisiteTitle(opt, "MPI hier broadcast latency (64KB) across a link kill"),
		"Killed Link Index", "Latency (us)")
	nfsT := stats.NewTable(multisiteTitle(opt, "NFS/RDMA read throughput across a link kill"),
		"Killed Link Index", "Throughput (MillionBytes/s)")
	tcpT := stats.NewTable(multisiteTitle(opt, "TCP (IPoIB-UD) goodput across a link kill"),
		"Killed Link Index", "Goodput (MillionBytes/s)")
	pl := &Plan{Tables: []*stats.Table{mpiT, nfsT, tcpT}}
	iters := 2
	const fileMB = int64(8)
	// A single outage with a 5 ms RTO recovers quickly; the window only
	// needs to dwarf the stall, not a full backoff ladder.
	if opt.TCPMillis < 40 {
		opt.TCPMillis = 40
	}
	spec := opt.preset(failoverDelay)
	for _, kill := range failoverKills(spec) {
		name := failoverSeriesName(spec, kill)
		x := float64(kill)
		ms := mpiT.AddSeries(name)
		ml := fmt.Sprintf("failover-services/%s/%s/mpi", opt.Topo, name)
		pl.point(ms, x, ml, func(m *Meter) float64 {
			nw := failoverNet(m, opt, kill, ml, 0)
			w := mpi.NewWorld(nw.Env, nw.Nodes(), mpi.Config{})
			defer w.Shutdown()
			return mpi.BcastLatency(w, 64<<10, iters, true).Microseconds()
		})
		ns := nfsT.AddSeries(name)
		nl := fmt.Sprintf("failover-services/%s/%s/nfs", opt.Topo, name)
		pl.point(ns, x, nl, func(m *Meter) float64 {
			nw := failoverNet(m, opt, kill, nl, 0)
			srvNode := nw.Sites()[0].Nodes[0]
			clNode := nw.Sites()[len(nw.Sites())-1].Nodes[0]
			srv, cl := nfs.MountRDMA(srvNode, clNode)
			srv.AddSyntheticFile("f", fileMB<<20)
			return nfs.IOzone(nw.Env, cl, "f", nfs.IOzoneConfig{
				FileSize: fileMB << 20, RecordSize: 256 << 10, Threads: 2,
			})
		})
		ts := tcpT.AddSeries(name)
		tl := fmt.Sprintf("failover-services/%s/%s/tcp", opt.Topo, name)
		pl.point(ts, x, tl, func(m *Meter) float64 {
			nw := failoverNet(m, opt, kill, tl, 0)
			net := ipoib.NewNetwork()
			da := net.Attach(nw.Sites()[0].Nodes[0].HCA, ipoib.Datagram, 0)
			db := net.Attach(nw.Sites()[1].Nodes[0].HCA, ipoib.Datagram, 0)
			// Datagram mode rides UD, so loss recovery is TCP's: a short
			// RTO turns the outage into one retransmission stall.
			sa := tcpsim.NewStack(da, tcpsim.Config{RTO: 5 * sim.Millisecond})
			sb := tcpsim.NewStack(db, tcpsim.Config{RTO: 5 * sim.Millisecond})
			dur := sim.Time(opt.TCPMillis)*sim.Millisecond + 60*failoverDelay
			bw, err := tcpThroughput(nw.Env, sa, sb, 1, dur)
			m.Check(err)
			return bw
		})
	}
	return pl
}
