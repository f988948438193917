// Package perftest reimplements the OFED verbs-level performance tests the
// paper uses for its baseline characterization (§3.2): send/recv latency
// over UD and RC, RDMA-write latency, and streaming bandwidth /
// bidirectional bandwidth over both transports.
package perftest

import (
	"fmt"
	"sync/atomic"

	"repro/internal/ib"
	"repro/internal/sim"
)

// ackSize is the tiny message the bandwidth tests use as a final handshake.
const ackSize = 4

// SendLatency measures half-round-trip send/recv latency between two HCAs
// over the given transport.
//
// Every driver spawns each side's process, and gives each QP a CQ, on its
// own HCA's environment: on a classic world both are env, on a sharded one
// each side waits only on its own shard's CQ, and every crossing is the
// wire's.
func SendLatency(env *sim.Env, a, b *ib.HCA, tr ib.Transport, size, iters int) sim.Time {
	if tr == ib.UD {
		return udLatency(env, a, b, size, iters)
	}
	return PingRC(env, a, b, size, iters, ib.QPConfig{})
}

// PingRC is SendLatency over RC with an explicit QP configuration — the
// knob the fault-injected experiments use to trade the retry budget
// (QPConfig.RetryLimit, RetryTimeout) against loss rate.
func PingRC(env *sim.Env, a, b *ib.HCA, size, iters int, qcfg ib.QPConfig) sim.Time {
	qa, qb := ib.CreateRCPair(a, b, nil, nil, qcfg)
	var total sim.Time
	completed := false
	b.Env().Go("lat-b", func(p *sim.Proc) {
		for i := 0; i < iters; i++ {
			qb.PostRecv(ib.RecvWR{})
			waitFor(p, qb.CQ(), ib.OpRecv)
			qb.PostSend(ib.SendWR{Op: ib.OpSend, Len: size})
			waitFor(p, qb.CQ(), ib.OpSend)
		}
	})
	a.Env().Go("lat-a", func(p *sim.Proc) {
		start := p.Now()
		for i := 0; i < iters; i++ {
			qa.PostRecv(ib.RecvWR{})
			qa.PostSend(ib.SendWR{Op: ib.OpSend, Len: size})
			waitFor(p, qa.CQ(), ib.OpRecv)
		}
		total = p.Now() - start
		completed = true
		env.Stop()
	})
	env.Run()
	env.Shutdown()
	checkCompleted(completed, "PingRC")
	return total / sim.Time(2*iters)
}

// udPair creates a UD QP, with its CQ, on each HCA's environment.
func udPair(a, b *ib.HCA) (qa, qb *ib.QP) {
	qa = a.CreateQP(ib.NewCQ(a.Env()), ib.QPConfig{Transport: ib.UD})
	qb = b.CreateQP(ib.NewCQ(b.Env()), ib.QPConfig{Transport: ib.UD})
	return qa, qb
}

func udLatency(env *sim.Env, a, b *ib.HCA, size, iters int) sim.Time {
	qa, qb := udPair(a, b)
	var total sim.Time
	completed := false
	b.Env().Go("lat-b", func(p *sim.Proc) {
		for i := 0; i < iters; i++ {
			qb.PostRecv(ib.RecvWR{})
			waitFor(p, qb.CQ(), ib.OpRecv)
			qb.PostSend(ib.SendWR{Op: ib.OpSend, Len: size, DestLID: a.LID(), DestQPN: qa.QPN()})
		}
	})
	a.Env().Go("lat-a", func(p *sim.Proc) {
		start := p.Now()
		for i := 0; i < iters; i++ {
			qa.PostRecv(ib.RecvWR{})
			qa.PostSend(ib.SendWR{Op: ib.OpSend, Len: size, DestLID: b.LID(), DestQPN: qb.QPN()})
			waitFor(p, qa.CQ(), ib.OpRecv)
		}
		total = p.Now() - start
		completed = true
		env.Stop()
	})
	env.Run()
	env.Shutdown()
	checkCompleted(completed, "SendLatency(UD)")
	return total / sim.Time(2*iters)
}

// WriteLatency measures half-round-trip RDMA-write latency (the
// ib_write_lat pattern: each side writes into the peer's region and polls
// for the peer's write).
func WriteLatency(env *sim.Env, a, b *ib.HCA, size, iters int) sim.Time {
	qa, qb := ib.CreateRCPair(a, b, nil, nil, ib.QPConfig{})
	mra := a.RegisterVirtualMR(size)
	mrb := b.RegisterVirtualMR(size)
	var total sim.Time
	completed := false
	b.Env().Go("wlat-b", func(p *sim.Proc) {
		for i := 0; i < iters; i++ {
			waitNotify(p, qb.CQ()) // peer's write landed
			qb.PostSend(ib.SendWR{Op: ib.OpRDMAWrite, Len: size, RemoteMR: mra, NotifyRemote: true})
		}
	})
	a.Env().Go("wlat-a", func(p *sim.Proc) {
		start := p.Now()
		for i := 0; i < iters; i++ {
			qa.PostSend(ib.SendWR{Op: ib.OpRDMAWrite, Len: size, RemoteMR: mrb, NotifyRemote: true})
			waitNotify(p, qa.CQ()) // peer's response write
		}
		total = p.Now() - start
		completed = true
		env.Stop()
	})
	env.Run()
	env.Shutdown()
	checkCompleted(completed, "WriteLatency")
	return total / sim.Time(2*iters)
}

// checkStatus aborts the benchmark on an errored completion: the RC
// connection's retry budget ran out, so the measurement cannot finish. The
// panic carries a deterministic message and surfaces as the experiment
// point's error.
func checkStatus(c ib.Completion) {
	if c.Status != ib.StatusOK {
		panic(fmt.Sprintf("perftest: %s completed with %s (communication failure)", c.Op, c.Status))
	}
}

// checkCompleted aborts after env.Run returned without the measurement
// finishing — the run went quiet (every in-flight packet lost, nothing
// left to schedule) without an error completion to pin it on.
func checkCompleted(completed bool, name string) {
	if !completed {
		panic(fmt.Sprintf("perftest: %s did not complete (communication failure)", name))
	}
}

// waitFor polls the CQ until a completion with the given opcode appears.
// For latency tests the interesting completion may be interleaved with the
// local send completions, which are discarded.
func waitFor(p *sim.Proc, cq *ib.CQ, op ib.Opcode) ib.Completion {
	for {
		c := cq.Poll(p)
		checkStatus(c)
		if c.Op == op {
			return c
		}
	}
}

// waitNotify polls the CQ until a remote-write notification appears,
// discarding local completions (a local RDMA-write completion carries no
// source LID; a remote notify does).
func waitNotify(p *sim.Proc, cq *ib.CQ) ib.Completion {
	for {
		c := cq.Poll(p)
		checkStatus(c)
		if c.Op == ib.OpRDMAWrite && c.SrcLID != 0 {
			return c
		}
	}
}

// BandwidthRC measures one-way RC streaming bandwidth (MillionBytes/s) for
// the given message size, sending count messages.
func BandwidthRC(env *sim.Env, a, b *ib.HCA, size, count, window int) float64 {
	return StreamRC(env, a, b, size, count, ib.QPConfig{MaxInflight: window})
}

// StreamRC is BandwidthRC with an explicit QP configuration — the
// fault-injected experiments pass a generous RetryLimit with a short
// RetryTimeout so packet loss costs time instead of killing the
// connection.
//
// The measured window runs from the sender's start to whichever endpoint
// finishes later: the receiver's last in-order delivery or the sender's
// last send completion (the returning ack). Each side records its own
// timestamp and the maximum is taken after Run returns — RC acks ride the
// in-order delivery stream, so the sender's final completion strictly
// follows the receiver's last delivery and stopping the run there seals both
// timestamps. No event passes between the endpoints, so the measurement is
// the same whether they share an environment or live on different shards.
func StreamRC(env *sim.Env, a, b *ib.HCA, size, count int, qcfg ib.QPConfig) float64 {
	qa, qb := ib.CreateRCPair(a, b, nil, nil, qcfg)
	var start, senderEnd, recvEnd sim.Time
	sent, received := false, false
	b.Env().Go("bw-recv", func(p *sim.Proc) {
		for i := 0; i < count; i++ {
			qb.PostRecv(ib.RecvWR{})
		}
		for i := 0; i < count; i++ {
			waitFor(p, qb.CQ(), ib.OpRecv)
		}
		recvEnd = p.Now()
		received = true
	})
	a.Env().Go("bw-send", func(p *sim.Proc) {
		start = p.Now()
		for i := 0; i < count; i++ {
			qa.PostSend(ib.SendWR{Op: ib.OpSend, Len: size})
		}
		for i := 0; i < count; i++ {
			waitFor(p, qa.CQ(), ib.OpSend)
		}
		senderEnd = p.Now()
		sent = true
		env.Stop()
	})
	env.Run()
	env.Shutdown()
	checkCompleted(sent && received, "StreamRC")
	elapsed := max(senderEnd, recvEnd) - start
	return float64(size) * float64(count) / elapsed.Seconds() / 1e6
}

// BiBandwidthRC measures aggregate two-way RC bandwidth.
func BiBandwidthRC(env *sim.Env, a, b *ib.HCA, size, count, window int) float64 {
	qa, qb := ib.CreateRCPair(a, b, nil, nil, ib.QPConfig{MaxInflight: window})
	finish := func(p *sim.Proc, q *ib.QP) {
		for i := 0; i < count; i++ {
			q.PostRecv(ib.RecvWR{})
		}
		for i := 0; i < count; i++ {
			q.PostSend(ib.SendWR{Op: ib.OpSend, Len: size})
		}
		sends, recvs := 0, 0
		for sends < count || recvs < count {
			c := q.CQ().Poll(p)
			checkStatus(c)
			switch c.Op {
			case ib.OpSend:
				sends++
			case ib.OpRecv:
				recvs++
			}
		}
	}
	var elapsed sim.Time
	completed := false
	// The two sides share a name, so a failure reads the same whichever
	// side reports it: both fail at one instant when the link dies under
	// them, and on a partitioned world they do so on different shards.
	b.Env().Go("bibw", func(p *sim.Proc) { finish(p, qb) })
	a.Env().Go("bibw", func(p *sim.Proc) {
		start := p.Now()
		finish(p, qa)
		elapsed = p.Now() - start
		completed = true
		env.Stop()
	})
	env.Run()
	env.Shutdown()
	checkCompleted(completed, "BiBandwidthRC")
	return 2 * float64(size) * float64(count) / elapsed.Seconds() / 1e6
}

// BandwidthUD measures the steady-state one-way UD streaming rate. Because
// UD is open-loop, the rate is computed between the first and last arrival
// so the pipeline-fill delay (the WAN latency itself) is excluded —
// matching how a long-running ib_send_bw converges.
func BandwidthUD(env *sim.Env, a, b *ib.HCA, size, count int) float64 {
	qa, qb := udPair(a, b)
	var window sim.Time
	completed := false
	b.Env().Go("udbw-recv", func(p *sim.Proc) {
		for i := 0; i < count; i++ {
			qb.PostRecv(ib.RecvWR{})
		}
		var first sim.Time
		for i := 0; i < count; i++ {
			waitFor(p, qb.CQ(), ib.OpRecv)
			if i == 0 {
				first = p.Now()
			}
		}
		window = p.Now() - first
		completed = true
		env.Stop()
	})
	a.Env().Go("udbw-send", func(p *sim.Proc) {
		for i := 0; i < count; i++ {
			qa.PostSend(ib.SendWR{Op: ib.OpSend, Len: size, DestLID: b.LID(), DestQPN: qb.QPN()})
		}
	})
	env.Run()
	env.Shutdown()
	checkCompleted(completed, "BandwidthUD")
	return float64(size) * float64(count-1) / window.Seconds() / 1e6
}

// BiBandwidthUD measures aggregate two-way UD streaming rate, steady-state.
// The two sides may finish on different shards, so left is an atomic.
func BiBandwidthUD(env *sim.Env, a, b *ib.HCA, size, count int) float64 {
	qa, qb := udPair(a, b)
	rate := func(p *sim.Proc, cq *ib.CQ) float64 {
		var first sim.Time
		for i := 0; i < count; i++ {
			waitFor(p, cq, ib.OpRecv)
			if i == 0 {
				first = p.Now()
			}
		}
		return float64(size) * float64(count-1) / (p.Now() - first).Seconds() / 1e6
	}
	var ra, rb float64
	var left atomic.Int32
	left.Store(2)
	a.Env().Go("a", func(p *sim.Proc) {
		for i := 0; i < count; i++ {
			qa.PostRecv(ib.RecvWR{})
		}
		for i := 0; i < count; i++ {
			qa.PostSend(ib.SendWR{Op: ib.OpSend, Len: size, DestLID: b.LID(), DestQPN: qb.QPN()})
		}
		ra = rate(p, qa.CQ())
		if left.Add(-1) == 0 {
			env.Stop()
		}
	})
	b.Env().Go("b", func(p *sim.Proc) {
		for i := 0; i < count; i++ {
			qb.PostRecv(ib.RecvWR{})
		}
		for i := 0; i < count; i++ {
			qb.PostSend(ib.SendWR{Op: ib.OpSend, Len: size, DestLID: a.LID(), DestQPN: qa.QPN()})
		}
		rb = rate(p, qb.CQ())
		if left.Add(-1) == 0 {
			env.Stop()
		}
	})
	env.Run()
	env.Shutdown()
	checkCompleted(left.Load() == 0, "BiBandwidthUD")
	return ra + rb
}
