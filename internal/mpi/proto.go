package mpi

import (
	"fmt"

	"repro/internal/ib"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// msgKind identifies MPI wire messages.
type msgKind int

const (
	eagerMsg msgKind = iota
	rtsMsg           // rendezvous request-to-send
	ctsMsg           // rendezvous clear-to-send
	finMsg           // rendezvous completion notification
)

// mpiMsg is the protocol header riding on verbs messages.
type mpiMsg struct {
	kind msgKind
	src  int // sender rank
	tag  int
	size int    // payload size of the MPI message
	data []byte // eager payload (nil for synthetic traffic)
	// Rendezvous fields.
	sendReq int64    // RTS: sender request id
	recvReq *Request // CTS/FIN: the receiver's request
	mr      *ib.MR   // CTS: registered landing region
}

// Request is a pending nonblocking operation.
type Request struct {
	rank *Rank
	done *sim.Event
	peer int // destination (send) / source or AnySource (recv)
	tag  int
	size int    // send size / recv capacity
	data []byte // send payload / recv landing buffer
	mr   *ib.MR // rendezvous receive region

	// Results (valid after completion).
	recvSize int // actual bytes received
	recvFrom int // actual source rank

	// Telemetry: the protocol-phase span covering the operation and, for
	// rendezvous sends, the virtual time the RTS went out (handshake
	// latency = CTS arrival - rtsAt).
	span  telemetry.SpanRef
	rtsAt sim.Time
}

// Done reports whether the operation completed.
func (q *Request) Done() bool { return q.done.Triggered() }

// Wait blocks the calling process until the operation completes. For
// receives it returns the byte count and source rank.
func (q *Request) Wait(p *sim.Proc) (int, int) {
	p.Wait(q.done)
	return q.recvSize, q.recvFrom
}

func (q *Request) complete() {
	if q.done.Triggered() {
		return
	}
	if q.span.Valid() {
		if obs := q.rank.world.obs; obs != nil && obs.rec != nil {
			obs.rec.EndAt(q.rank.env().Now(), q.span)
		}
	}
	q.done.Trigger(nil)
}

// inbound is a message that arrived before a matching receive was posted.
type inbound struct {
	kind    msgKind
	src     int
	tag     int
	size    int
	data    []byte
	sendReq int64
	srcRank *Rank
}

func (m *inbound) matches(req *Request) bool {
	return (req.peer == AnySource || req.peer == m.src) &&
		(req.tag == AnyTag || req.tag == m.tag)
}

// copyTime is the eager bounce-buffer copy cost for n bytes.
func (w *World) copyTime(n int) sim.Time {
	return sim.Time(float64(n) * w.cfg.CopyPerByteNanos)
}

// startProgress launches the rank's progress engine: the process that polls
// the completion queue, reposts receives, runs the matching engine and
// drives the rendezvous protocol.
func (r *Rank) startProgress() {
	r.env().Go(fmt.Sprintf("mpi-prog-%d", r.id), func(p *sim.Proc) {
		for {
			c := r.cq.Poll(p)
			if c.Status != ib.StatusOK {
				// An errored completion means an RC connection exhausted
				// its retry budget: MPI has no recovery story (as in the
				// paper's era), so the job aborts. The panic carries a
				// deterministic message and surfaces as the experiment
				// point's error.
				panic(fmt.Sprintf("mpi: rank %d: %s completed with %s (communication failure)",
					r.id, c.Op, c.Status))
			}
			switch c.Op {
			case ib.OpRecv:
				if qp := r.byQPN[c.QPN]; qp != nil {
					qp.PostRecv(ib.RecvWR{})
				}
				r.handleMsg(p, c.Meta.(*mpiMsg))
			case ib.OpSend:
				if req, ok := c.Ctx.(*Request); ok {
					req.complete()
				}
			case ib.OpRDMAWrite:
				// Rendezvous data acknowledged (the FIN was already
				// posted right behind the write), or a one-sided Put:
				// either way the local buffer is reusable.
				c.Ctx.(*Request).complete()
			case ib.OpRDMARead:
				// One-sided Get landed.
				if req, ok := c.Ctx.(*Request); ok {
					req.complete()
				}
			}
		}
	})
}

// handleMsg processes an inbound protocol message in progress-engine
// context.
func (r *Rank) handleMsg(p *sim.Proc, m *mpiMsg) {
	switch m.kind {
	case eagerMsg:
		in := &inbound{kind: eagerMsg, src: m.src, tag: m.tag, size: m.size, data: m.data, srcRank: r.world.ranks[m.src]}
		if req := r.matchPosted(in); req != nil {
			// Receiver-side bounce-buffer copy.
			p.Sleep(r.world.copyTime(m.size))
			r.deliverEager(req, in)
		} else {
			r.unexpected = append(r.unexpected, in)
		}
	case rtsMsg:
		in := &inbound{kind: rtsMsg, src: m.src, tag: m.tag, size: m.size, sendReq: m.sendReq, srcRank: r.world.ranks[m.src]}
		if req := r.matchPosted(in); req != nil {
			r.sendCTS(req, in)
		} else {
			r.unexpected = append(r.unexpected, in)
		}
	case ctsMsg:
		req := r.rndv[m.sendReq]
		if req == nil {
			panic(fmt.Sprintf("mpi: CTS for unknown send request %d at rank %d", m.sendReq, r.id))
		}
		delete(r.rndv, m.sendReq)
		if obs := r.world.obs; obs != nil {
			obs.handshake.Observe(int64(r.env().Now() - req.rtsAt))
		}
		peer := r.world.ranks[req.peer]
		qp := r.qpTo(peer)
		qp.PostSend(ib.SendWR{
			Op: ib.OpRDMAWrite, Data: req.data, Len: req.size,
			RemoteMR: m.mr, Ctx: req, ParentSpan: req.span,
		})
		// Post the FIN immediately behind the write: the QP delivers in
		// order, so the receiver sees it only after the data has landed —
		// the standard RPUT design, which avoids paying an extra round
		// trip per rendezvous on high-delay links.
		r.ctrlSend(peer, &mpiMsg{kind: finMsg, src: r.id, recvReq: m.recvReq}, nil, req.span)
	case finMsg:
		req := m.recvReq
		req.complete()
	}
}

// matchPosted scans posted receives in order for the first match and
// removes it.
func (r *Rank) matchPosted(in *inbound) *Request {
	for i, req := range r.postedRecvs {
		if in.matches(req) {
			r.postedRecvs = append(r.postedRecvs[:i], r.postedRecvs[i+1:]...)
			return req
		}
	}
	return nil
}

// matchUnexpected scans the unexpected queue in arrival order for the first
// message matching req and removes it.
func (r *Rank) matchUnexpected(req *Request) *inbound {
	for i, in := range r.unexpected {
		if in.matches(req) {
			r.unexpected = append(r.unexpected[:i], r.unexpected[i+1:]...)
			return in
		}
	}
	return nil
}

// deliverEager lands an eager message into a matched receive request.
func (r *Rank) deliverEager(req *Request, in *inbound) {
	n := in.size
	if req.size < n {
		n = req.size // truncation: receiver buffer smaller than message
	}
	if req.data != nil && in.data != nil {
		copy(req.data, in.data[:min(n, len(in.data))])
	}
	req.recvSize = n
	req.recvFrom = in.src
	req.complete()
}

// sendCTS answers a matched RTS: register the landing region and grant the
// sender clearance to RDMA-write.
func (r *Rank) sendCTS(req *Request, in *inbound) {
	var mr *ib.MR
	if req.data != nil {
		if len(req.data) < in.size {
			panic(fmt.Sprintf("mpi: rendezvous truncation at rank %d: recv %d < msg %d",
				r.id, len(req.data), in.size))
		}
		mr = r.node.HCA.RegisterMR(req.data)
	} else {
		// Synthetic receive: a virtual landing region of the right size,
		// without allocating payload memory.
		mr = r.node.HCA.RegisterVirtualMR(in.size)
	}
	req.mr = mr
	req.recvSize = in.size
	req.recvFrom = in.src
	r.ctrlSend(in.srcRank, &mpiMsg{kind: ctsMsg, src: r.id, sendReq: in.sendReq, recvReq: req, mr: mr}, nil, telemetry.NoSpan)
}

// ctrlSend emits a small control message (RTS/CTS/FIN) to the peer; its
// verbs span (if any) nests under parent.
func (r *Rank) ctrlSend(peer *Rank, m *mpiMsg, ctx *Request, parent telemetry.SpanRef) {
	if peer.node == r.node {
		r.shmDeliver(peer, m, ctx)
		return
	}
	qp := r.qpTo(peer)
	var c any
	if ctx != nil {
		c = ctx
	}
	qp.PostSend(ib.SendWR{Op: ib.OpSend, Len: CtrlBytes, Meta: m, Ctx: c, ParentSpan: parent})
}

// shmDeliver carries a message between co-located ranks over the node's
// shared memory: a fixed latency plus a copy cost, no fabric involvement.
func (r *Rank) shmDeliver(peer *Rank, m *mpiMsg, ctx *Request) {
	env := r.env() // co-located ranks share a node, hence a shard
	d := ShmLatency + sim.Time(float64(m.size)*ShmPerByteNanos)
	env.At(d, func() {
		peer.handleShmMsg(m)
		if ctx != nil {
			ctx.complete()
		}
	})
}

// handleShmMsg is the callback-context twin of handleMsg for the shared
// memory path (copy costs are charged on the sender's timeline).
func (r *Rank) handleShmMsg(m *mpiMsg) {
	switch m.kind {
	case eagerMsg:
		in := &inbound{kind: eagerMsg, src: m.src, tag: m.tag, size: m.size, data: m.data, srcRank: r.world.ranks[m.src]}
		if req := r.matchPosted(in); req != nil {
			r.deliverEager(req, in)
		} else {
			r.unexpected = append(r.unexpected, in)
		}
	case rtsMsg:
		in := &inbound{kind: rtsMsg, src: m.src, tag: m.tag, size: m.size, sendReq: m.sendReq, srcRank: r.world.ranks[m.src]}
		if req := r.matchPosted(in); req != nil {
			r.shmCTS(req, in)
		} else {
			r.unexpected = append(r.unexpected, in)
		}
	case ctsMsg:
		// Shared-memory rendezvous: the "RDMA write" is a local copy.
		req := r.rndv[m.sendReq]
		delete(r.rndv, m.sendReq)
		if obs := r.world.obs; obs != nil {
			obs.handshake.Observe(int64(r.env().Now() - req.rtsAt))
		}
		env := r.env()
		d := sim.Time(float64(req.size) * ShmPerByteNanos)
		recvReq := m.recvReq
		if recvReq.data != nil && req.data != nil {
			copy(recvReq.data, req.data)
		}
		env.At(d, func() {
			recvReq.complete()
			req.complete()
		})
	case finMsg:
		m.recvReq.complete()
	}
}

// shmCTS grants a shared-memory rendezvous.
func (r *Rank) shmCTS(req *Request, in *inbound) {
	req.recvSize = in.size
	req.recvFrom = in.src
	r.shmDeliver(in.srcRank, &mpiMsg{kind: ctsMsg, src: r.id, sendReq: in.sendReq, recvReq: req}, nil)
}
