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

// mpiMsg is one protocol message: the header riding a verbs message or a
// shared-memory delivery, and, for an eager message or RTS that arrives
// before its receive is posted, the record the unexpected queue holds.
type mpiMsg struct {
	kind msgKind
	src  int // sender rank
	tag  int
	size int    // payload size of the MPI message
	data []byte // eager payload (nil for synthetic traffic)
	// Rendezvous fields: a request is its own id.
	sendReq *Request // RTS/CTS: the sender's request
	recvReq *Request // CTS/FIN: the receiver's request
	mr      *ib.MR   // CTS: registered landing region
}

func (m *mpiMsg) matches(req *Request) bool {
	return (req.peer == AnySource || req.peer == m.src) &&
		(req.tag == AnyTag || req.tag == m.tag)
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

// copyTime is the eager bounce-buffer copy cost for n bytes.
func (w *World) copyTime(n int) sim.Time {
	return sim.Time(float64(n) * w.cfg.CopyPerByteNanos)
}

// progress is the rank's progress engine, the completion handler of its CQ:
// it reposts receives, runs the matching engine and drives the rendezvous
// protocol.
func (r *Rank) progress(c ib.Completion) {
	if c.Status != ib.StatusOK {
		// An errored completion means an RC connection exhausted its retry
		// budget: MPI has no recovery story (as in the paper's era), so the
		// job aborts. The panic carries a deterministic message and surfaces
		// as the experiment point's error.
		panic(fmt.Sprintf("mpi: rank %d: %s completed with %s (communication failure)",
			r.id, c.Op, c.Status))
	}
	switch c.Op {
	case ib.OpRecv:
		if qp := r.byQPN[c.QPN]; qp != nil {
			qp.PostRecv(ib.RecvWR{})
		}
		r.handleMsg(c.Meta.(*mpiMsg))
	case ib.OpSend:
		if req, ok := c.Ctx.(*Request); ok {
			req.complete()
		}
	case ib.OpRDMAWrite:
		// Rendezvous data acknowledged (the FIN was already posted right
		// behind the write), or a one-sided Put: either way the local
		// buffer is reusable.
		c.Ctx.(*Request).complete()
	case ib.OpRDMARead:
		// One-sided Get landed.
		if req, ok := c.Ctx.(*Request); ok {
			req.complete()
		}
	}
}

// handleMsg processes an arrived protocol message, off the wire (inside the
// completion handler) or out of shared memory (a scheduled delivery). The
// two differ where the sender shares the node: shared memory charges its
// copy on the sender's timeline and moves rendezvous data with a local copy,
// not an RDMA write into a registered region.
func (r *Rank) handleMsg(m *mpiMsg) {
	switch m.kind {
	case eagerMsg, rtsMsg:
		req := r.matchPosted(m)
		switch {
		case req == nil:
			r.unexpected = append(r.unexpected, m)
		case m.kind == rtsMsg:
			r.sendCTS(req, m)
		case r.world.ranks[m.src].node == r.node:
			r.deliverEager(req, m)
		default:
			// Receiver-side bounce-buffer copy.
			r.copyReq, r.copyMsg = req, m
			r.cq.Hold(r.world.copyTime(m.size), r.copied)
		}
	case ctsMsg:
		req := m.sendReq
		if obs := r.world.obs; obs != nil {
			obs.handshake.Observe(int64(r.env().Now() - req.rtsAt))
		}
		peer := r.world.ranks[req.peer]
		if peer.node == r.node {
			// Shared-memory rendezvous: the "RDMA write" is a local copy.
			recvReq := m.recvReq
			if recvReq.data != nil && req.data != nil {
				copy(recvReq.data, req.data)
			}
			r.env().At(sim.Time(float64(req.size)*ShmPerByteNanos), func() {
				recvReq.complete()
				req.complete()
			})
			return
		}
		r.qpTo(peer).PostSend(ib.SendWR{
			Op: ib.OpRDMAWrite, Data: req.data, Len: req.size,
			RemoteMR: m.mr, Ctx: req, ParentSpan: req.span,
		})
		// Post the FIN immediately behind the write: the QP delivers in
		// order, so the receiver sees it only after the data has landed —
		// the standard RPUT design, which avoids paying an extra round
		// trip per rendezvous on high-delay links.
		r.ctrlSend(peer, &mpiMsg{kind: finMsg, src: r.id, recvReq: m.recvReq}, nil, req.span)
	case finMsg:
		m.recvReq.complete()
	}
}

// matchPosted scans posted receives in order for the first match and
// removes it.
func (r *Rank) matchPosted(m *mpiMsg) *Request {
	for i, req := range r.postedRecvs {
		if m.matches(req) {
			r.postedRecvs = append(r.postedRecvs[:i], r.postedRecvs[i+1:]...)
			return req
		}
	}
	return nil
}

// matchUnexpected scans the unexpected queue in arrival order for the first
// message matching req and removes it.
func (r *Rank) matchUnexpected(req *Request) *mpiMsg {
	for i, m := range r.unexpected {
		if m.matches(req) {
			r.unexpected = append(r.unexpected[:i], r.unexpected[i+1:]...)
			return m
		}
	}
	return nil
}

// deliverEager lands an eager message into a matched receive request.
func (r *Rank) deliverEager(req *Request, m *mpiMsg) {
	n := m.size
	if req.size < n {
		n = req.size // truncation: receiver buffer smaller than message
	}
	if req.data != nil && m.data != nil {
		copy(req.data, m.data[:min(n, len(m.data))])
	}
	req.recvSize = n
	req.recvFrom = m.src
	req.complete()
}

// sendCTS answers a matched RTS: grant the sender clearance to move the
// data, over the wire into a landing region registered here.
func (r *Rank) sendCTS(req *Request, m *mpiMsg) {
	peer := r.world.ranks[m.src]
	var mr *ib.MR
	switch {
	case peer.node == r.node:
		// Shared memory: the sender copies, nothing to register.
	case req.data != nil:
		if len(req.data) < m.size {
			panic(fmt.Sprintf("mpi: rendezvous truncation at rank %d: recv %d < msg %d",
				r.id, len(req.data), m.size))
		}
		mr = r.node.HCA.RegisterMR(req.data)
	default:
		// Synthetic receive: a virtual landing region of the right size,
		// without allocating payload memory.
		mr = r.node.HCA.RegisterVirtualMR(m.size)
	}
	req.mr = mr
	req.recvSize = m.size
	req.recvFrom = m.src
	r.ctrlSend(peer, &mpiMsg{kind: ctsMsg, src: r.id, sendReq: m.sendReq, recvReq: req, mr: mr}, nil, telemetry.NoSpan)
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
		peer.handleMsg(m)
		if ctx != nil {
			ctx.complete()
		}
	})
}
