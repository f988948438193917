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
)

// mpiMsg is one protocol message: the header riding a verbs message or a
// shared-memory delivery, and, for an eager message or RTS that arrives
// before its receive is posted, the record the unexpected queue holds. The
// rendezvous FIN has no header: its verbs Meta is the receiver's *Request.
// An RTS or CTS is its request's hdr; an eager header comes from the
// sending rank's msgs and goes back there from deliverEager.
type mpiMsg struct {
	kind msgKind
	src  int // sender rank
	tag  int
	size int    // payload size of the MPI message
	data []byte // eager payload (nil for synthetic traffic): buf's copy of it
	// buf is the eager header's bounce buffer: Isend copies a payload into it,
	// so the sender's own buffer is free once Isend returns. It keeps its
	// memory when the header is reset, growing to the largest payload sent.
	buf []byte
	// Rendezvous fields: a request is its own id.
	sendReq *Request // RTS/CTS: the sender's request
	recvReq *Request // CTS: the receiver's request
	mr      *ib.MR   // CTS: the receive's landing region (its landing)
}

func (m *mpiMsg) matches(req *Request) bool {
	return (req.peer == AnySource || req.peer == m.src) &&
		(req.tag == AnyTag || req.tag == m.tag)
}

// Request is a pending nonblocking operation. As with MPI_Wait, Wait frees
// it: after Wait returns the *Request is gone, and the rank hands the same
// object out again for a later operation.
type Request struct {
	rank *Rank // nil once Wait has freed the request
	done *sim.Event
	peer int // destination (send) / source or AnySource (recv)
	tag  int
	size int    // send size / recv capacity
	data []byte // send payload / recv landing buffer

	// Results (valid after completion).
	recvSize int // actual bytes received
	recvFrom int // actual source rank

	// Telemetry: the protocol-phase span covering the operation and, for
	// rendezvous sends, the virtual time the RTS went out (handshake
	// latency = CTS arrival - rtsAt).
	span  telemetry.SpanRef
	rtsAt sim.Time

	// hdr is the rendezvous control message the request sends: a send's RTS,
	// a receive's CTS. Neither request can complete before the peer has read
	// it — the send waits for the CTS, the receive for the FIN — so the
	// header lives exactly as long as it is needed.
	hdr mpiMsg

	// landing is a wire rendezvous receive's landing region, which its CTS
	// advertises (the CTS's mr points here). It lives as long as the CTS's header, for the same reason:
	// the request cannot complete before the FIN, the sender posts the FIN
	// only after it read the region (rcPostSend's bounds check), and the QP
	// delivers the FIN only after the write whose deliverInOrder reads
	// RemoteMR.Buf. A retransmitted duplicate of the write stops at
	// t.delivered, before the region.
	landing ib.MR
}

// newRequest returns a request of r's, taken from its home environment's
// free requests, with a done event from the environment's event freelist.
func (r *Rank) newRequest(peer, tag, size int, data []byte) *Request {
	q := r.reqs.Get()
	q.rank, q.done = r, r.env().AcquireEvent()
	q.peer, q.tag, q.size, q.data = peer, tag, size, data
	return q
}

// reset is the request list's reset.
func (q *Request) reset() { *q = Request{} }

// reset is the eager header list's reset; the bounce buffer keeps its memory.
func (m *mpiMsg) reset() { *m = mpiMsg{buf: m.buf[:0]} }

// owner returns the rank q belongs to; a request Wait has freed has none.
func (q *Request) owner() *Rank {
	if q.rank == nil {
		panic("mpi: request used after Wait freed it")
	}
	return q.rank
}

// Done reports whether the operation completed. It must not be called after
// Wait.
func (q *Request) Done() bool {
	q.owner()
	return q.done.Triggered()
}

// Wait blocks the calling process until the operation completes, then frees
// the request, as MPI_Wait does: after Wait returns the *Request is gone.
// For receives it returns the byte count and source rank.
func (q *Request) Wait(p *sim.Proc) (int, int) {
	r := q.owner()
	p.Wait(q.done)
	n, from := q.recvSize, q.recvFrom
	r.env().ReleaseEvent(q.done)
	r.reqs.Put(q)
	return n, from
}

// complete finishes the operation. Each request completes exactly once: with
// recycling, a second completion would finish whichever operation reused
// the object, so it panics.
func (q *Request) complete() {
	r := q.owner()
	if q.done.Triggered() {
		panic("mpi: request completed twice")
	}
	if q.span.Valid() {
		if obs := r.world.obs; obs != nil && obs.rec != nil {
			obs.rec.EndAt(r.env().Now(), q.span)
		}
	}
	q.done.Trigger(nil)
}

// copyTime is the eager bounce-buffer copy cost for n bytes.
func (w *World) copyTime(n int) sim.Time {
	return sim.Time(float64(n) * copyPerByteNanos)
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
		switch m := c.Meta.(type) {
		case *mpiMsg:
			r.handleMsg(m)
		case *Request:
			// A rendezvous FIN: the data has landed in this receive.
			m.complete()
		}
	case ib.OpSend:
		if req, ok := c.Ctx.(*Request); ok {
			req.complete()
		}
	case ib.OpRDMAWrite:
		// Rendezvous data acknowledged (the FIN was already posted right
		// behind the write): the local buffer is reusable.
		c.Ctx.(*Request).complete()
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
			if recvReq := m.recvReq; recvReq.data != nil && req.data != nil {
				copy(recvReq.data, req.data)
			}
			r.shmAt(sim.Time(float64(req.size)*ShmPerByteNanos), shmItem{m: m})
			return
		}
		qp := r.qpTo(peer)
		qp.PostSend(ib.SendWR{
			Op: ib.OpRDMAWrite, Data: req.data, Len: req.size,
			RemoteMR: m.mr, Ctx: req, ParentSpan: req.span,
		})
		// Post the FIN immediately behind the write: the QP delivers in
		// order, so the receiver sees it only after the data has landed —
		// the standard RPUT design, which avoids paying an extra round
		// trip per rendezvous on high-delay links. It carries no header,
		// only the receiver's request back to its owner.
		qp.PostSend(ib.SendWR{Op: ib.OpSend, Len: CtrlBytes, Meta: m.recvReq, ParentSpan: req.span})
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
//
// It is the header's last reader, so it frees the header, reset, onto the
// sender's list: inline when the two ranks share an environment, over the
// return lane at the next barrier when they do not. The send request cannot
// free it: the transport ACK can complete and free that request while the
// receiver's CQ is held, before the handler here has read the header (on a
// sharded world, on another shard). A header still unexpected at world end
// stays out of use until the world ends.
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
	sender := r.world.ranks[m.src]
	sender.msgs.Return(r.env(), sender.env(), m)
	req.complete()
}

// sendCTS answers a matched RTS: grant the sender clearance to move the
// data, over the wire into a landing region registered here.
func (r *Rank) sendCTS(req *Request, m *mpiMsg) {
	if req.size < m.size {
		panic(fmt.Sprintf("mpi: rendezvous truncation at rank %d: recv %d < msg %d",
			r.id, req.size, m.size))
	}
	peer := r.world.ranks[m.src]
	var mr *ib.MR
	switch {
	case peer.node == r.node:
		// Shared memory: the sender copies, nothing to register.
	case req.data != nil:
		req.landing = r.node.HCA.BufferMR(req.data)
		mr = &req.landing
	default:
		// Synthetic receive: a virtual landing region of the right size,
		// without allocating payload memory.
		req.landing = r.node.HCA.VirtualMR(m.size)
		mr = &req.landing
	}
	req.recvSize = m.size
	req.recvFrom = m.src
	req.hdr = mpiMsg{kind: ctsMsg, src: r.id, sendReq: m.sendReq, recvReq: req, mr: mr}
	r.ctrlSend(peer, &req.hdr, telemetry.NoSpan)
}

// ctrlSend emits a rendezvous control header (RTS/CTS) to the peer; its
// verbs span (if any) nests under parent.
func (r *Rank) ctrlSend(peer *Rank, m *mpiMsg, parent telemetry.SpanRef) {
	if peer.node == r.node {
		r.shmDeliver(peer, m, nil)
		return
	}
	r.qpTo(peer).PostSend(ib.SendWR{Op: ib.OpSend, Len: CtrlBytes, Meta: m, ParentSpan: parent})
}

// shmDeliver carries a message between co-located ranks over the node's
// shared memory: a fixed latency plus a copy cost, no fabric involvement.
func (r *Rank) shmDeliver(peer *Rank, m *mpiMsg, ctx *Request) {
	r.shmAt(ShmLatency+sim.Time(float64(m.size)*ShmPerByteNanos), shmItem{to: peer, m: m, ctx: ctx})
}

// shmItem is a pending shared-memory event of a rank: m's delivery to rank
// to, which completes ctx (if any) after it, or, when to is nil, the end of
// the rendezvous copy that the CTS m granted.
type shmItem struct {
	at  sim.Time
	to  *Rank
	m   *mpiMsg
	ctx *Request
}

// shmAt schedules it d from now without a closure of its own: every pending
// item is one entry of the rank's runShm function value, and the kernel runs
// those in (time, schedule order), which is the order r.shm keeps, so each
// run takes the list's head. Co-located ranks share a node, hence a shard.
func (r *Rank) shmAt(d sim.Time, it shmItem) {
	env := r.env()
	it.at = env.Now() + d
	i := len(r.shm)
	r.shm = append(r.shm, it)
	for ; i > 0 && r.shm[i-1].at > it.at; i-- {
		r.shm[i] = r.shm[i-1]
	}
	r.shm[i] = it
	env.At(d, r.runShm)
}

// nextShm runs the rank's earliest pending shared-memory event.
func (r *Rank) nextShm() {
	it := r.shm[0]
	n := copy(r.shm, r.shm[1:])
	r.shm[n] = shmItem{}
	r.shm = r.shm[:n]
	if it.to == nil {
		it.m.recvReq.complete()
		it.m.sendReq.complete()
		return
	}
	it.to.handleMsg(it.m)
	if it.ctx != nil {
		it.ctx.complete()
	}
}
