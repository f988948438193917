package mpi

import (
	"fmt"

	"repro/internal/ib"
	"repro/internal/sim"
)

// Isend starts a nonblocking send of size bytes (or of data, when non-nil)
// to rank dst with the given tag. Messages at or below the eager threshold
// go eagerly (bounce-buffer copy, one-way); larger messages use the
// rendezvous protocol (RTS/CTS handshake, zero-copy RDMA write).
//
// The returned request completes when the send buffer is reusable: for
// eager sends, when the transport acknowledges the message (the payload was
// copied into the header's bounce buffer before Isend returned, so what the
// receiver reads does not depend on the buffer after that); for rendezvous,
// when the RDMA write has been acknowledged. Wait on it exactly once: after
// Wait returns the *Request is gone (MPI_Wait frees the request).
func (r *Rank) Isend(p *sim.Proc, dst, tag int, data []byte, size int) *Request {
	if data != nil {
		size = len(data)
	}
	if dst < 0 || dst >= len(r.world.ranks) {
		panic(fmt.Sprintf("mpi: Isend to invalid rank %d", dst))
	}
	req := r.newRequest(dst, tag, size, data)
	r.world.profile.record(size)
	peer := r.world.ranks[dst]
	eager := size <= r.world.cfg.EagerThreshold
	if obs := r.world.obs; obs != nil {
		obs.msgBytes.Observe(int64(size))
		if eager {
			obs.eagerMsgs.Add(1)
		} else {
			obs.rndvMsgs.Add(1)
		}
		if obs.rec != nil {
			name := "mpi.eager"
			if !eager {
				name = "mpi.rndv"
			}
			req.span = obs.rec.StartAt(r.env().Now(), r.obsTrack(), name, r.collSpan)
		}
	}
	if eager {
		// The eager header comes from this rank's list and the receiver,
		// not this request, frees it (deliverEager): the transport ACK can
		// complete and free this request before the receiver has read it.
		m := r.msgs.Get()
		*m = mpiMsg{kind: eagerMsg, src: r.id, tag: tag, size: size, buf: m.buf}
		if data != nil {
			// The bounce-buffer copy that copyTime charges: the receiver
			// reads the header's copy, whenever its receive matches.
			m.buf = append(m.buf[:0], data...)
			m.data = m.buf
		}
		if peer.node == r.node {
			// Shared-memory path: single copy charged here.
			p.Sleep(sim.Time(float64(size) * ShmPerByteNanos))
			r.shmDeliver(peer, m, req)
			return req
		}
		// Sender-side bounce-buffer copy, then a single verbs send.
		p.Sleep(r.world.copyTime(size))
		qp := r.qpTo(peer)
		qp.PostSend(ib.SendWR{Op: ib.OpSend, Len: size + CtrlBytes, Meta: m, Ctx: req, ParentSpan: req.span})
		return req
	}
	// Rendezvous: the RTS is the request's own header.
	req.hdr = mpiMsg{kind: rtsMsg, src: r.id, tag: tag, size: size, sendReq: req}
	req.rtsAt = r.env().Now()
	r.ctrlSend(peer, &req.hdr, req.span)
	return req
}

// Irecv posts a nonblocking receive matching (src, tag); src may be
// AnySource and tag may be AnyTag. When buf is non-nil the message payload
// lands there (its length is the capacity); otherwise size is the synthetic
// capacity. Wait on the returned request exactly once: after Wait returns
// the *Request is gone.
func (r *Rank) Irecv(src, tag int, buf []byte, size int) *Request {
	if buf != nil {
		size = len(buf)
	}
	if src != AnySource && (src < 0 || src >= len(r.world.ranks)) {
		panic(fmt.Sprintf("mpi: Irecv from invalid rank %d", src))
	}
	req := r.newRequest(src, tag, size, buf)
	if m := r.matchUnexpected(req); m != nil {
		if m.kind == rtsMsg {
			r.sendCTS(req, m)
		} else {
			// The receive-side copy of an arrival holds the progress
			// engine; an already-arrived message is landed at once, its
			// copy folded into the wait that already happened.
			r.deliverEager(req, m)
		}
		return req
	}
	r.postedRecvs = append(r.postedRecvs, req)
	return req
}

// Send is a blocking send.
func (r *Rank) Send(p *sim.Proc, dst, tag int, data []byte, size int) {
	req := r.Isend(p, dst, tag, data, size)
	req.Wait(p)
}

// Recv is a blocking receive; it returns the received byte count and the
// source rank.
func (r *Rank) Recv(p *sim.Proc, src, tag int, buf []byte, size int) (int, int) {
	req := r.Irecv(src, tag, buf, size)
	return req.Wait(p)
}

// Sendrecv performs a blocking combined send and receive, the workhorse of
// pairwise-exchange collectives.
func (r *Rank) Sendrecv(p *sim.Proc, dst, stag int, sdata []byte, ssize int,
	src, rtag int, rbuf []byte, rsize int) (int, int) {
	rreq := r.Irecv(src, rtag, rbuf, rsize)
	sreq := r.Isend(p, dst, stag, sdata, ssize)
	sreq.Wait(p)
	return rreq.Wait(p)
}

// WaitAll blocks until every request completes, waiting on each in order;
// like Wait it frees them, so the slice names no live request afterwards.
func WaitAll(p *sim.Proc, reqs []*Request) {
	for _, q := range reqs {
		q.Wait(p)
	}
}
