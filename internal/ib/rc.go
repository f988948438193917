package ib

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/telemetry"
)

// rcPostSend queues a work request on an RC QP and starts transmission if
// the window allows.
func (q *QP) rcPostSend(wr SendWR) {
	q.assertConnected()
	if q.errored {
		// QP in the error state: the request is flushed immediately
		// without touching the wire or the sequence space.
		q.stats.Flushed++
		q.cq.post(Completion{Op: wr.Op, Status: StatusFlushed, Bytes: wr.payloadLen(), Ctx: wr.Ctx, QPN: q.qpn})
		return
	}
	size := wr.payloadLen()
	switch wr.Op {
	case OpSend:
	case OpRDMAWrite:
		if wr.RemoteMR == nil {
			panic("ib: RDMA write without RemoteMR")
		}
		if wr.RemoteOff+size > wr.RemoteMR.Len() {
			panic(fmt.Sprintf("ib: RDMA write beyond MR bounds: off=%d len=%d mr=%d",
				wr.RemoteOff, size, wr.RemoteMR.Len()))
		}
	case OpRDMARead:
		if wr.RemoteMR == nil {
			panic("ib: RDMA read without RemoteMR")
		}
		if wr.LocalBuf != nil && len(wr.LocalBuf) < size {
			panic("ib: RDMA read local buffer too small")
		}
		if wr.RemoteOff+size > wr.RemoteMR.Len() {
			panic("ib: RDMA read beyond MR bounds")
		}
	default:
		panic("ib: bad opcode for PostSend")
	}
	t := q.hca.pool.newTransfer()
	t.wr = wr
	t.size = size
	t.origin = q
	t.qpSeq = -1
	if obs := q.hca.fab.obs; obs != nil {
		if obs.rec != nil {
			t.span = obs.rec.StartAt(q.env().Now(), obs.verbsTrack(q.hca), verbsSpanName(wr.Op), wr.ParentSpan)
		}
		obs.rcSendQ.Observe(int64(q.window.Len() - q.launched))
	}
	if wr.Op != OpRDMARead {
		// Sends and RDMA writes deliver at the responder in posted order.
		// Read requests are served out of the sequence stream (their
		// responses flow the other way), so they take no slot.
		t.qpSeq = q.seqTx
		q.seqTx++
	}
	q.window.Push(t)
	q.kick()
}

// kick launches queued transfers while the in-flight window has room.
func (q *QP) kick() {
	if q.errored {
		return
	}
	obs := q.hca.fab.obs
	for q.unacked < q.cfg.MaxInflight && q.launched < q.window.Len() {
		t := *q.window.At(q.launched)
		q.launched++
		q.unacked++
		if obs != nil {
			obs.rcWindow.Observe(int64(q.unacked))
		}
		q.launch(t)
	}
}

// settle takes a completing transfer out of the window (see QP); one the
// error flush completed first, an RDMA read landing just before, is out.
func (q *QP) settle(t *transfer) {
	if t.acked {
		return
	}
	t.acked = true
	i := 0
	for *q.window.At(i) != t {
		i++
	}
	*q.window.At(i) = nil
	q.unacked--
	for q.launched > 0 && *q.window.Front() == nil {
		q.window.Pop()
		q.launched--
	}
	if t == q.aim {
		q.reaim()
	}
}

// reaim points the retry timer at the smallest armed key, or stops it.
func (q *QP) reaim() {
	var aim *transfer
	for i := 0; i < q.launched; i++ {
		if t := *q.window.At(i); t != nil && t.retry != (sim.Key{}) && (aim == nil || t.retry.Before(aim.retry)) {
			aim = t
		}
	}
	if q.aim = aim; aim != nil {
		q.retry.ArmAt(aim.retry)
	} else {
		q.retry.Stop()
	}
}

// launch schedules transmission of a transfer after the send-side overhead.
// For RDMA read, a single request packet is sent and the responder streams
// the data back.
func (q *QP) launch(t *transfer) {
	t.ref()
	q.env().AtArg(SendOverhead, launchBody, t)
}

// launchBody transmits all packets of a transfer (the SendOverhead stage).
//
// It and the other stage handlers — ackSend, writeDone, readServe, readDone,
// recvComp, udSend — are package functions with the transfer as argument: it
// names the QP each runs on (t.origin, t.origin.remote, or t.resp, the QP
// whose receive WQE an inbound send consumed), so a QP holds no closures.
func launchBody(v any) {
	t := v.(*transfer)
	q := t.origin
	pl := q.hca.pool
	if fab := q.hca.fab; fab.health != nil {
		// Stamp the attempt with the routing epoch it launches under, so a
		// later retry timeout is only attributed to the links of a route
		// the attempt actually took (see healthState.noteTimeout).
		t.epoch = fab.routeEpoch.Load()
	}
	port := q.hca.routeTo(q.remote.hca.lid)
	if t.wr.Op == OpRDMARead {
		q.stats.ReadRequests++
		t.ref()
		port.send(q.newPacket(packet{
			dst: q.remote.hca.lid, dstQP: int32(q.remote.qpn),
			kind: pktReadReq, wire: ReadReqBytes, msg: t, last: true,
		}))
	} else {
		q.sendDataPackets(port, q.remote, t, pktData)
		q.stats.MsgsSent++
		q.stats.BytesSent += int64(t.size)
	}
	q.armRetry(t)
	pl.unref(t)
}

// sendDataPackets packetizes a transfer onto the wire toward dst. On an
// exclusive route a message of several packets goes as a train: its last
// packet alone, carrying the others as its body (see train).
func (q *QP) sendDataPackets(port *Port, dst *QP, t *transfer, kind pktKind) {
	n := max((t.size+MTU-1)/MTU, 1)
	first := 0
	if n > 1 && port.exclusiveTo(dst.hca.lid) {
		first = n - 1
		q.tx += uint64(first) // the body's packets take their transmit indices too
	}
	remaining := t.size - first*MTU
	for i := first; i < n; i++ {
		chunk := min(remaining, MTU)
		remaining -= chunk
		// Every caller holds its own reference on t for the duration of
		// this loop, so a fault-injected drop inside port.send (which
		// releases the packet's reference) can never recycle t mid-loop.
		t.ref()
		pkt := q.newPacket(packet{
			dst: dst.hca.lid, dstQP: int32(dst.qpn),
			kind: kind, wire: HeaderRC + chunk, payload: chunk,
			msg: t, seq: int32(i), last: i == n-1,
		})
		if first > 0 {
			pkt.carry(first, q.env().Now())
		}
		port.send(pkt)
	}
}

// armRetry arms a retransmission if the transfer is not acknowledged within
// the retry timeout; in a loss-free fabric none fires. The key is reserved
// even for a transfer that completed while it was relaunched (see QP).
//
// Each retry doubles the timeout (capped at base << maxBackoffShift) and
// spends one unit of the QP's retry budget; when the budget runs out the
// transfer completes with StatusRetryExceeded and the QP errors instead
// of retransmitting forever (see retryExhausted).
func (q *QP) armRetry(t *transfer) {
	k := q.env().Reserve(q.cfg.RetryTimeout << min(t.retried, maxBackoffShift))
	if t.acked {
		return
	}
	t.retry = k
	if q.aim == nil || k.Before(q.aim.retry) {
		q.aim = t
		q.retry.ArmAt(k)
	}
}

// retryFired is the retry timer of QP v expiring at its aim's key.
func retryFired(v any) {
	q := v.(*QP)
	t := q.aim
	t.retry = sim.Key{}
	q.reaim()
	if q.cfg.RetryLimit >= 0 && t.retried >= q.cfg.RetryLimit {
		q.retryExhausted(t)
		return
	}
	t.retried++
	q.stats.Retransmits++
	if obs := q.hca.fab.obs; obs != nil {
		obs.rcRetransmits.Add(1)
	}
	q.hca.fab.trace(evRTO, q.hca, &packet{kind: t.wr.Op.pktKind(), msg: t}, "timeout")
	// Feed reactive link-health detection before relaunching: if this
	// timeout pushes a monitored link on the path over its threshold,
	// the re-sweep below runs synchronously and the retransmission
	// resolves its route over the fresh tables.
	if h := q.hca.fab.health; h != nil {
		h.noteTimeout(q, t)
	}
	q.launch(t)
}

// retryExhausted is the QP error transition: the transfer that ran out of
// retries completes with StatusRetryExceeded, then every other in-flight
// and queued work request flushes with StatusFlushed (in-flight first in
// posting order, then the send queue in order), exactly the completion
// stream a real HCA delivers when a QP enters the error state. The QP
// stays errored; later posts flush immediately in rcPostSend.
func (q *QP) retryExhausted(t *transfer) {
	q.errored = true
	q.stats.RetryExhausted++
	if obs := q.hca.fab.obs; obs != nil {
		obs.rcGiveUps.Add(1)
		obs.qpErrors.Add(1)
	}
	q.hca.fab.trace(evErr, q.hca, &packet{kind: t.wr.Op.pktKind(), msg: t}, "retry-exceeded")
	q.retry.Stop()
	q.aim = nil
	q.settle(t) // poison against late acks from earlier attempts
	q.endVerbsSpan(t)
	q.cq.post(Completion{Op: t.wr.Op, Status: StatusRetryExceeded, Bytes: t.size, Ctx: t.wr.Ctx, QPN: q.qpn})
	q.hca.pool.endpointDone(t, xferSenderDone)
	// Flush the rest of the window in posting order: the in-flight entries,
	// then the queued ones.
	for q.window.Len() > 0 {
		if t := q.window.Pop(); t != nil {
			q.flushTransfer(t)
		}
	}
	q.launched, q.unacked = 0, 0
}

// flushTransfer error-completes one work request of an errored QP.
func (q *QP) flushTransfer(t *transfer) {
	t.acked = true
	q.stats.Flushed++
	q.endVerbsSpan(t)
	q.cq.post(Completion{Op: t.wr.Op, Status: StatusFlushed, Bytes: t.size, Ctx: t.wr.Ctx, QPN: q.qpn})
	q.hca.pool.endpointDone(t, xferSenderDone)
}

// rcReceive handles an arriving RC packet.
func (q *QP) rcReceive(pkt *packet) {
	if q.errored {
		// A QP in the error state silently discards arriving packets; in
		// particular a late ack for an attempt that did get through must
		// not complete a request already flushed in error. The caller
		// recycles the packet.
		return
	}
	switch pkt.kind {
	case pktData:
		q.rcData(pkt, false)
	case pktReadResp:
		q.rcData(pkt, true)
	case pktAck:
		q.rcAck(pkt)
	case pktReadReq:
		q.rcReadReq(pkt)
	}
}

// rcData reassembles inbound data packets; readResp marks RDMA read
// response data flowing back to the requester.
func (q *QP) rcData(pkt *packet, readResp bool) {
	t := pkt.msg
	if t.delivered {
		// Duplicate from a retransmission whose original completed but
		// whose ack was lost: re-acknowledge, do not redeliver.
		if pkt.last && !readResp {
			q.sendAck(t)
		}
		return
	}
	if pkt.ecn {
		t.ecn = true
	}
	switch m := pkt.body(); {
	case m > 0: // a train's last packet: its body began at seq 0
		t.got = m*MTU + pkt.payload
	case pkt.seq == 0:
		t.got = pkt.payload
	default:
		t.got += pkt.payload
	}
	if !pkt.last || t.got < t.size {
		return
	}
	// Transfer complete at this end.
	t.delivered = true
	if readResp {
		// Requester side of an RDMA read: land the data, complete the WR.
		// (Read responses are transport-internal and not part of the
		// forward message sequence.)
		if t.wr.LocalBuf != nil && t.readData != nil {
			copy(t.wr.LocalBuf, t.readData)
		}
		t.ref()
		q.env().AtArg(RecvOverheadRDMA, readDone, t)
		return
	}
	// Deliver strictly in message-sequence order. A message that overtook
	// a retransmitted predecessor waits here, exactly as out-of-order
	// packets are discarded and resent in order on a real RC connection.
	if t.qpSeq != q.seqRx {
		if q.reorder == nil {
			q.reorder = make(map[int64]*transfer)
		}
		q.reorder[t.qpSeq] = t
		return
	}
	q.deliverInOrder(t)
	for next, ok := q.reorder[q.seqRx]; ok; next, ok = q.reorder[q.seqRx] {
		delete(q.reorder, q.seqRx)
		q.deliverInOrder(next)
	}
}

// readDone completes an RDMA read on the requester side (the
// RecvOverheadRDMA stage).
func readDone(v any) {
	t := v.(*transfer)
	q := t.origin
	q.settle(t)
	q.endVerbsSpan(t)
	q.cq.post(Completion{Op: OpRDMARead, Status: StatusOK, Bytes: t.size, Ctx: t.wr.Ctx, QPN: q.qpn})
	q.hca.pool.endpointDone(t, xferSenderDone)
	q.kick()
	q.hca.pool.unref(t)
}

// endVerbsSpan closes the transfer's verbs-layer span at the current time.
func (q *QP) endVerbsSpan(t *transfer) {
	if obs := q.hca.fab.obs; obs != nil && obs.rec != nil {
		obs.rec.EndAt(q.env().Now(), t.span)
		t.span = telemetry.NoSpan
	}
}

// deliverInOrder applies a completed inbound transfer's effects.
func (q *QP) deliverInOrder(t *transfer) {
	q.seqRx++
	q.stats.MsgsRecv++
	q.stats.BytesRecv += int64(t.size)
	switch t.wr.Op {
	case OpSend:
		if q.recvQ.Len() == 0 {
			q.stats.RNRBuffered++
			q.pending.Push(t)
		} else {
			q.deliverSend(t)
		}
		q.sendAck(t)
	case OpRDMAWrite:
		if t.wr.Data != nil && t.wr.RemoteMR.Buf != nil {
			copy(t.wr.RemoteMR.Buf[t.wr.RemoteOff:], t.wr.Data)
		}
		t.ref()
		q.env().AtArg(RecvOverheadRDMA, writeDone, t)
	}
}

// writeDone finishes an RDMA write on the responder side (the
// RecvOverheadRDMA stage): acknowledge and optionally notify.
func writeDone(v any) {
	t := v.(*transfer)
	q := t.origin.remote
	q.sendAckNow(t)
	if t.wr.NotifyRemote {
		q.cq.post(Completion{Op: OpRDMAWrite, Status: StatusOK, Bytes: t.size,
			QPN: q.qpn, SrcQPN: t.origin.qpn, SrcLID: t.origin.hca.lid, Meta: t.wr.Meta})
	}
	q.hca.pool.endpointDone(t, xferRecvDone)
	q.hca.pool.unref(t)
}

// deliverSend consumes a receive WQE for a completed inbound send.
func (q *QP) deliverSend(t *transfer) {
	rwr := q.recvQ.pop()
	if rwr.Buf != nil && t.wr.Data != nil {
		copy(rwr.Buf, t.wr.Data)
	}
	t.rwr = rwr
	t.resp = q
	t.ref()
	q.env().AtArg(RecvOverheadSR, recvComp, t)
}

// recvComp posts the receive completion (the RecvOverheadSR stage) on the
// QP that consumed the receive WQE, RC or UD.
func recvComp(v any) {
	t := v.(*transfer)
	q := t.resp
	q.cq.post(Completion{Op: OpRecv, Status: StatusOK, Bytes: t.size, Ctx: t.rwr.Ctx, QPN: q.qpn, SrcQPN: t.origin.qpn, SrcLID: t.origin.hca.lid, Meta: t.wr.Meta, ECN: t.ecn})
	q.hca.pool.endpointDone(t, xferRecvDone)
	q.hca.pool.unref(t)
}

// sendAck acknowledges a completed inbound transfer after the
// channel-semantics receive overhead.
func (q *QP) sendAck(t *transfer) {
	t.ref()
	q.env().AtArg(RecvOverheadSR, ackSend, t)
}

// ackSend emits the ack (the RecvOverheadSR stage behind sendAck).
func ackSend(v any) {
	t := v.(*transfer)
	q := t.origin.remote
	q.sendAckNow(t)
	q.hca.pool.unref(t)
}

func (q *QP) sendAckNow(t *transfer) {
	q.stats.Acks++
	port := q.hca.routeTo(q.remote.hca.lid)
	t.ref()
	port.send(q.newPacket(packet{
		dst: q.remote.hca.lid, dstQP: int32(q.remote.qpn),
		kind: pktAck, wire: AckBytes, msg: t, last: true,
	}))
}

// rcAck completes the acknowledged transfer and slides the window.
func (q *QP) rcAck(pkt *packet) {
	t := pkt.msg
	if t.acked {
		return // duplicate ack after retransmission
	}
	q.settle(t)
	if h := q.hca.fab.health; h != nil {
		h.noteSuccess(q)
	}
	q.endVerbsSpan(t)
	q.cq.post(Completion{Op: t.wr.Op, Status: StatusOK, Bytes: t.size, Ctx: t.wr.Ctx, QPN: q.qpn})
	q.hca.pool.endpointDone(t, xferSenderDone)
	q.kick()
}

// rcReadReq serves an RDMA read: snapshot the region and stream it back as
// read-response data.
func (q *QP) rcReadReq(pkt *packet) {
	t := pkt.msg
	mr := t.wr.RemoteMR
	if mr.hca != q.hca {
		panic("ib: RDMA read targets MR on a different HCA")
	}
	if t.wr.LocalBuf != nil && mr.Buf != nil {
		t.readData = make([]byte, t.size)
		copy(t.readData, mr.Buf[t.wr.RemoteOff:t.wr.RemoteOff+t.size])
	}
	t.ref()
	q.env().AtArg(RecvOverheadRDMA, readServe, t)
}

// readServe streams RDMA read response data back to the requester (the
// responder's RecvOverheadRDMA stage).
func readServe(v any) {
	t := v.(*transfer)
	q := t.origin.remote
	port := q.hca.routeTo(q.remote.hca.lid)
	q.sendDataPackets(port, q.remote, t, pktReadResp)
	q.hca.pool.endpointDone(t, xferRecvDone)
	q.hca.pool.unref(t)
}
