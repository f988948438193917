package ib

import "fmt"

// MaxUDPayload is the largest UD message: a single MTU.
const MaxUDPayload = MTU

// udPostSend transmits a datagram. UD is open-loop: the send completes as
// soon as the datagram has left the HCA, and no acknowledgement ever flows
// back — which is why UD throughput is independent of WAN delay (paper
// Fig. 4).
func (q *QP) udPostSend(wr SendWR) {
	if wr.Op != OpSend {
		panic("ib: UD supports only send/recv semantics")
	}
	size := wr.payloadLen()
	if size > MaxUDPayload {
		panic(fmt.Sprintf("ib: UD message %d exceeds MTU %d", size, MaxUDPayload))
	}
	if wr.DestLID == 0 {
		panic("ib: UD send requires DestLID/DestQPN")
	}
	q.hca.fab.ensureRouted()
	fab, pl := q.hca.fab, q.hca.pool
	t := pl.newTransfer()
	t.wr = wr
	t.size = size
	t.origin = q
	t.udData = wr.Data
	if obs := fab.obs; obs != nil && obs.rec != nil {
		t.span = obs.rec.StartAt(q.env().Now(), obs.verbsTrack(q.hca), "verbs.ud.send", wr.ParentSpan)
	}
	t.ref()
	q.env().AtArg(SendOverhead, udSend, t)
}

// udSend puts the datagram on the wire (the SendOverhead stage).
func udSend(v any) {
	t := v.(*transfer)
	q := t.origin
	pl := q.hca.pool
	port := q.hca.routeTo(t.wr.DestLID)
	if port == nil {
		panic(fmt.Sprintf("ib: no route from %s to LID %d", q.hca.name, t.wr.DestLID))
	}
	t.ref()
	port.send(q.newPacket(packet{
		dst: t.wr.DestLID, dstQP: int32(t.wr.DestQPN),
		kind: pktData, wire: HeaderUD + t.size, payload: t.size,
		msg: t, last: true, ud: true,
	}))
	q.stats.MsgsSent++
	q.stats.BytesSent += int64(t.size)
	q.endVerbsSpan(t) // UD completes at wire departure (open loop)
	q.cq.post(Completion{Op: OpSend, Status: StatusOK, Bytes: t.size, Ctx: t.wr.Ctx, QPN: q.qpn})
	pl.endpointDone(t, xferSenderDone)
	pl.unref(t)
}

// udReceive delivers a datagram into a posted receive, or drops it.
func (q *QP) udReceive(pkt *packet) {
	t := pkt.msg
	if q.recvQ.Len() == 0 {
		q.hca.fab.discard(discardNoRecv, &q.stats.RecvDrops, q.hca, pkt)
		// Nothing on this end will ever touch the transfer again; the
		// packet's reference (released by the caller) recycles it.
		q.hca.pool.endpointDone(t, xferRecvDone)
		return
	}
	rwr := q.recvQ.pop()
	if rwr.Buf != nil && t.udData != nil {
		copy(rwr.Buf, t.udData)
	}
	if pkt.ecn {
		// Datagrams are single-packet; the mark transfers directly.
		t.ecn = true
	}
	q.stats.MsgsRecv++
	q.stats.BytesRecv += int64(t.size)
	t.rwr = rwr
	t.resp = q
	t.ref()
	q.env().AtArg(RecvOverheadSR, recvComp, t)
}
