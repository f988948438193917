package ib

import (
	"sync/atomic"

	"repro/internal/telemetry"
)

type pktKind uint8

const (
	pktData pktKind = iota
	pktAck
	pktReadReq
	pktReadResp
)

// packet is a wire packet. Payload bytes are not carried per packet; the
// sender-side transfer context (msg) holds the data, which the responder
// materializes when the last packet of the transfer lands. This is valid
// because RC paths are FIFO and delivery is in order.
type packet struct {
	src, dst     LID
	srcQP, dstQP int
	wire         int // total bytes on the wire (header + payload share)
	payload      int // payload bytes carried by this packet
	msg          *transfer
	seq          int     // packet index within the transfer
	kind         pktKind // one byte beside the flags: with home, the struct still fits 80 bytes
	last         bool
	ud           bool // UD datagram (reported as pkt "ud" in traces)
	// ecn is the congestion-experienced codepoint: set by a bounded link
	// queue at admission past its ECN threshold, accumulated onto the
	// receiving transfer, and surfaced to upper layers via Completion.ECN.
	ecn bool
	// home is the pool the packet was taken from and goes back to.
	home *pool
}

// transfer is the sender-side context of one message / RDMA operation in
// flight on a QP.
type transfer struct {
	id     int64
	wr     SendWR
	size   int // payload length
	origin *QP // QP that initiated the transfer
	// qpSeq orders messages within one direction of a QP; the responder
	// delivers strictly in this order, which preserves RC's in-order
	// guarantee even when a retransmitted message arrives after its
	// successors.
	qpSeq   int64
	acked   bool
	retried int
	// epoch is the fabric routing epoch the latest transmission attempt
	// launched under. Reactive health detection only attributes a retry
	// timeout to the links of the current route when the attempt actually
	// ran on it — a timeout of an attempt that predates a re-sweep says
	// nothing about the replacement path (see healthState.noteTimeout).
	epoch int64
	// inbound reassembly progress (responder side)
	got       int
	delivered bool
	// ecn accumulates congestion-experienced marks from the transfer's
	// packets (responder-owned, like got) and rides into Completion.ECN.
	ecn bool
	// readData is the responder-side snapshot streamed back for RDMA read.
	readData []byte
	// data carried by a UD datagram (single packet).
	udData []byte
	// rwr is the receive WQE consumed by this transfer (send/recv
	// semantics) and resp the QP that consumed it, stashed here between
	// delivery and the completion posting so the receive-overhead stage is a
	// package function (recvComp) instead of a closure per QP or message.
	// For RC resp is origin.remote; a UD datagram names no peer QP but this.
	rwr  RecvWR
	resp *QP

	// state is the freelist accounting word: a reference count and the two
	// endpoint-done flags (see xferDone in fabric.go). It is the only field
	// both endpoints write; everything else in the struct is either
	// endpoint-owned or handed across inside a packet, whose mailbox
	// crossing establishes the ordering.
	state atomic.Int32

	// span is the verbs-layer telemetry span covering the operation from
	// post to completion (null when observation is off). WAN queue spans
	// parent under it, and upper layers parent it under their protocol
	// spans via SendWR.ParentSpan.
	span telemetry.SpanRef
}

// reset zeroes the transfer for freelist reuse. Field-by-field rather than
// a struct assignment: the atomic must not be copied.
func (t *transfer) reset() {
	t.id = 0
	t.wr = SendWR{}
	t.size = 0
	t.origin = nil
	t.qpSeq = 0
	t.acked = false
	t.retried = 0
	t.epoch = 0
	t.got = 0
	t.delivered = false
	t.ecn = false
	t.readData = nil
	t.udData = nil
	t.rwr = RecvWR{}
	t.resp = nil
	t.state.Store(0)
	t.span = telemetry.SpanRef{}
}
