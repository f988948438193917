package ib

import (
	"sync/atomic"

	"repro/internal/sim"
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
	srcQP, dstQP int32
	tx           uint64 // index on the source QP's transmit counter (QP.newPacket)
	wire         int    // total bytes on the wire (header + payload share)
	payload      int    // payload bytes carried by this packet
	msg          *transfer
	seq          int32   // packet index within the transfer; a message has at most 2^20 packets
	kind         pktKind // one byte beside the flags and seq: with home and train, the struct fits 80 bytes
	last         bool
	ud           bool // UD datagram (reported as pkt "ud" in traces)
	// ecn is the congestion-experienced codepoint: set by a bounded link
	// queue at admission past its ECN threshold, accumulated onto the
	// receiving transfer, and surfaced to upper layers via Completion.ECN.
	ecn bool
	// home is the pool the packet was taken from and goes back to.
	home *pool
	// train is made the first time the packet carries a train body and stays
	// with it through recycling, zeroed; a body of m == 0 is no train.
	train *train
}

// resetPacket is the packet list's reset: the packet keeps its train
// record, zeroed.
func resetPacket(pkt *packet) {
	if tr := pkt.train; tr != nil {
		*tr = train{}
	}
	*pkt = packet{train: pkt.train}
}

// body returns the number of body packets the packet carries ahead of it.
func (pkt *packet) body() int {
	if pkt.train == nil {
		return 0
	}
	return pkt.train.m
}

// carry makes pkt the last packet of a train whose m body packets all reach
// the first port at now (see train).
func (pkt *packet) carry(m int, now sim.Time) {
	if pkt.train == nil {
		pkt.train = new(train)
	}
	*pkt.train = train{m: m, n: 1, alpha: [maxTrainTerms]sim.Time{now}}
}

// maxTrainTerms bounds a train's affine terms, and so the distinct link rates
// of a route that carries trains.
const maxTrainTerms = 4

// train is the body of a packet train: the m full MTU packets of a message
// that travel ahead of its last packet on an exclusive route (see
// Port.exclusiveTo), as a closed form instead of an event each per link.
// Body packet i reaches the port the train is at — the instant its event
// would run — at max over k < n of alpha[k] + i·beta[k]. At launch that is
// one term, (now, 0). A port books the body as a whole when the last packet
// reaches it (Port.sendBody): each port's FIFO turns a max of affine terms
// into another (book), and the link adds a constant (shift). The record holds
// no pointer.
type train struct {
	m, n        int
	alpha, beta [maxTrainTerms]sim.Time
}

// at returns the instant body packet i reaches the port.
func (tr *train) at(i int) sim.Time {
	a := tr.alpha[0] + sim.Time(i)*tr.beta[0]
	for k := 1; k < tr.n; k++ {
		a = max(a, tr.alpha[k]+sim.Time(i)*tr.beta[k])
	}
	return a
}

// book turns the body's arrivals at a port into its departures from it. A
// port that is busy until busy and serializes a body packet in s departs
// packet i at d_i = max(a_i, d_{i-1}) + s, d_{-1} = busy. Unrolled, d_i is
// the max over j <= i of a_j + (i-j+1)·s and busy + (i+1)·s; for one term
// of a_j, j·beta + (i-j)·s peaks at an end of [0, i], so the term becomes
// (alpha + s, max(beta, s)) and busy adds (busy + s, s). Terms of slope s
// merge into one, so slopes stay distinct — one per distinct s on the route.
func (tr *train) book(busy, s sim.Time) {
	flat := busy + s
	n := 0
	for k := 0; k < tr.n; k++ {
		a, b := tr.alpha[k]+s, tr.beta[k]
		if b <= s {
			flat = max(flat, a)
			continue
		}
		tr.alpha[n], tr.beta[n] = a, b
		n++
	}
	tr.alpha[n], tr.beta[n] = flat, s
	tr.n = n + 1
}

// shift delays every body packet by d: departures become arrivals at the
// next hop.
func (tr *train) shift(d sim.Time) {
	for k := 0; k < tr.n; k++ {
		tr.alpha[k] += d
	}
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
	qpSeq int64
	// retry is the key reserved for the armed retry timeout (see QP).
	retry   sim.Key
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
	// acked marks the sender's side complete (see QP.settle).
	acked bool
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

// reset zeroes the transfer for freelist reuse. Assigning a composite
// literal copies no atomic: the state word is zeroed in place.
func (t *transfer) reset() { *t = transfer{} }
