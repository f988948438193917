package ib

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/sim"
)

// TraceEvent describes one wire-level event on the fabric. Events are
// emitted at packet departure (tx), packet arrival at its destination
// device (rx), fault-injected or receiver-side drops, and RC retry-timeout
// expiries (rto).
type TraceEvent struct {
	Time  sim.Time `json:"t"`
	Kind  string   `json:"kind"` // tx, rx, drop, rto, err
	Src   LID      `json:"src"`
	Dst   LID      `json:"dst"`
	SrcQP int      `json:"srcqp"`
	DstQP int      `json:"dstqp"`
	Pkt   string   `json:"pkt"` // data, ack, readreq, readresp, ud
	Wire  int      `json:"wire"`
	Seq   int      `json:"seq"`
	// Msg is the fabric-unique transfer id the packet belongs to.
	Msg  int64 `json:"msg"`
	Last bool  `json:"last"`
	// Dev is the device observing the event (tx: sending device; rx:
	// receiving device).
	Dev string `json:"dev"`
	// Retx marks packets put on the wire by a retransmission.
	Retx bool `json:"retx,omitempty"`
	// Reason qualifies drop events ("fault": injected on the wire,
	// "no-recv": UD datagram with no posted receive, "overflow": tail-drop
	// at a full bounded link queue, "unreachable": no route), rto events
	// ("timeout") and err events ("retry-exceeded").
	Reason string `json:"reason,omitempty"`
}

// Tracer consumes trace events; it must not mutate simulation state.
type Tracer func(ev TraceEvent)

// SetTracer installs (or, with nil, removes) a fabric-wide tracer.
func (f *Fabric) SetTracer(t Tracer) { f.tracer = t }

// evKind is a wire trace event's kind; TraceEvent.Kind carries its name.
type evKind uint8

const (
	evTx evKind = iota
	evRx
	evDrop
	evRTO
	evErr
	numEvKinds
)

var evKindNames = [numEvKinds]string{"tx", "rx", "drop", "rto", "err"}

// Trace events name a packet by its wire kind, with two names past the
// pktKind range: UD datagrams travel as pktData but trace as "ud", and a
// kind outside the enumeration traces as "unknown".
const (
	pktUD      = pktReadResp + 1
	pktUnknown = pktUD + 1
)

var pktNames = [pktUnknown + 1]string{"data", "ack", "readreq", "readresp", "ud", "unknown"}

func (k pktKind) String() string {
	if k < 0 || k > pktUnknown {
		k = pktUnknown
	}
	return pktNames[k]
}

func (f *Fabric) trace(kind evKind, dev Device, pkt *packet) {
	f.traceReason(kind, dev, pkt, "")
}

// traceReason emits a packet event with a qualifying reason (drops). Events
// flow to the installed Tracer and, when span recording is enabled, into
// the telemetry recorder's instant stream.
func (f *Fabric) traceReason(kind evKind, dev Device, pkt *packet, reason string) {
	folding := f.obs != nil && f.obs.rec != nil
	if f.tracer == nil && !folding {
		return
	}
	pk := pkt.kind
	if pkt.ud {
		pk = pktUD
	}
	now := f.env.Now()
	if f.tracer != nil {
		f.tracer(TraceEvent{
			Time: now, Kind: evKindNames[kind],
			Src: pkt.src, Dst: pkt.dst, SrcQP: pkt.srcQP, DstQP: pkt.dstQP,
			Pkt: pk.String(), Wire: pkt.wire, Seq: pkt.seq, Msg: pkt.msg.id, Last: pkt.last,
			Dev: dev.Name(), Retx: pkt.retx, Reason: reason,
		})
	}
	if folding {
		f.obs.instant(dev, now, kind, pk, pkt.msg.id, pkt.wire, reason)
	}
}

// pktKind is the wire packet kind a retransmission of the op would resend.
func (o Opcode) pktKind() pktKind {
	if o == OpRDMARead {
		return pktReadReq
	}
	return pktData
}

// traceTimer emits the two events of the retry timer: the retry-timeout
// expiry (evRTO, "timeout") and the retry-budget exhaustion that pushes the
// QP into the error state (evErr, "retry-exceeded"). There is no packet at
// either, so the event is synthesized from the QP's connection state.
func (q *QP) traceTimer(kind evKind, t *transfer, reason string) {
	f := q.hca.fab
	folding := f.obs != nil && f.obs.rec != nil
	if f.tracer == nil && !folding {
		return
	}
	pk := t.wr.Op.pktKind()
	now := f.env.Now()
	if f.tracer != nil {
		f.tracer(TraceEvent{
			Time: now, Kind: evKindNames[kind],
			Src: q.hca.lid, Dst: q.remote.hca.lid, SrcQP: q.qpn, DstQP: q.remote.qpn,
			Pkt: pk.String(), Wire: 0, Msg: t.id, Last: true,
			Dev: q.hca.name, Reason: reason,
		})
	}
	if folding {
		f.obs.instant(q.hca, now, kind, pk, t.id, 0, reason)
	}
}

// JSONLTracer returns a Tracer that writes one JSON object per line to w.
func JSONLTracer(w io.Writer) Tracer {
	enc := json.NewEncoder(w)
	return func(ev TraceEvent) {
		if err := enc.Encode(ev); err != nil {
			panic(fmt.Sprintf("ib: trace write: %v", err))
		}
	}
}

// CountingTracer tallies events by kind, for tests and quick accounting.
type CountingTracer struct {
	Tx, Rx, Drops int64
	WireBytes     int64
}

// Hook returns the Tracer function feeding the counters.
func (c *CountingTracer) Hook() Tracer {
	return func(ev TraceEvent) {
		switch ev.Kind {
		case "tx":
			c.Tx++
			c.WireBytes += int64(ev.Wire)
		case "rx":
			c.Rx++
		case "drop":
			c.Drops++
		}
	}
}
