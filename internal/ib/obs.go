package ib

import "repro/internal/telemetry"

// fabObs caches the fabric's telemetry handles. It exists (non-nil) only
// when a telemetry session is attached to the fabric's environment, so the
// entire instrumented hot path is gated behind a single `f.obs != nil`
// pointer check — the disabled path costs nothing and allocates nothing.
// Metric handles may individually be nil (metrics disabled, spans enabled);
// their record methods are nil-safe no-ops.
type fabObs struct {
	rec *telemetry.Recorder

	wanTxBytes    *telemetry.Counter
	wanTxPkts     *telemetry.Counter
	wanBusy       *telemetry.Counter        // cumulative serialization (busy) time, ns
	wanQueueWait  *telemetry.HiResHistogram // egress queueing ahead of serialization, ns
	rcWindow      *telemetry.HiResHistogram // in-flight window occupancy at launch
	rcSendQ       *telemetry.HiResHistogram // send-queue depth behind the window
	rcRetransmits *telemetry.Counter
	rcGiveUps     *telemetry.Counter // retry budgets exhausted
	qpErrors      *telemetry.Counter // QP error-state transitions

	// One counter per discardReason (Fabric.discard).
	discards [numDiscardReasons]*telemetry.Counter

	// Bounded link queues (congestion model).
	wanQueueDepth   *telemetry.HiResHistogram // queue depth at admission, bytes
	wanECNMarks     *telemetry.Counter        // packets CE-marked at admission
	wanCreditStalls *telemetry.Counter        // packets held by lossless credit flow control

	// Self-healing routing layer (health.go).
	routeEpochs       *telemetry.Counter        // subnet re-sweeps after Finalize
	healthTransitions *telemetry.Counter        // debounced link verdict flips
	failoverNs        *telemetry.HiResHistogram // raw edge -> verdict latency, ns
}

// track is a telemetry track cached on the record it belongs to (an HCA's
// "wire" and "verbs" tracks, a switch's "wire" track, a port's "wan-queue"
// track), registered with the recorder at its first use: registration order
// fixes the exported pid/tid numbering, so it stays lazy. The records'
// resets zero it.
type track struct {
	id telemetry.TrackID
	ok bool
}

// of returns the track, registering it as name's kind track on first use.
func (c *track) of(rec *telemetry.Recorder, name, kind string) telemetry.TrackID {
	if !c.ok {
		c.id, c.ok = rec.Track(name, kind), true
	}
	return c.id
}

// evKind is a wire instant's kind: packet departure (tx), arrival at the
// destination device (rx), a drop, an RC retry-timeout expiry (rto) and the
// retry-budget exhaustion that errors the QP (err).
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

// Wire instants name a packet by its wire kind, with two names past the
// pktKind range: UD datagrams travel as pktData but log as "ud", and a
// kind outside the enumeration logs as "unknown".
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

// pktKind is the wire packet kind a retransmission of the op would resend.
func (o Opcode) pktKind() pktKind {
	if o == OpRDMARead {
		return pktReadReq
	}
	return pktData
}

// instantNames holds the "kind pkt" label of every wire instant, so the
// enabled wire path neither concatenates nor hashes per event.
var instantNames = func() (names [numEvKinds][len(pktNames)]string) {
	for k, kind := range evKindNames {
		for p, pkt := range pktNames {
			names[k][p] = kind + " " + pkt
		}
	}
	return names
}()

func newFabObs(tel *telemetry.Telemetry) *fabObs {
	m := tel.Metrics
	o := &fabObs{
		rec:        tel.Spans,
		wanTxBytes: m.Counter("wan.link.tx.bytes"),
		wanTxPkts:  m.Counter("wan.link.tx.pkts"),
		// Utilization is derived, not stored: the busy-time counter is
		// deterministic under concurrent points (a gauge here would be
		// last-write-wins) and the sampler/exporters divide per-interval
		// busy deltas by wall (sim) time.
		wanBusy:       m.Counter("wan.link.busy.ns"),
		wanQueueWait:  m.HiRes("wan.link.queue.wait.ns"),
		rcWindow:      m.HiRes("ib.rc.window.occupancy"),
		rcSendQ:       m.HiRes("ib.rc.sendq.depth"),
		rcRetransmits: m.Counter("ib.rc.retransmits"),
		rcGiveUps:     m.Counter("ib.rc.retry.exhausted"),
		qpErrors:      m.Counter("ib.qp.errors"),

		wanQueueDepth:   m.HiRes("wan.link.queue.depth"),
		wanECNMarks:     m.Counter("wan.link.ecn.marks"),
		wanCreditStalls: m.Counter("wan.link.credit.stalls"),

		routeEpochs:       m.Counter("ib.route.epochs"),
		healthTransitions: m.Counter("wan.link.health.transitions"),
		failoverNs:        m.HiRes("ib.route.failover.ns"),
	}
	for r, d := range discardReasons {
		o.discards[r] = m.Counter(d.metric)
	}
	return o
}

// verbsTrack is the per-HCA track carrying verbs operation spans.
func (o *fabObs) verbsTrack(h *HCA) telemetry.TrackID {
	return h.verbs.of(o.rec, h.name, "verbs")
}

// wireTrack is the per-device track carrying wire-level instant events.
func (o *fabObs) wireTrack(dev Device) telemetry.TrackID {
	return dev.wireTrack().of(o.rec, dev.Name(), "wire")
}

// wanTrack is the per-WAN-port track carrying wan.xmit queue spans.
func (o *fabObs) wanTrack(p *Port) telemetry.TrackID {
	return p.wanQueue.of(o.rec, p.dev.Name(), "wan-queue")
}

// discardReason is why a packet left the fabric short of its destination.
type discardReason uint8

const (
	discardFault    discardReason = iota // removed on the wire by the link's DropFn
	discardOverflow                      // tail-dropped at a full bounded queue
	discardNoRoute                       // no route in the switch's routing epoch
	discardNoRecv                        // UD datagram with no posted receive
	numDiscardReasons
)

// discardReasons holds each reason's drop-instant reason and telemetry
// counter.
var discardReasons = [numDiscardReasons]struct{ trace, metric string }{
	discardFault:    {"fault", "ib.link.drops"},
	discardOverflow: {"overflow", "wan.link.overflow.drops"},
	discardNoRoute:  {"unreachable", "ib.route.unreachable.drops"},
	discardNoRecv:   {"no-recv", "ib.ud.recv.drops"},
}

// discard is the one step every discard takes: it counts the packet on the
// site's own ledger n (a port's, a switch's or a QP's, written only on that
// site's environment) and on the reason's telemetry counter, and logs one
// drop instant on dev's wire track. The site frees the packet.
func (f *Fabric) discard(r discardReason, n *int64, dev Device, pkt *packet) {
	*n++
	if o := f.obs; o != nil {
		o.discards[r].Add(1)
	}
	f.trace(evDrop, dev, pkt, discardReasons[r].trace)
}

// trace records one wire-level event as an instant on the observing
// device's wire track, read off that device's clock (its own shard's on a
// partitioned world). The recorder's instant stream is the packet log of a
// run (what -trace-out writes): "<kind> <pkt>" with the transfer id, the
// wire bytes and, for drop, rto and err, the reason (a drop's from
// discardReasons, "timeout", "retry-exceeded"). The retry timer has no
// packet at hand and passes a zero-wire one of the kind a retransmission
// resends.
func (f *Fabric) trace(kind evKind, dev Device, pkt *packet, reason string) {
	o := f.obs
	if o == nil || o.rec == nil {
		return
	}
	pk := pkt.kind
	if pkt.ud {
		pk = pktUD
	}
	at := dev.home().env.Now()
	if kind == evRx {
		at -= PacketProc // logged as the HCA's ingress stage ends, stamped at wire arrival
	}
	o.rec.AddInstant(telemetry.Instant{
		Time: at, Track: o.wireTrack(dev), Name: instantNames[kind][pk],
		Msg: pkt.msg.id, Wire: pkt.wire, Reason: reason,
	})
}

// verbsSpanName labels the verbs-layer span for an RC operation.
func verbsSpanName(op Opcode) string {
	switch op {
	case OpSend:
		return "verbs.send"
	case OpRDMAWrite:
		return "verbs.write"
	case OpRDMARead:
		return "verbs.read"
	}
	return "verbs.op"
}
