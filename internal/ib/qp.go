package ib

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Transport selects the QP service type.
type Transport int

const (
	// RC is Reliable Connected: in-order, acknowledged delivery of
	// messages up to 2 GB, supporting both channel and memory (RDMA)
	// semantics. In-flight unacknowledged messages are bounded by
	// QPConfig.MaxInflight — the window whose interaction with WAN delay
	// the paper studies.
	RC Transport = iota
	// UD is Unreliable Datagram: connectionless single-MTU messages with
	// no acknowledgements and no RDMA support.
	UD
)

func (t Transport) String() string {
	if t == RC {
		return "RC"
	}
	return "UD"
}

// QPConfig carries queue pair tuning knobs.
type QPConfig struct {
	Transport Transport
	// MaxInflight bounds the number of in-flight (unacknowledged)
	// messages on an RC QP; 0 selects DefaultMaxInflight. The paper
	// explains RC's WAN bandwidth collapse for small/medium messages by
	// exactly this bound ("limits the number of messages that can be in
	// flight to a maximum supported window size", §3.2.2).
	MaxInflight int
	// RetryTimeout is the base RC retransmission timeout; 0 selects
	// DefaultRetryTimeout. Retransmission only occurs under fault
	// injection (lossy Link.DropFn), as in real IB cables bit errors are
	// rare. Successive retries of the same message back off
	// exponentially from this base (doubling per attempt, capped at 64x).
	RetryTimeout sim.Time
	// RetryLimit bounds the number of retransmissions of one message
	// before the QP gives up: the failed work request completes with
	// StatusRetryExceeded and the QP transitions to the error state,
	// flushing everything behind it (StatusFlushed). 0 selects
	// DefaultRetryLimit; a negative value retries forever (the
	// pre-fault-layer behavior, useful only in tests).
	RetryLimit int
}

// DefaultMaxInflight is the default RC send window in messages, calibrated
// so that the paper's Figure 5 knees reproduce (64 KB messages collapse at
// 1000 us one-way delay while >=1 MB messages sustain wire rate).
const DefaultMaxInflight = 8

// DefaultRetryTimeout is the default RC retransmission timeout.
const DefaultRetryTimeout = 500 * sim.Millisecond

// DefaultRetryLimit is the default RC retry budget, matching the 3-bit
// retry counter (max 7) real HCAs program into the QP.
const DefaultRetryLimit = 7

// maxBackoffShift caps the exponential retry backoff at base << 6 (64x).
const maxBackoffShift = 6

// SendWR is a send-side work request.
type SendWR struct {
	Op   Opcode
	Data []byte // payload (nil for synthetic perf traffic)
	Len  int    // payload length when Data is nil; ignored otherwise
	// RDMA target (write: destination; read: source).
	RemoteMR  *MR
	RemoteOff int
	// LocalBuf receives data for RDMA read.
	LocalBuf []byte
	// UD addressing (ignored for RC).
	DestLID LID
	DestQPN int
	Ctx     any
	// Meta is an opaque tag delivered to the receiver alongside the
	// message (Completion.Meta). Upper-layer protocol models (IPoIB/TCP,
	// RPC) use it to carry typed headers without byte marshaling; it has
	// no wire footprint beyond Len/Data.
	Meta any
	// NotifyRemote, for RDMA writes, raises a completion on the remote CQ
	// when the data lands, without consuming a receive WQE — modeling
	// RDMA-write-with-immediate or the memory-polling used by
	// ib_write_lat-style benchmarks.
	NotifyRemote bool
	// ParentSpan nests the operation's verbs-layer telemetry span under an
	// upper-layer protocol span (MPI phase, NFS RPC). The zero value is a
	// root span; the field is ignored when observation is off.
	ParentSpan telemetry.SpanRef
}

func (wr *SendWR) payloadLen() int {
	if wr.Data != nil {
		return len(wr.Data)
	}
	return wr.Len
}

// RecvWR is a receive-side work request.
type RecvWR struct {
	Buf []byte // filled with message payload when non-nil
	Ctx any
}

// Completion is a CQ entry.
type Completion struct {
	Op     Opcode
	Status Status
	Bytes  int
	Ctx    any
	QPN    int
	SrcQPN int // for receives: originating QP
	SrcLID LID // for receives: originating HCA
	// Meta is the sender's SendWR.Meta tag (receive completions only).
	Meta any
	// ECN reports that at least one packet of the inbound transfer carried
	// the congestion-experienced mark from a bounded link queue (receive
	// completions only). Upper layers (IPoIB -> tcpsim, SDP) use it as
	// their congestion signal.
	ECN bool
}

// CQ is a completion queue. A consumer either polls it from a process (Poll)
// or installs a completion handler (SetHandler) and needs no process at all;
// a handler that must spend time on a completion holds the queue (Hold).
// Entries and parked pollers live in ring buffers, and poll events are
// recycled through the environment's freelist, so steady-state completion
// traffic allocates nothing. Identical completions with no Ctx or Meta — an
// unpolled sender's stream of send completions — queue as one run.
type CQ struct {
	env     *sim.Env
	items   runs[Completion]
	waiters sim.Ring[*sim.Event]
	// fn, non-nil once SetHandler installed it, is the completion handler.
	// drain feeds it every queued completion and is what post schedules: a
	// closure bound to the record, made on its first handler and kept.
	fn    func(Completion)
	drain func(any)
	// armed means the handler has drained the queue and the next post must
	// schedule a drain — a parked poller's state, without the process.
	armed bool
	// handling is true while the handler runs, the only time Hold is legal.
	// then, non-nil while the queue is held, is what runs when the hold ends.
	handling bool
	then     func()
}

// NewCQ creates a completion queue.
func NewCQ(env *sim.Env) *CQ {
	c := sim.FreeOf(env, (*CQ).reset).Get()
	c.env = env
	return c
}

func (c *CQ) reset() {
	c.items.q.Clear()
	c.waiters.Clear()
	*c = CQ{items: runs[Completion]{q: c.items.q}, waiters: c.waiters, drain: c.drain}
}

func (c *CQ) post(comp Completion) {
	c.items.push(comp, sameCompletions)
	if c.armed {
		c.armed = false
		c.env.AtArg(0, c.drain, nil)
	} else if c.waiters.Len() > 0 {
		c.waiters.Pop().Trigger(nil)
	}
}

// SetHandler installs fn as the queue's completion-event handler, the verbs
// pattern for a consumer that is not a thread of control: fn runs in
// scheduler context for every completion, in order. It stands for the process
//
//	env.Go(name, func(p *sim.Proc) {
//		for {
//			fn(cq.Poll(p))
//		}
//	})
//
// and schedules exactly the entries that process would — one first
// activation now, then one zero-delay drain per post on an idle queue, each
// drain popping until the queue is empty — so event order and counts are
// those of the poll loop, without a goroutine handoff per wake-up. fn must
// not block; where the process would sleep mid-body, fn calls Hold.
func (c *CQ) SetHandler(fn func(Completion)) {
	if c.fn != nil {
		panic("ib: CQ.SetHandler called twice")
	}
	if c.waiters.Len() > 0 {
		panic("ib: CQ.SetHandler on a CQ with a parked poller")
	}
	c.fn = fn
	if c.drain == nil {
		c.drain = func(any) {
			for c.items.Len() > 0 {
				c.handling = true
				c.fn(c.items.pop())
				c.handling = false
				if c.then != nil {
					return // held: resume goes on draining
				}
			}
			c.armed = true
		}
	}
	c.env.AtArg(0, c.drain, nil)
}

// Hold is the handler's Sleep: called from inside the completion handler as
// its last act for the current completion, it stops the drain there, and d
// later runs then and goes on draining. It stands for
//
//	p.Sleep(d)
//	then()
//
// in the body of the poll loop SetHandler describes, and schedules the same
// two entries — one at now+d whose dispatch schedules one at that instant
// (the timer's trigger, then the sleeper's resumption) — while completions
// posted meanwhile queue without scheduling anything, as they do behind a
// sleeping poller. A zero d still takes both hops. One hold is outstanding
// per queue, so a consumer keeps what then needs in its own state and passes
// a function value it made once: a hold then allocates nothing.
func (c *CQ) Hold(d sim.Time, then func()) {
	switch {
	case !c.handling:
		panic("ib: CQ.Hold outside the completion handler")
	case c.then != nil:
		panic("ib: CQ.Hold called twice for one completion")
	case d < 0:
		panic("ib: CQ.Hold for a negative time")
	}
	c.then = then
	c.env.AtArg(d, holdDue, c)
}

// holdDue and holdResume are a hold's two hops.
func holdDue(cq any) { cq.(*CQ).env.AtArg(0, holdResume, cq) }

func holdResume(cq any) {
	c := cq.(*CQ)
	then := c.then
	c.then = nil
	then()
	c.drain(nil)
}

// Poll blocks the calling process until a completion is available and
// returns it.
func (c *CQ) Poll(p *sim.Proc) Completion {
	if c.fn != nil {
		panic("ib: CQ.Poll on a CQ with a completion handler")
	}
	for c.items.Len() == 0 {
		ev := c.env.AcquireEvent()
		c.waiters.Push(ev)
		p.Wait(ev)
		c.env.ReleaseEvent(ev)
	}
	return c.items.pop()
}

// TryPoll returns a completion if one is pending.
func (c *CQ) TryPoll() (Completion, bool) {
	if c.items.Len() == 0 {
		return Completion{}, false
	}
	return c.items.pop(), true
}

// Len returns the number of pending completions.
func (c *CQ) Len() int { return c.items.Len() }

// Stats counts per-QP protocol events.
type Stats struct {
	MsgsSent     int64
	BytesSent    int64
	MsgsRecv     int64
	BytesRecv    int64
	Acks         int64
	RNRBuffered  int64 // sends that arrived before a recv was posted
	RecvDrops    int64 // UD datagrams dropped for lack of a recv
	Retransmits  int64
	ReadRequests int64
	// RetryExhausted counts work requests completed with
	// StatusRetryExceeded (retry budget ran out).
	RetryExhausted int64
	// Flushed counts work requests completed with StatusFlushed after the
	// QP entered the error state.
	Flushed int64
}

// QP is a queue pair.
//
// An RC sender's state is one ring in posting (and id) order and one retry
// timer. The window's first launched entries are in flight, the rest queued;
// kick launches while fewer than MaxInflight are unacked. A completion clears
// its slot and cleared slots at the head go (RDMA reads complete out of
// order). retryExhausted flushes the ring in order, as a real QP does. Each
// launch reserves the key its own retry event would have had (armRetry); the
// timer stands at the smallest armed key, retransmits that transfer when it
// fires and re-aims when it completes first. Every other event keeps its
// sequence number, so ties fall as they did; only timeouts of completed
// transfers, which retransmitted nothing, are gone.
type QP struct {
	hca *HCA
	qpn int
	cfg QPConfig
	cq  *CQ
	tx  uint64 // transmit counter: the next packet's index (see newPacket)

	// RC connection state.
	remote *QP
	// errored is the QP error state: set when a message exhausts its
	// retry budget. An errored QP completes every queued, in-flight and
	// subsequently posted work request with StatusFlushed and ignores
	// arriving packets, exactly like a real QP in IBV_QPS_ERR.
	errored bool

	// Sender state. Of the first launched entries of window, unacked are
	// outstanding (the rest nil); retry stands at aim's, the smallest key.
	window   sim.Ring[*transfer]
	launched int
	unacked  int
	retry    sim.Timer
	aim      *transfer
	seqTx    int64 // next message sequence to assign (this direction)

	// Receiver state. recvQ keeps consecutive blank WQEs as one run; reorder
	// is made when the first message overtakes a predecessor.
	recvQ   runs[RecvWR]
	pending sim.Ring[*transfer] // completed inbound sends waiting for a recv WQE
	seqRx   int64               // next message sequence to deliver
	reorder map[int64]*transfer

	stats Stats
}

// CreateQP creates a queue pair on the HCA bound to the given completion
// queue. RC QPs must be connected with ConnectRC before use. A QP is a record
// of the HCA's environment (sim.Free). QPNs number an HCA's QPs from 1 in
// creation order, whatever environment the HCA is on.
func (h *HCA) CreateQP(cq *CQ, cfg QPConfig) *QP {
	if cfg.MaxInflight == 0 {
		cfg.MaxInflight = DefaultMaxInflight
	}
	if cfg.RetryTimeout == 0 {
		cfg.RetryTimeout = DefaultRetryTimeout
	}
	if cfg.RetryLimit == 0 {
		cfg.RetryLimit = DefaultRetryLimit
	}
	qp := sim.FreeOf(h.env, (*QP).reset).Get()
	qp.hca, qp.qpn, qp.cfg, qp.cq = h, len(h.qps)+1, cfg, cq
	qp.retry = h.env.NewTimer(retryFired, qp)
	if h.qps == nil {
		h.qps = make(map[int]*QP)
	}
	h.qps[qp.qpn] = qp
	return qp
}

func (q *QP) reset() {
	q.window.Clear()
	q.pending.Clear()
	q.recvQ.q.Clear()
	clear(q.reorder)
	*q = QP{window: q.window, pending: q.pending, recvQ: runs[RecvWR]{q: q.recvQ.q}, reorder: q.reorder}
}

// ConnectRC connects two RC QPs (one on each HCA) as a reliable connection.
func ConnectRC(a, b *QP) {
	if a.cfg.Transport != RC || b.cfg.Transport != RC {
		panic("ib: ConnectRC requires RC QPs")
	}
	a.remote, b.remote = b, a
	a.hca.fab.ensureRouted()
}

// CreateRCPair is a convenience: create and connect an RC QP pair between
// two HCAs, each bound to its own new CQ when cqa/cqb are nil.
func CreateRCPair(a, b *HCA, cqa, cqb *CQ, cfg QPConfig) (*QP, *QP) {
	cfg.Transport = RC
	if cqa == nil {
		cqa = NewCQ(a.Env())
	}
	if cqb == nil {
		cqb = NewCQ(b.Env())
	}
	qa := a.CreateQP(cqa, cfg)
	qb := b.CreateQP(cqb, cfg)
	ConnectRC(qa, qb)
	return qa, qb
}

// QPN returns the queue pair number.
func (q *QP) QPN() int { return q.qpn }

// HCA returns the owning HCA.
func (q *QP) HCA() *HCA { return q.hca }

// CQ returns the completion queue.
func (q *QP) CQ() *CQ { return q.cq }

// Stats returns a snapshot of the QP's counters.
func (q *QP) Stats() Stats { return q.stats }

// Errored reports whether the QP is in the error state (a message
// exhausted its retry budget). An errored QP never recovers; upper layers
// observe the transition through StatusRetryExceeded/StatusFlushed
// completions and must tear down or fail over.
func (q *QP) Errored() bool { return q.errored }

// Config returns the QP configuration.
func (q *QP) Config() QPConfig { return q.cfg }

// PostRecv posts a receive work request.
func (q *QP) PostRecv(wr RecvWR) {
	q.recvQ.push(wr, blankRecvs)
	// Satisfy any buffered (RNR'd) sends in arrival order.
	for q.pending.Len() > 0 && q.recvQ.Len() > 0 {
		q.deliverSend(q.pending.Pop())
	}
}

// PostSend posts a send-side work request. The completion (on the QP's CQ)
// is raised when the operation finishes: for RC, when acknowledged (send,
// RDMA write) or when data lands (RDMA read); for UD, when the datagram has
// left the HCA.
func (q *QP) PostSend(wr SendWR) {
	switch q.cfg.Transport {
	case RC:
		q.rcPostSend(wr)
	case UD:
		q.udPostSend(wr)
	default:
		panic("ib: unknown transport")
	}
}

func (q *QP) receive(pkt *packet) {
	switch q.cfg.Transport {
	case RC:
		q.rcReceive(pkt)
	case UD:
		q.udReceive(pkt)
	}
}

// newPacket returns a packet holding v, stamped as the QP's next
// transmission: every packet the QP puts on the wire — data, ack, read
// response, datagram, retransmission, train body — takes the next index.
func (q *QP) newPacket(v packet) *packet {
	v.src, v.srcQP, v.tx = q.hca.lid, int32(q.qpn), q.tx
	q.tx++
	return q.hca.pool.newPacket(v)
}

// env returns the QP's scheduling environment: the owning HCA's home
// environment, i.e. the site shard view on a partitioned world. All of a QP's
// protocol timers and pipeline stages run on this environment; the only
// cross-shard step is the wire delivery itself (Port.send → AtArgOn).
func (q *QP) env() *sim.Env { return q.hca.env }

func (q *QP) assertConnected() {
	if q.remote == nil {
		panic(fmt.Sprintf("ib: QP %d (%s) is not connected", q.qpn, q.hca.name))
	}
}
