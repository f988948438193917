// Package tcpsim models the TCP/IP stack running over IPoIB interfaces. It
// reproduces the two mechanisms that govern the paper's IPoIB results
// (§3.3):
//
//   - Host stack processing: every segment costs per-packet and per-byte
//     CPU time in serialized transmit and receive contexts (one softirq
//     context per interface, as in a 2008-era kernel). This caps IPoIB-UD
//     (2 KB MTU) near 450 MB/s and IPoIB-RC (64 KB MTU) near 890 MB/s,
//     well under verbs rates — matching the paper's observation that "the
//     peak bandwidth that IPoIB UD achieves is significantly lower than
//     the peak verbs-level UD bandwidth due to the TCP stack processing
//     overhead".
//   - Window-based flow control: at most min(cwnd, advertised window)
//     bytes may be unacknowledged, so single-stream throughput collapses
//     once the WAN bandwidth-delay product exceeds the window — and
//     parallel streams, each with its own window, recover the loss
//     (paper Figs. 6 and 7).
package tcpsim

import (
	"errors"
	"fmt"

	"repro/internal/fault"
	"repro/internal/ib"
	"repro/internal/ipoib"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Connection-level failures surfaced by the recovery machinery. The error
// values (and strings) are fixed so faulted experiment output stays
// deterministic.
var (
	// ErrReset reports that a connection gave up: MaxRetransmits
	// consecutive unproductive retransmission timeouts.
	ErrReset = errors.New("tcpsim: connection reset: retransmission limit exceeded")
	// ErrConnectTimeout reports that the three-way handshake never
	// completed within the retry budget.
	ErrConnectTimeout = errors.New("tcpsim: connect timed out")
)

// Protocol constants.
const (
	// HeaderBytes is the TCP+IP header size per segment.
	HeaderBytes = 40
	// DefaultWindow models the stack's auto-tuned window (the paper's
	// "default" curve): large enough to cover moderate-delay links, too
	// small for the largest WAN separations.
	DefaultWindow = 768 << 10
	// InitialCwnd is the initial congestion window in segments.
	InitialCwnd = 4
)

// Host processing costs, calibrated so IPoIB-UD peaks ~450 MB/s and
// IPoIB-RC (64 KB MTU) ~890 MB/s as in the paper's figures.
const (
	// PerPacketCPU is the fixed cost of pushing one segment through the
	// stack (interrupt, demux, protocol processing).
	PerPacketCPU = 2270 * sim.Nanosecond
	// PerByteCPUNanos is the copy/checksum cost per byte, in nanoseconds.
	PerByteCPUNanos = 1.09
)

// segCPU is the stack processing time for a segment with the given payload.
func segCPU(payload int) sim.Time {
	return PerPacketCPU + sim.Time(float64(payload+HeaderBytes)*PerByteCPUNanos)
}

// DefaultRTO is the default base retransmission timeout. The fabric is
// FIFO and lossless, so timers only fire under fault injection; a generous
// base keeps the fault-free model simple.
const DefaultRTO = 50 * sim.Millisecond

// DefaultMaxRetransmits is the default bound on consecutive unproductive
// retransmission timeouts (and handshake retries) before the connection
// resets, mirroring a 2008-era Linux tcp_retries2.
const DefaultMaxRetransmits = 8

// maxRTOShift caps the exponential RTO backoff at base << 6 (64x).
const maxRTOShift = 6

// Config tunes a stack.
type Config struct {
	// Window is the advertised receive window and congestion window
	// ceiling in bytes (0 = DefaultWindow).
	Window int
	// RTO is the base retransmission timeout (0 = DefaultRTO). Successive
	// unproductive timeouts back off exponentially from this base, capped
	// at 64x.
	RTO sim.Time
	// MaxRetransmits bounds consecutive unproductive retransmission
	// timeouts — and, symmetrically, handshake (SYN/SYNACK) retries —
	// before the connection resets with ErrReset/ErrConnectTimeout.
	// 0 selects DefaultMaxRetransmits; a negative value retries forever.
	MaxRetransmits int
	// ECN enables RFC 3168-style congestion signalling: segments arriving
	// with a congestion-experienced mark (set by a bounded link queue) make
	// the receiver echo ECE on its acks until the sender confirms with CWR,
	// and an ECE-marked ack halves the sender's congestion window once per
	// round trip. Off, marks are ignored (a non-ECT flow) and behavior is
	// byte-identical to the pre-congestion stack.
	ECN bool
}

type connKey struct {
	remote                ib.LID
	remotePort, localPort int
}

// Stack is the TCP/IP instance bound to one IPoIB interface.
type Stack struct {
	env       *sim.Env
	dev       *ipoib.NetDev
	cfg       Config
	listeners map[int]*Listener
	conns     map[connKey]*Conn
	nextPort  int
	txq       *sim.Server[*segment] // transmit context
	rxq       *sim.Server[*segment] // receive context (softirq)
	stats     StackStats
	// segs is the environment's free segments, shared by all of its stacks.
	// A segment's last toucher is often the peer stack (acks are consumed at
	// the data sender), so a segment goes home to the list of the stack that
	// created it (segment.conn's) with Free.Return: every list refills at the
	// rate it drains.
	segs *sim.Free[segment]
	// obs holds possibly-nil telemetry handles; record methods on nil
	// handles are no-ops, so the disabled path costs a nil check per site.
	obs stackObs
	// drop, when non-nil, is consulted per outbound segment after
	// transmit-side processing; a drop verdict loses the segment (fault
	// injection at the TCP layer).
	drop *fault.Injector
}

// stackObs caches the stack's telemetry metric handles.
type stackObs struct {
	txSegs, rxSegs   *telemetry.Counter
	txBytes, rxBytes *telemetry.Counter
	retransmits      *telemetry.Counter
	resets           *telemetry.Counter        // connections torn down by the recovery machinery
	segDrops         *telemetry.Counter        // fault-injected segment losses
	segProcNS        *telemetry.HiResHistogram // per-segment stack processing cost
	ecnCE            *telemetry.Counter        // segments received with the CE mark
	ecnCuts          *telemetry.Counter        // cwnd reductions triggered by ECE echoes
	fastRetransmits  *telemetry.Counter        // dup-ack triggered retransmissions
}

// resetSegment is the segment list's reset: the segment keeps its spans
// backing array, cleared; a fresh one's is its inline array.
func resetSegment(seg *segment) {
	spans := seg.spans
	if spans == nil {
		spans = seg.one[:0]
	}
	clear(spans)
	*seg = segment{spans: spans[:0]}
}

// transmit hands a segment to the transmit context, counting the flight.
// The matching release happens after the peer's receive context processed
// the segment (or never, if fault injection drops it — then the segment
// stays out of use until the world ends).
func (s *Stack) transmit(seg *segment) {
	seg.state.Add(1)
	s.txq.Put(seg)
}

// unref ends one flight of seg; s is the stack the flight ended on.
func (s *Stack) unref(seg *segment) {
	st := seg.state.Add(-1)
	if st&(segUnacked-1) == segUnacked-1 {
		panic("tcpsim: segment reference count underflow")
	}
	s.released(seg, st)
}

// acked takes seg off its sender's retransmission queue (s is that sender).
func (s *Stack) acked(seg *segment) {
	s.released(seg, seg.state.Add(-segUnacked))
}

// released recycles seg once its state word is zero: no flight in progress,
// not held for retransmission. Whichever stack brought it there sends it,
// reset, to its home stack's list.
func (s *Stack) released(seg *segment, state int32) {
	if state != 0 {
		return
	}
	home := seg.conn.stack
	home.segs.Return(s.env, home.env, seg)
}

// StackStats counts stack activity, for utilization analysis.
type StackStats struct {
	TxSegments, RxSegments int64
	TxBytes, RxBytes       int64
	TxBusy, RxBusy         sim.Time // cumulative processing time
	SegDrops               int64    // segments lost to fault injection
	Resets                 int64    // connections reset by the recovery machinery
}

// NewStack binds a TCP stack to an IPoIB interface and starts its transmit
// and receive contexts.
func NewStack(dev *ipoib.NetDev, cfg Config) *Stack {
	if cfg.Window == 0 {
		cfg.Window = DefaultWindow
	}
	if cfg.RTO == 0 {
		cfg.RTO = DefaultRTO
	}
	if cfg.MaxRetransmits == 0 {
		cfg.MaxRetransmits = DefaultMaxRetransmits
	}
	s := &Stack{
		env:       dev.Env(),
		dev:       dev,
		cfg:       cfg,
		listeners: make(map[int]*Listener),
		conns:     make(map[connKey]*Conn),
		nextPort:  40000,
	}
	s.segs = sim.FreeOf(s.env, resetSegment)
	if tel := telemetry.FromEnv(s.env); tel != nil && tel.Metrics != nil {
		m := tel.Metrics
		s.obs = stackObs{
			txSegs:          m.Counter("tcp.tx.segments"),
			rxSegs:          m.Counter("tcp.rx.segments"),
			txBytes:         m.Counter("tcp.tx.bytes"),
			rxBytes:         m.Counter("tcp.rx.bytes"),
			retransmits:     m.Counter("tcp.retransmits"),
			resets:          m.Counter("tcp.conn.resets"),
			segDrops:        m.Counter("tcp.seg.drops"),
			segProcNS:       m.HiRes("tcp.segment.proc.ns"),
			ecnCE:           m.Counter("tcp.ecn.ce.segments"),
			ecnCuts:         m.Counter("tcp.ecn.cwnd.cuts"),
			fastRetransmits: m.Counter("tcp.fast.retransmits"),
		}
	}
	// A fault plan on the environment arms the TCP-layer segment-loss
	// injector, if the plan asks for one.
	s.drop = fault.PlanFromEnv(s.env).ArmTCP()
	dev.SetHandler(func(src ib.LID, payload any, length int, ecn bool) {
		seg, ok := payload.(*segment)
		if !ok {
			return // not TCP traffic
		}
		if ecn && s.cfg.ECN {
			// The bounded link queue marked the carrying transfer; stamp
			// the CE codepoint for the receive path to echo as ECE.
			seg.ce = true
		}
		s.rxq.Put(seg)
	})
	// The transmit context and the receive context (softirq) each serialize
	// per-segment processing for every flow on the interface. Neither waits
	// for anything but its own queue and one service time, so they are
	// servers, not processes.
	s.txq = sim.NewServer(s.env, s.txCost, s.txDone)
	s.rxq = sim.NewServer(s.env, s.rxCost, s.rxDone)
	return s
}

// txCost accounts a segment entering transmit processing and returns the
// time it occupies the transmit context.
func (s *Stack) txCost(seg *segment) sim.Time {
	c := segCPU(seg.length)
	s.stats.TxSegments++
	s.stats.TxBytes += int64(seg.length)
	s.stats.TxBusy += c
	s.obs.txSegs.Add(1)
	s.obs.txBytes.Add(int64(seg.length))
	s.obs.segProcNS.Observe(int64(c))
	return c
}

// txDone puts a processed segment on the interface, unless the TCP fault
// lever drops it. The verdict is keyed by the connection's 4-tuple and the
// flight's index on the connection's transmit counter — its place among the
// connection's flights, the transmit context being FIFO — since duplicate
// acks repeat their fields verbatim.
func (s *Stack) txDone(seg *segment) {
	c := seg.conn
	c.tx++
	if s.drop != nil && s.drop.Drop(s.env.Now(), uint64(seg.srcAddr)<<32|uint64(seg.dst),
		uint64(seg.srcPort)<<32|uint64(seg.dstPort), c.tx-1) {
		// TCP-layer fault injection: the segment is lost after transmit
		// processing. End its flight; data segments stay in the sender's
		// retransmission queue.
		s.stats.SegDrops++
		s.obs.segDrops.Add(1)
		s.unref(seg)
		return
	}
	s.dev.Send(seg.dst, seg, seg.length+HeaderBytes)
}

// rxCost accounts a segment entering receive processing and returns the
// time it occupies the receive context.
func (s *Stack) rxCost(seg *segment) sim.Time {
	c := segCPU(seg.length)
	s.stats.RxSegments++
	s.stats.RxBytes += int64(seg.length)
	s.stats.RxBusy += c
	s.obs.rxSegs.Add(1)
	s.obs.rxBytes.Add(int64(seg.length))
	return c
}

// rxDone hands a processed segment to its connection and ends its flight.
func (s *Stack) rxDone(seg *segment) {
	s.dispatch(seg)
	s.unref(seg)
}

// Stats returns a snapshot of the stack counters.
func (s *Stack) Stats() StackStats { return s.stats }

// Env returns the simulation environment.
func (s *Stack) Env() *sim.Env { return s.env }

// Addr returns the stack's network address (the interface LID).
func (s *Stack) Addr() ib.LID { return s.dev.LID() }

// MSS returns the maximum segment payload for this interface.
func (s *Stack) MSS() int { return s.dev.MTU() - HeaderBytes }

// Window returns the configured window in bytes.
func (s *Stack) Window() int { return s.cfg.Window }

// Listen opens a listening socket on the port.
func (s *Stack) Listen(port int) *Listener {
	if _, dup := s.listeners[port]; dup {
		panic(fmt.Sprintf("tcpsim: port %d already listening", port))
	}
	l := &Listener{stack: s, port: port, backlog: sim.NewQueue[*Conn](s.env, 0)}
	s.listeners[port] = l
	return l
}

// Dial opens a connection to the remote stack and blocks until the
// three-way handshake completes. A SYN that goes unanswered is retransmitted
// with exponential backoff; when the retry budget runs out the dial fails
// with ErrConnectTimeout.
func (s *Stack) Dial(p *sim.Proc, remote ib.LID, port int) (*Conn, error) {
	s.nextPort++
	c := newConn(s, remote, port, s.nextPort)
	s.conns[c.key()] = c
	c.sendCtl(synFlag)
	c.armRTO()
	p.Wait(c.established)
	if c.err != nil {
		return nil, c.err
	}
	return c, nil
}

// dispatch routes an inbound segment to its connection or listener.
func (s *Stack) dispatch(seg *segment) {
	key := connKey{remote: seg.srcAddr, remotePort: seg.srcPort, localPort: seg.dstPort}
	if c, ok := s.conns[key]; ok {
		c.handle(seg)
		return
	}
	if seg.flags&synFlag != 0 && seg.flags&ackFlag == 0 {
		if l, ok := s.listeners[seg.dstPort]; ok {
			c := newConn(s, seg.srcAddr, seg.srcPort, seg.dstPort)
			c.passive = true
			c.swnd = seg.wnd
			s.conns[key] = c
			c.sendCtl(synFlag | ackFlag)
			c.armRTO()
			l.backlog.TryPut(c)
			return
		}
	}
	// No socket: drop silently (no RST modeling needed).
}

// Listener accepts inbound connections.
type Listener struct {
	stack   *Stack
	port    int
	backlog *sim.Queue[*Conn]
}

// Accept blocks until a connection arrives and returns it once established.
// An accepted connection whose handshake never completes fails with
// ErrConnectTimeout.
func (l *Listener) Accept(p *sim.Proc) (*Conn, error) {
	c := l.backlog.Get(p)
	p.Wait(c.established)
	if c.err != nil {
		return nil, c.err
	}
	return c, nil
}
