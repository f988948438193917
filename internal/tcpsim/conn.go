package tcpsim

import (
	"sync/atomic"

	"repro/internal/ib"
	"repro/internal/sim"
)

// Segment flags.
const (
	synFlag = 1 << iota
	ackFlag
	finFlag
	// eceFlag echoes a congestion-experienced mark back to the sender
	// (RFC 3168 ECN-Echo); the receiver keeps setting it until the sender
	// confirms with cwrFlag.
	eceFlag
	// cwrFlag confirms the sender reduced its congestion window.
	cwrFlag
)

// segment is one TCP segment. Headers ride as struct fields; the simulated
// wire length is length+HeaderBytes. The same segment object travels from
// the sending connection through both stacks' processing contexts to the
// receiving connection (there is no wire serialization), and go-back-N can
// put it in flight several times — so recycling is governed by a flight
// reference count plus retransmission-queue membership, not by any single
// owner.
type segment struct {
	srcAddr, dst     ib.LID
	srcPort, dstPort int
	flags            int
	seq, ack         int64
	wnd              int    // advertised window (SYN/SYNACK and acks)
	length           int    // payload bytes
	spans            []span // payload runs (real or synthetic), in order
	// one is the backing array of a fresh segment's spans, so a one-span
	// segment costs one object. Released segments keep whatever backing
	// array spans has (resetSegment), and no code copies a segment by
	// value, so spans never aliases another segment's one.
	one [1]span
	// ce is the IP-layer congestion-experienced codepoint, stamped by the
	// receiving stack when the carrying IB transfer was marked by a bounded
	// link queue. Receiver-owned, like the delivery bookkeeping.
	ce bool

	// state is the recycling word: the low bits count in-progress flights —
	// transmissions handed to a transmit context whose receive-side
	// processing has not finished yet — and segUnacked flags membership in
	// the sender's retransmission queue. The segment is recycled by whichever
	// operation brings the word to zero. A flight lost to fault injection
	// never completes, leaving the segment out of use until the world ends.
	// The word is atomic, and one word, because on a
	// partitioned world a go-back-N retransmission or an ack leaving the
	// queue (sender shard) can overlap the original flight's receive
	// processing (peer shard) inside one conservative window, and exactly
	// one of the two must see the last release.
	state atomic.Int32
	// conn is the sending connection: its stack's pool takes the segment
	// back, and its transmit counter numbers the flights (Stack.txDone).
	conn *Conn
}

// segUnacked is the retransmission-queue flag in segment.state.
const segUnacked = 1 << 30

// span is a run of stream bytes, possibly synthetic.
type span struct {
	data   []byte
	length int
}

// pushSpan appends sp to a stream buffer. A synthetic span behind a synthetic
// tail only lengthens the tail: readers consume stream buffers by byte count,
// so they cannot tell one run of zeroes from two.
func pushSpan(r *sim.Ring[span], sp span) {
	if k := r.Len(); k > 0 && sp.data == nil {
		if t := r.At(k - 1); t.data == nil {
			t.length += sp.length
			return
		}
	}
	r.Push(sp)
}

// oooSeg is one out-of-order segment parked in the receiver's reassembly
// queue: its sequence range and its payload spans, copied out so the
// segment object itself can be recycled.
type oooSeg struct {
	seq    int64
	length int
	spans  []span
}

// Conn is one TCP connection endpoint.
type Conn struct {
	stack                 *Stack
	remote                ib.LID
	remotePort, localPort int
	tx                    uint64 // flights that left the transmit context

	established *sim.Event

	// Sender state.
	sndUna, sndNxt int64
	cwnd           int
	swnd           int // peer's advertised window
	// ssthresh separates exponential slow start from additive congestion
	// avoidance. It starts at the window ceiling, so a flow that never sees
	// congestion grows exactly like the seed model's monotonic slow start.
	ssthresh int
	// dupAcks counts consecutive duplicate acks; three trigger fast
	// retransmit.
	dupAcks int
	// recover is the highest sequence outstanding at the last window cut;
	// acks below it belong to the same congestion event and must not cut
	// again (one multiplicative decrease per round trip).
	recover int64
	// lossRecovery is true from a fast retransmit until the cumulative ack
	// passes recover: partial acks inside the round refill the halved flight
	// but neither grow the window nor retransmit again.
	lossRecovery bool
	// sendCWR schedules a congestion-window-reduced confirmation on the
	// next data segment, answering the receiver's ECE echo.
	sendCWR      bool
	sendQ        sim.Ring[span]
	sendQBytes   int
	unacked      sim.Ring[*segment] // retransmission queue (go-back-N)
	writeWaiters sim.Ring[*sim.Event]
	// rto is the retransmission timer: it retransmits the handshake segment
	// until the connection is established, then the unacked data. It is
	// re-armed on every ack that makes progress, so nearly every deadline is
	// superseded before it expires.
	rto sim.Timer
	// rtoStreak counts consecutive unproductive RTO expiries; it shifts
	// the exponential backoff and, against MaxRetransmits, decides when
	// the connection gives up. Establishment and any ack progress reset it.
	rtoStreak int
	// passive marks the server-side endpoint of a handshake (created by a
	// listener); a duplicate SYN makes it resend its SYNACK.
	passive bool
	// err, once set, is the connection's terminal failure (ErrReset,
	// ErrConnectTimeout): all pending and future I/O fails with it.
	err error

	// Receiver state.
	rcvNxt    int64
	recvBuf   sim.Ring[span]
	recvBytes int
	// The waiting ReadFunc, if readFn is set; readHop: its hop is scheduled.
	readDst []byte
	readN   int
	readFn  func([]byte, error)
	readHop bool
	// ooo is the reassembly queue: segments that arrived beyond a hole,
	// sorted by sequence, waiting for a retransmission to fill the gap.
	// With it, one lost segment costs one retransmission instead of a
	// whole go-back-N window. Empty on every in-order path, so clean runs
	// never touch it.
	ooo []oooSeg
	// echoECE keeps ECE set on outgoing segments from the first
	// congestion-experienced arrival until the peer confirms with CWR.
	echoECE bool

	// Counters.
	delivered   int64 // in-order payload bytes accepted (receive side)
	retransmits int64
}

func newConn(s *Stack, remote ib.LID, remotePort, localPort int) *Conn {
	c := &Conn{
		stack:       s,
		remote:      remote,
		remotePort:  remotePort,
		localPort:   localPort,
		established: s.env.NewEvent(),
		cwnd:        InitialCwnd * s.MSS(),
		swnd:        s.cfg.Window, // refined by SYN/SYNACK exchange
		ssthresh:    s.cfg.Window,
	}
	c.rto = s.env.NewTimer(onRTO, c)
	return c
}

func (c *Conn) key() connKey {
	return connKey{remote: c.remote, remotePort: c.remotePort, localPort: c.localPort}
}

// Stack returns the owning stack.
func (c *Conn) Stack() *Stack { return c.stack }

// Delivered returns the count of in-order payload bytes this endpoint has
// accepted from the peer (whether or not a read has consumed them). It is the
// throughput counter used by the benchmarks.
func (c *Conn) Delivered() int64 { return c.delivered }

// Retransmits returns the number of go-back-N recoveries.
func (c *Conn) Retransmits() int64 { return c.retransmits }

// Err returns the connection's terminal failure, or nil while it is
// healthy.
func (c *Conn) Err() error { return c.err }

// reset tears the connection down with the given terminal error: the
// retransmission machinery stops, buffered send data is discarded, and
// every blocked writer and dialer wakes to observe c.err, as does a waiting
// read. Receive data already in order stays readable (ReadFunc drains it
// before reporting the error). Idempotent.
func (c *Conn) reset(err error) {
	if c.err != nil {
		return
	}
	c.err = err
	c.rto.Stop()
	c.stack.stats.Resets++
	c.stack.obs.resets.Add(1)
	for c.unacked.Len() > 0 {
		c.stack.acked(c.unacked.Pop())
	}
	for c.sendQ.Len() > 0 {
		c.sendQ.Pop()
	}
	c.sendQBytes = 0
	if !c.established.Triggered() {
		c.established.Trigger(nil) // wake Dial/Accept to see the error
	}
	for c.writeWaiters.Len() > 0 {
		c.writeWaiters.Pop().Trigger(nil)
	}
	c.wakeRead()
}

// window is the current effective send window.
func (c *Conn) window() int {
	w := c.cwnd
	if c.swnd < w {
		w = c.swnd
	}
	return w
}

// sendBufCap bounds application writes ahead of the window.
func (c *Conn) sendBufCap() int { return 2 * c.stack.cfg.Window }

// Write queues real payload bytes on the stream, blocking while the send
// buffer is full. It fails with the connection's terminal error once the
// recovery machinery has given up.
func (c *Conn) Write(p *sim.Proc, data []byte) error {
	if len(data) == 0 {
		return c.err
	}
	d := make([]byte, len(data))
	copy(d, data)
	return c.write(p, span{data: d, length: len(d)})
}

// WriteSynthetic queues n synthetic payload bytes — a length, never
// materialized on the way; zeroes to a receiver that asks for bytes — for
// traffic generation without byte-copy costs in the host simulator.
func (c *Conn) WriteSynthetic(p *sim.Proc, n int) error {
	if n <= 0 {
		return c.err
	}
	return c.write(p, span{length: n})
}

func (c *Conn) write(p *sim.Proc, sp span) error {
	if c.err != nil {
		return c.err
	}
	for c.sendQBytes >= c.sendBufCap() {
		ev := c.stack.env.AcquireEvent()
		c.writeWaiters.Push(ev)
		p.Wait(ev)
		c.stack.env.ReleaseEvent(ev)
		if c.err != nil {
			return c.err
		}
	}
	pushSpan(&c.sendQ, sp)
	c.sendQBytes += sp.length
	c.pump()
	return nil
}

// ReadFunc consumes the next n stream bytes and hands them to fn; it never
// blocks. A non-nil dst (room for n) gets them in place, zeroes where the
// stream was synthetic; with a nil dst, a range written with WriteSynthetic
// alone comes back nil and any other as n bytes made by its first real span.
// Buffered data drains before a terminal error is reported; a read the error
// cuts short consumes nothing and gets fn(nil, err). One read waits at a
// time: a second ReadFunc while one waits panics, as does a negative n.
//
// fn runs where a process blocked in a read loop would have carried on: with
// the bytes buffered (or the connection dead), inline. Otherwise the delivery
// that completes the read, or the reset, schedules one same-instant hop from
// where the parked reader's resume was scheduled; partial deliveries schedule
// nothing. That is exact: the receive context serves a segment per segCPU
// (>= 2 270 ns), so a connection's deliveries fall at distinct instants (a
// hole fill's burst in one handleData schedules nothing between them). The
// reader was parked again before each, its resumes on partial ones were
// unobservable, and dropping them shifts later sequence numbers uniformly.
func (c *Conn) ReadFunc(dst []byte, n int, fn func(b []byte, err error)) {
	if n < 0 || c.readFn != nil {
		panic("tcpsim: ReadFunc of a negative length, or while another read waits")
	}
	c.readDst, c.readN, c.readFn = dst, n, fn
	if c.recvBytes >= n || c.err != nil {
		runRead(c)
	}
}

// wakeRead schedules the waiting read's completion hop once its outcome is
// decided, at most once per read.
func (c *Conn) wakeRead() {
	if c.readFn != nil && !c.readHop && (c.recvBytes >= c.readN || c.err != nil) {
		c.readHop = true
		c.stack.env.AtArg(0, runRead, c)
	}
}

// runRead completes the connection's waiting read; its callback may issue
// the next one.
func runRead(v any) {
	c := v.(*Conn)
	dst, n, fn := c.readDst, c.readN, c.readFn
	c.readDst, c.readFn, c.readHop = nil, nil, false
	if c.recvBytes < n {
		fn(nil, c.err)
		return
	}
	fn(c.take(dst, n), nil)
}

// take consumes the next n buffered stream bytes into dst, zeroed first.
// Real spans are copied into place; synthetic spans are the zeroes left
// there. A nil dst is made by the first real span, so a result that is
// synthetic throughout stays nil and costs nothing.
func (c *Conn) take(dst []byte, n int) []byte {
	if dst != nil {
		dst = dst[:n]
		clear(dst)
	}
	c.recvBytes -= n
	for off := 0; off < n; {
		sp := c.recvBuf.Front()
		m := min(n-off, sp.length)
		if sp.data != nil {
			if dst == nil {
				dst = make([]byte, n)
			}
			copy(dst[off:], sp.data[:m])
			sp.data = sp.data[m:]
		}
		off += m
		if sp.length -= m; sp.length == 0 {
			c.recvBuf.Pop()
		}
	}
	return dst
}

// pump segments queued stream bytes into the transmit context while the
// window has room. Segments are packed to the MSS across application write
// boundaries, and a sub-MSS segment is only emitted when it drains the send
// queue or nothing is in flight — the standard defense against silly-window
// fragmentation (without it, per-segment costs at odd sizes dominate).
func (c *Conn) pump() {
	if !c.established.Triggered() {
		return
	}
	mss := c.stack.MSS()
	for c.sendQBytes > 0 {
		inflight := int(c.sndNxt - c.sndUna)
		room := c.window() - inflight
		if room <= 0 {
			break
		}
		n := min(mss, c.sendQBytes, room)
		if n < mss && n < c.sendQBytes && inflight > 0 {
			// Partial segment while more data and acks are pending:
			// wait for the window to open rather than fragment.
			break
		}
		seg := c.newSegment(ackFlag)
		if c.sendCWR {
			// Confirm the ECE-triggered window cut on the next data
			// segment, so the receiver stops echoing.
			seg.flags |= cwrFlag
			c.sendCWR = false
		}
		seg.length = n
		// Pack n bytes from the head spans.
		left := n
		for left > 0 {
			sp := c.sendQ.Front()
			take := min(left, sp.length)
			if sp.data != nil {
				seg.spans = append(seg.spans, span{data: sp.data[:take], length: take})
				sp.data = sp.data[take:]
			} else {
				seg.spans = append(seg.spans, span{length: take})
			}
			sp.length -= take
			left -= take
			if sp.length == 0 {
				c.sendQ.Pop()
			}
		}
		c.sendQBytes -= n
		c.sndNxt += int64(n)
		seg.state.Store(segUnacked) // fresh from the pool: no flight yet
		c.unacked.Push(seg)
		c.stack.transmit(seg)
		if c.unacked.Len() == 1 {
			c.armRTO()
		}
	}
	// Wake writers if buffer space opened up.
	for c.writeWaiters.Len() > 0 && c.sendQBytes < c.sendBufCap() {
		c.writeWaiters.Pop().Trigger(nil)
	}
}

// newSegment takes a segment from the stack's pool and stamps this
// connection's headers on it.
func (c *Conn) newSegment(flags int) *segment {
	seg := c.stack.segs.Get()
	seg.conn = c
	seg.srcAddr, seg.dst = c.stack.Addr(), c.remote
	seg.srcPort, seg.dstPort = c.localPort, c.remotePort
	seg.flags = flags
	if c.echoECE {
		seg.flags |= eceFlag
	}
	seg.seq, seg.ack = c.sndNxt, c.rcvNxt
	seg.wnd = c.stack.cfg.Window
	return seg
}

// sendCtl emits a control segment (SYN, SYN|ACK, pure ACK).
func (c *Conn) sendCtl(flags int) {
	c.stack.transmit(c.newSegment(flags))
}

// handle processes an inbound segment (already charged receive CPU).
func (c *Conn) handle(seg *segment) {
	switch {
	case seg.flags&synFlag != 0 && seg.flags&ackFlag != 0:
		// Client side: SYNACK.
		c.swnd = seg.wnd
		c.sendCtl(ackFlag)
		if !c.established.Triggered() {
			c.establish()
		}
		c.pump()
		return
	case seg.flags&synFlag != 0:
		// Duplicate SYN: our SYNACK (or the peer's first ACK) was lost.
		// The passive side answers again; dispatch created the conn.
		if c.passive && !c.established.Triggered() {
			c.sendCtl(synFlag | ackFlag)
		}
		return
	}
	if !c.established.Triggered() {
		// Server side: first ACK completes the handshake.
		c.swnd = seg.wnd
		c.establish()
	}
	if seg.flags&cwrFlag != 0 {
		// The sender confirmed a window cut; stop echoing ECE.
		c.echoECE = false
	}
	if seg.ce {
		// Congestion-experienced: echo ECE on everything we send (starting
		// with the ack below) until the sender confirms with CWR.
		c.stack.obs.ecnCE.Add(1)
		c.echoECE = true
	}
	if seg.length > 0 {
		c.handleData(seg)
	}
	c.handleAck(seg)
}

func (c *Conn) handleData(seg *segment) {
	switch {
	case seg.seq == c.rcvNxt:
		c.deliverSpans(seg.spans, seg.length)
		// A retransmission that fills the hole releases everything parked
		// behind it in one burst, as in a real reassembly queue.
		for len(c.ooo) > 0 && c.ooo[0].seq <= c.rcvNxt {
			o := c.ooo[0]
			c.ooo[0] = oooSeg{} // the shifted-off slot must not pin o's payload
			c.ooo = c.ooo[1:]
			if o.seq == c.rcvNxt {
				c.deliverSpans(o.spans, o.length)
			}
		}
	case seg.seq < c.rcvNxt:
		// Duplicate from a retransmission: ack again below.
	default:
		// Gap (a predecessor was dropped): park the segment in the
		// reassembly queue and let the ack below report the hole as a
		// duplicate. Sender framing is stable across retransmissions, so
		// entries either match exactly (drop the duplicate) or tile.
		c.insertOOO(seg)
	}
	c.sendCtl(ackFlag)
}

// deliverSpans accepts in-order payload. Span values are copied out of the
// segment, so recycling the segment never touches buffered stream data.
func (c *Conn) deliverSpans(spans []span, length int) {
	c.rcvNxt += int64(length)
	c.delivered += int64(length)
	for _, sp := range spans {
		pushSpan(&c.recvBuf, sp)
	}
	c.recvBytes += length
	c.wakeRead()
}

// insertOOO parks an out-of-order segment in the reassembly queue, keeping
// it sorted by sequence and dropping exact duplicates.
func (c *Conn) insertOOO(seg *segment) {
	i := len(c.ooo)
	for i > 0 && c.ooo[i-1].seq >= seg.seq {
		if c.ooo[i-1].seq == seg.seq {
			return
		}
		i--
	}
	spans := make([]span, len(seg.spans))
	copy(spans, seg.spans)
	c.ooo = append(c.ooo, oooSeg{})
	copy(c.ooo[i+1:], c.ooo[i:])
	c.ooo[i] = oooSeg{seq: seg.seq, length: seg.length, spans: spans}
}

func (c *Conn) handleAck(seg *segment) {
	ackNum := seg.ack
	if seg.flags&eceFlag != 0 {
		c.ecnCut(ackNum)
	}
	if ackNum <= c.sndUna {
		// A pure duplicate ack means the receiver is still asking for
		// sndUna after later data arrived — under go-back-N framing that
		// only follows a loss. Three in a row trigger fast retransmit.
		if ackNum == c.sndUna && seg.length == 0 && seg.flags&synFlag == 0 && c.unacked.Len() > 0 {
			c.dupAcks++
			if c.dupAcks == 3 && c.sndUna >= c.recover {
				c.fastRetransmit()
			}
		}
		return
	}
	c.dupAcks = 0
	acked := int(ackNum - c.sndUna)
	c.sndUna = ackNum
	for c.unacked.Len() > 0 {
		head := *c.unacked.Front()
		if head.seq+int64(head.length) > ackNum {
			break
		}
		c.unacked.Pop()
		c.stack.acked(head)
	}
	if c.sndUna >= c.recover {
		c.lossRecovery = false
	}
	// Congestion-window growth: exponential slow start below ssthresh,
	// additive increase above it. A flow that never sees a congestion event
	// keeps ssthresh at the window ceiling, so this is exactly the seed
	// model's monotonic rise toward cfg.Window. Partial acks inside a
	// loss-recovery round (sndUna still short of recover) advance the window
	// edge — pump below refills the halved flight — but do not grow it, and
	// never retransmit: the fast retransmit already resent every hole.
	if !c.lossRecovery {
		if c.cwnd < c.ssthresh {
			c.cwnd = min(c.cwnd+acked, c.ssthresh)
		} else if c.cwnd < c.stack.cfg.Window {
			c.cwnd = min(c.cwnd+max(c.stack.MSS()*acked/c.cwnd, 1), c.stack.cfg.Window)
		}
	}
	c.rto.Stop()
	c.rtoStreak = 0 // forward progress: recovery is working
	if c.unacked.Len() > 0 {
		c.armRTO()
	}
	c.pump()
}

// ecnCut reacts to an ECE echo: one multiplicative decrease per round trip
// (RFC 3168), confirmed back to the receiver with CWR on the next data
// segment. Nothing was lost, so nothing is retransmitted.
func (c *Conn) ecnCut(ackNum int64) {
	if ackNum < c.recover {
		return // this round trip's cut already happened
	}
	c.cutCwnd()
	c.sendCWR = true
	c.stack.obs.ecnCuts.Add(1)
}

// cutCwnd is the multiplicative decrease: ssthresh and cwnd drop to half
// the current flight, floored at two segments, and a new recovery round
// opens at sndNxt.
func (c *Conn) cutCwnd() {
	half := min(max(int(c.sndNxt-c.sndUna)/2, 2*c.stack.MSS()), c.stack.cfg.Window)
	c.ssthresh = half
	c.cwnd = half
	c.recover = c.sndNxt
}

// fastRetransmit answers the third duplicate ack: halve the window and
// resend everything outstanding without waiting for the RTO. Tail drop at a
// full queue loses segments in bursts, so go-back-N repairs every hole in
// one round trip; the receiver's reassembly queue discards the duplicates,
// and partial acks during the recovery round never retransmit again — one
// resend-all per congestion event.
func (c *Conn) fastRetransmit() {
	c.cutCwnd()
	c.lossRecovery = true
	c.retransmits++
	c.stack.obs.retransmits.Add(1)
	c.stack.obs.fastRetransmits.Add(1)
	for i := 0; i < c.unacked.Len(); i++ {
		c.stack.transmit(*c.unacked.At(i))
	}
	c.armRTO()
}

// armRTO arms the retransmission timer. The fabric is FIFO and lossless,
// so it only fires under fault injection. Each unproductive expiry doubles
// the timeout (capped at RTO<<maxRTOShift) and counts against the stack's
// MaxRetransmits budget; exhausting it resets the connection, so a
// permanently dead WAN terminates with ErrReset instead of retransmitting
// forever.
func (c *Conn) armRTO() {
	c.rto.Reset(c.stack.cfg.RTO << min(c.rtoStreak, maxRTOShift))
}

// establish completes the handshake: the timer stops retransmitting the
// handshake segment, and Dial or Accept wakes.
func (c *Conn) establish() {
	c.rto.Stop()
	c.rtoStreak = 0
	c.established.Trigger(nil)
}

// onRTO is the retransmission timer expiring. Before the handshake completes
// it resends the handshake segment — SYN on the active side, SYN|ACK on the
// passive side — and exhausting the budget fails the connection with
// ErrConnectTimeout; after, it resends the data still outstanding, and
// exhaustion is ErrReset. The connection is the timer's argument.
func onRTO(v any) {
	c := v.(*Conn)
	handshake := !c.established.Triggered()
	if !handshake && c.unacked.Len() == 0 {
		return
	}
	if mx := c.stack.cfg.MaxRetransmits; mx >= 0 && c.rtoStreak >= mx {
		if handshake {
			c.reset(ErrConnectTimeout)
		} else {
			c.reset(ErrReset)
		}
		return
	}
	c.rtoStreak++
	c.retransmits++
	c.stack.obs.retransmits.Add(1)
	switch {
	case c.passive && handshake:
		c.sendCtl(synFlag | ackFlag)
	case handshake:
		c.sendCtl(synFlag)
	default:
		// Timeout loss response: halve ssthresh and restart from one
		// segment of flight (classic slow-start restart), then go-back-N:
		// resend everything outstanding.
		c.cutCwnd()
		c.cwnd = c.stack.MSS()
		for i := 0; i < c.unacked.Len(); i++ {
			c.stack.transmit(*c.unacked.At(i))
		}
	}
	c.armRTO()
}
