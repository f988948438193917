// Package sdp models the Sockets Direct Protocol: stream-socket semantics
// carried natively on an InfiniBand reliable connection, bypassing the
// TCP/IP stack entirely. The paper's related work (Prescott & Taylor)
// characterizes the Obsidian Longbows with TTCP over SDP/IB and iSCSI over
// SDP/IB, "demonstrating that the Longbows are capable of high wire speed
// efficiency" — SDP is how sockets applications get verbs-level WAN
// throughput without the IPoIB host-processing ceiling.
//
// Two data paths are modeled, as in real SDP:
//
//   - bcopy: stream bytes are copied into bounce buffers and sent as RC
//     messages (cheap for small transfers, pays a per-byte copy at both
//     ends).
//   - zcopy: above a threshold the sender advertises the source region
//     (SrcAvail) and the receiver pulls it with RDMA read (zero copy, one
//     extra control round trip) — profitable exactly when transfers are
//     large.
package sdp

import (
	"fmt"
	"sync"

	"repro/internal/cluster"
	"repro/internal/ib"
	"repro/internal/sim"
)

// Protocol constants.
const (
	// BcopyChunk is the bounce-buffer message size for the bcopy path.
	BcopyChunk = 32 << 10
	// DefaultZcopyThreshold is the transfer size at which the zcopy path
	// takes over (the sdp_zcopy_thresh default ballpark).
	DefaultZcopyThreshold = 64 << 10
	// CopyPerByteNanos is the bcopy memcpy cost per byte per side.
	CopyPerByteNanos = 0.4
	// CtrlBytes is the wire size of SDP control messages (SrcAvail,
	// RdmaRdCompl) and the per-message header share of data messages.
	CtrlBytes = 16
	// qpWindow is the RC send depth an SDP connection uses.
	qpWindow = 16
)

// message kinds on the wire.
type msgKind int

const (
	dataMsg msgKind = iota // bcopy payload
	srcAvailMsg
	rdmaDoneMsg
	connReqMsg
	connAckMsg
)

type wireMsg struct {
	kind msgKind
	data []byte // bcopy payload (nil = synthetic)
	size int
	mr   *ib.MR // SrcAvail: advertised source region
	dst  []byte // receiver-side landing buffer for the zcopy pull
	port int    // connReq
}

// Listener accepts SDP connections on a node.
type Listener struct {
	node    *cluster.Node
	port    int
	backlog *sim.Queue[*Conn]
}

// listeners maps (node, port) to listening sockets, standing in for the
// SDP port space. Node pointers are unique across simulations, so separate
// testbeds never collide; Close releases an entry. The map is the one piece
// of state shared between simulations, so it is mutex-guarded: the parallel
// experiment runner executes independent testbeds from multiple goroutines.
var (
	listenersMu sync.Mutex
	listeners   = map[listenerKey]*Listener{}
)

type listenerKey struct {
	node *cluster.Node
	port int
}

// Listen opens an SDP listening socket.
func Listen(node *cluster.Node, port int) *Listener {
	key := listenerKey{node, port}
	listenersMu.Lock()
	defer listenersMu.Unlock()
	if _, dup := listeners[key]; dup {
		panic(fmt.Sprintf("sdp: port %d already listening on %s", port, node.Name))
	}
	l := &Listener{node: node, port: port, backlog: sim.NewQueue[*Conn](node.HCA.Env(), 0)}
	listeners[key] = l
	return l
}

// Close releases the listening port.
func (l *Listener) Close() {
	listenersMu.Lock()
	defer listenersMu.Unlock()
	delete(listeners, listenerKey{l.node, l.port})
}

// Accept blocks until a connection arrives.
func (l *Listener) Accept(p *sim.Proc) *Conn {
	return l.backlog.Get(p)
}

// Conn is one end of an SDP stream.
type Conn struct {
	node  *cluster.Node
	qp    *ib.QP
	cq    *ib.CQ
	zthr  int
	sendQ *sim.Queue[*wireMsg] // serialized sender engine input

	// Receive side. copying is the bcopy message whose receive-side copy
	// holds the CQ; copied, made once, delivers it when the copy is done.
	copying     *wireMsg
	copied      func()
	recvBuf     []recvSpan
	recvBytes   int
	readWaiters []*sim.Event
	delivered   int64
	// ecnMarks counts inbound completions whose transfer carried a
	// congestion-experienced mark from a bounded link queue. SDP itself
	// rides RC (the fabric retransmits), so the mark is surfaced as a
	// congestion observable for callers that adapt stream counts or
	// zcopy thresholds rather than acted on here.
	ecnMarks int64

	// Zcopy bookkeeping.
	zpending map[*ib.MR]*sim.Event
}

type recvSpan struct {
	data []byte
	size int
}

// Dial connects to an SDP listener; the handshake costs one round trip.
func Dial(p *sim.Proc, node *cluster.Node, peer *cluster.Node, port int) *Conn {
	key := listenerKey{peer, port}
	listenersMu.Lock()
	l, ok := listeners[key]
	listenersMu.Unlock()
	if !ok {
		panic(fmt.Sprintf("sdp: nothing listening on %s:%d", peer.Name, port))
	}
	// Create the RC pair and both endpoints.
	ccq, scq := ib.NewCQ(node.HCA.Env()), ib.NewCQ(peer.HCA.Env())
	cqp, sqp := ib.CreateRCPair(node.HCA, peer.HCA, ccq, scq, ib.QPConfig{MaxInflight: qpWindow})
	client := newConn(node, cqp, ccq)
	server := newConn(peer, sqp, scq)
	// Handshake: REQ / ACK over the fresh connection.
	done := node.HCA.Env().NewEvent()
	client.zpending[nil] = done
	client.send(&wireMsg{kind: connReqMsg, size: CtrlBytes, port: port})
	l.backlog.TryPut(server)
	p.Wait(done)
	delete(client.zpending, nil)
	return client
}

func newConn(node *cluster.Node, qp *ib.QP, cq *ib.CQ) *Conn {
	c := &Conn{
		node:     node,
		qp:       qp,
		cq:       cq,
		zthr:     DefaultZcopyThreshold,
		sendQ:    sim.NewQueue[*wireMsg](node.HCA.Env(), 0),
		zpending: make(map[*ib.MR]*sim.Event),
	}
	for i := 0; i < 64; i++ {
		qp.PostRecv(ib.RecvWR{})
	}
	env := node.HCA.Env()
	// Sender engine: serializes bcopy copies and posts.
	env.Go("sdp-tx-"+node.Name, func(p *sim.Proc) {
		for {
			m := c.sendQ.Get(p)
			if m.kind == dataMsg {
				p.Sleep(sim.Time(float64(m.size) * CopyPerByteNanos))
			}
			c.postWire(m)
		}
	})
	// Receiver engine: protocol handling, on the CQ's completion events.
	c.copied = func() { c.deliver(c.copying.data, c.copying.size) }
	cq.SetHandler(c.handle)
	return c
}

// SetZcopyThreshold overrides the bcopy/zcopy switch point (0 disables
// zcopy entirely).
func (c *Conn) SetZcopyThreshold(n int) {
	if n == 0 {
		n = 1 << 62
	}
	c.zthr = n
}

// Delivered reports in-order payload bytes received.
func (c *Conn) Delivered() int64 { return c.delivered }

// ECNMarks returns the number of inbound messages that arrived
// congestion-marked by a bounded link queue.
func (c *Conn) ECNMarks() int64 { return c.ecnMarks }

func (c *Conn) send(m *wireMsg) { c.sendQ.TryPut(m) }

func (c *Conn) postWire(m *wireMsg) {
	wire := m.size + CtrlBytes
	c.qp.PostSend(ib.SendWR{Op: ib.OpSend, Len: wire, Meta: m})
}

// handle is the receiver engine: the CQ's completion handler.
func (c *Conn) handle(comp ib.Completion) {
	switch comp.Op {
	case ib.OpRecv:
		if comp.ECN {
			c.ecnMarks++
		}
		c.qp.PostRecv(ib.RecvWR{})
		m := comp.Meta.(*wireMsg)
		switch m.kind {
		case dataMsg:
			// Receive-side bcopy.
			c.copying = m
			c.cq.Hold(sim.Time(float64(m.size)*CopyPerByteNanos), c.copied)
		case srcAvailMsg:
			// Zcopy: pull the advertised region with RDMA read, then
			// notify the sender. The transfer length is the advertised
			// region's size (the control message itself is tiny).
			n := m.mr.Len()
			if m.mr.Buf != nil {
				m.dst = make([]byte, n)
			}
			c.qp.PostSend(ib.SendWR{
				Op: ib.OpRDMARead, Len: n, LocalBuf: m.dst,
				RemoteMR: m.mr, Ctx: m,
			})
		case rdmaDoneMsg:
			// Sender side: the peer finished reading our region.
			if ev, ok := c.zpending[m.mr]; ok {
				delete(c.zpending, m.mr)
				ev.Trigger(nil)
			}
		case connReqMsg:
			c.send(&wireMsg{kind: connAckMsg, size: CtrlBytes})
		case connAckMsg:
			if ev, ok := c.zpending[nil]; ok {
				ev.Trigger(nil)
			}
		}
	case ib.OpRDMARead:
		// Zcopy pull finished: deliver and release the sender.
		m := comp.Ctx.(*wireMsg)
		c.deliver(m.dst, comp.Bytes)
		c.send(&wireMsg{kind: rdmaDoneMsg, size: CtrlBytes, mr: m.mr})
	}
}

func (c *Conn) deliver(data []byte, size int) {
	c.recvBuf = append(c.recvBuf, recvSpan{data: data, size: size})
	c.recvBytes += size
	c.delivered += int64(size)
	for len(c.readWaiters) > 0 {
		ev := c.readWaiters[0]
		c.readWaiters = c.readWaiters[1:]
		ev.Trigger(nil)
	}
}

// Write sends real bytes on the stream, blocking until the transfer's
// buffers are reusable (bcopy: after the copy; zcopy: after RdmaRdCompl).
func (c *Conn) Write(p *sim.Proc, data []byte) {
	c.write(p, data, len(data))
}

// WriteSynthetic sends n synthetic bytes.
func (c *Conn) WriteSynthetic(p *sim.Proc, n int) {
	c.write(p, nil, n)
}

func (c *Conn) write(p *sim.Proc, data []byte, n int) {
	if n <= 0 {
		return
	}
	if n >= c.zthr {
		// Zcopy: advertise the region, wait for the peer's pull.
		var mr *ib.MR
		if data != nil {
			mr = c.node.HCA.RegisterMR(data)
		} else {
			mr = c.node.HCA.RegisterVirtualMR(n)
		}
		done := c.node.HCA.Env().NewEvent()
		c.zpending[mr] = done
		c.send(&wireMsg{kind: srcAvailMsg, size: CtrlBytes, mr: mr})
		p.Wait(done)
		return
	}
	// Bcopy: chunk into bounce-buffer messages.
	for off := 0; off < n; off += BcopyChunk {
		ch := min(BcopyChunk, n-off)
		m := &wireMsg{kind: dataMsg, size: ch}
		if data != nil {
			m.data = data[off : off+ch]
		}
		c.send(m)
	}
}

// Read blocks until stream bytes are available and returns up to max
// (synthetic spans materialize as zeros).
func (c *Conn) Read(p *sim.Proc, max int) []byte {
	c.awaitData(p)
	out := make([]byte, min(c.recvBytes, max))
	c.take(out)
	return out
}

// ReadFull blocks until exactly n bytes arrive.
func (c *Conn) ReadFull(p *sim.Proc, n int) []byte {
	out := make([]byte, n)
	for got := 0; got < n; {
		c.awaitData(p)
		k := min(c.recvBytes, n-got)
		c.take(out[got : got+k])
		got += k
	}
	return out
}

// awaitData blocks until stream bytes are buffered.
func (c *Conn) awaitData(p *sim.Proc) {
	for c.recvBytes == 0 {
		ev := c.node.HCA.Env().NewEvent()
		c.readWaiters = append(c.readWaiters, ev)
		p.Wait(ev)
	}
}

// take moves the next len(dst) buffered stream bytes into dst, which must
// be fresh from make: real spans are copied into place, synthetic spans are
// the zeroes already there.
func (c *Conn) take(dst []byte) {
	c.recvBytes -= len(dst)
	for len(dst) > 0 {
		sp := &c.recvBuf[0]
		k := min(len(dst), sp.size)
		if sp.data != nil {
			copy(dst, sp.data[:k])
			sp.data = sp.data[k:]
		}
		dst = dst[k:]
		sp.size -= k
		if sp.size == 0 {
			c.recvBuf = c.recvBuf[1:]
		}
	}
}
