// Package ipoib models the IPoIB driver: IP datagrams carried over
// InfiniBand. Two modes are modeled, matching the paper (§2.1, §3.3):
//
//   - Datagram mode (UD transport): the IP MTU is limited to one IB MTU
//     (2 KB), so a given data volume costs many packets and much per-packet
//     host processing.
//   - Connected mode (RC transport): per-peer reliable connections allow IP
//     MTUs up to 64 KB, amortizing per-packet costs — but inheriting RC's
//     bounded in-flight window, which throttles throughput at large WAN
//     delays (paper Fig. 7 vs Fig. 5).
//
// The package provides an unreliable datagram interface (Send/handler);
// reliability, ordering and flow control above it belong to TCP
// (internal/tcpsim), exactly as in the real stack. IP packets are simulated
// at full wire length but their protocol headers ride as typed values
// (ib.SendWR.Meta) rather than marshaled bytes.
package ipoib

import (
	"fmt"

	"repro/internal/ib"
	"repro/internal/sim"
)

// Mode selects the IPoIB transport mode.
type Mode int

const (
	// Datagram is IPoIB-UD.
	Datagram Mode = iota
	// Connected is IPoIB-CM over RC.
	Connected
)

func (m Mode) String() string {
	if m == Datagram {
		return "UD"
	}
	return "RC"
}

// MTUs. The datagram-mode IP MTU fits a single IB MTU; connected mode
// allows up to the 64 KB the paper quotes as "the maximum allowed for an IP
// packet".
const (
	// EncapHeader is the IPoIB encapsulation overhead per IP packet.
	EncapHeader = 4
	// DatagramMTU is the datagram-mode IP MTU: one IB MTU minus the
	// encapsulation header — 2044, as in the real driver.
	DatagramMTU = ib.MTU - EncapHeader
	// MaxConnectedMTU is the connected-mode ceiling (the paper's "64K,
	// the maximum allowed for an IP packet").
	MaxConnectedMTU = 65536 - EncapHeader
)

// DefaultCMWindow is the default RC in-flight window for connected-mode
// interfaces. The IPoIB driver posts a deeper transmit queue than raw verbs
// applications, so connected-mode flows keep more messages on the wire; 32
// messages of 64 KB give 2 MB in flight, which is what lets parallel TCP
// streams keep an IPoIB-RC WAN pipe fuller than a single window-limited
// stream (paper Fig. 7b).
const DefaultCMWindow = 32

// recvPool is the number of receive buffers kept posted per QP. TCP's
// window-based flow control keeps in-flight data far below this, so the
// pool never underflows in normal operation.
const recvPool = 1024

// Handler consumes an arriving IP packet: the source interface address, the
// opaque packet payload (as passed to Send), its length in bytes, and
// whether the underlying IB transfer carried a congestion-experienced mark
// from a bounded link queue (the ECN codepoint tcpsim echoes back to the
// sender).
type Handler func(src ib.LID, payload any, length int, ecn bool)

// Network is the IPoIB "subnet": the registry mapping LIDs to interfaces,
// standing in for ARP/neighbour discovery.
type Network struct {
	devs map[ib.LID]*NetDev
}

// NewNetwork creates an empty IPoIB network.
func NewNetwork() *Network { return &Network{devs: make(map[ib.LID]*NetDev)} }

// Dev returns the interface at the given address, or nil.
func (n *Network) Dev(lid ib.LID) *NetDev { return n.devs[lid] }

// NetDev is one IPoIB interface on an HCA.
type NetDev struct {
	net     *Network
	hca     *ib.HCA
	mode    Mode
	mtu     int
	cq      *ib.CQ
	udQP    *ib.QP
	conns   map[ib.LID]*ib.QP // connected-mode per-peer QPs
	qps     map[int]*ib.QP    // every QP of the interface by QPN, for receive reposts
	handler Handler
	window  int // connected-mode RC in-flight window
	rxPkts  int64
	txPkts  int64
}

// Attach creates an IPoIB interface on the HCA with the given mode and IP
// MTU (0 selects the mode's default: 2 KB for datagram, 64 KB for
// connected). The interface starts its receive engine immediately.
func (n *Network) Attach(hca *ib.HCA, mode Mode, mtu int) *NetDev {
	switch mode {
	case Datagram:
		if mtu == 0 {
			mtu = DatagramMTU
		}
		if mtu > DatagramMTU {
			panic(fmt.Sprintf("ipoib: datagram MTU %d exceeds IB MTU %d", mtu, DatagramMTU))
		}
	case Connected:
		if mtu == 0 {
			mtu = MaxConnectedMTU
		}
		if mtu > MaxConnectedMTU {
			panic(fmt.Sprintf("ipoib: connected MTU %d exceeds %d", mtu, MaxConnectedMTU))
		}
	default:
		panic("ipoib: unknown mode")
	}
	if _, dup := n.devs[hca.LID()]; dup {
		panic(fmt.Sprintf("ipoib: HCA %s already has an interface", hca.Name()))
	}
	d := &NetDev{
		net:   n,
		hca:   hca,
		mode:  mode,
		mtu:   mtu,
		cq:    ib.NewCQ(hca.Env()),
		conns: make(map[ib.LID]*ib.QP),
		qps:   make(map[int]*ib.QP),
	}
	if mode == Connected {
		d.window = DefaultCMWindow
	}
	if mode == Datagram {
		d.udQP = hca.CreateQP(d.cq, ib.QPConfig{Transport: ib.UD})
		d.qps[d.udQP.QPN()] = d.udQP
		for i := 0; i < recvPool; i++ {
			d.udQP.PostRecv(ib.RecvWR{})
		}
	}
	n.devs[hca.LID()] = d
	d.cq.SetHandler(d.receive)
	return d
}

// MTU returns the interface IP MTU.
func (d *NetDev) MTU() int { return d.mtu }

// Mode returns the transport mode.
func (d *NetDev) Mode() Mode { return d.mode }

// LID returns the interface address (the HCA LID).
func (d *NetDev) LID() ib.LID { return d.hca.LID() }

// HCA returns the underlying adapter.
func (d *NetDev) HCA() *ib.HCA { return d.hca }

// Env returns the simulation environment.
func (d *NetDev) Env() *sim.Env { return d.hca.Env() }

// SetHandler installs the receive callback (e.g. the TCP demultiplexer).
func (d *NetDev) SetHandler(h Handler) { d.handler = h }

// TxPackets and RxPackets report interface counters.
func (d *NetDev) TxPackets() int64 { return d.txPkts }
func (d *NetDev) RxPackets() int64 { return d.rxPkts }

// Send transmits one IP packet of the given wire length carrying the given
// payload value to the interface at dst. length must not exceed the
// interface MTU; packetization to the MTU is the caller's job (TCP
// segmentation).
func (d *NetDev) Send(dst ib.LID, payload any, length int) {
	if length <= 0 || length > d.mtu {
		panic(fmt.Sprintf("ipoib: packet length %d outside (0, %d]", length, d.mtu))
	}
	peer := d.net.devs[dst]
	if peer == nil {
		panic(fmt.Sprintf("ipoib: no interface at LID %d", dst))
	}
	d.txPkts++
	wire := length + EncapHeader
	switch d.mode {
	case Datagram:
		d.udQP.PostSend(ib.SendWR{
			Op: ib.OpSend, Len: wire, Meta: payload,
			DestLID: dst, DestQPN: peer.udQP.QPN(),
		})
	case Connected:
		d.connTo(peer).PostSend(ib.SendWR{Op: ib.OpSend, Len: wire, Meta: payload})
	}
}

// connTo returns (creating on demand) the connected-mode QP toward the
// peer. Connection establishment is rare control-plane work, modeled as
// instantaneous.
func (d *NetDev) connTo(peer *NetDev) *ib.QP {
	if qp, ok := d.conns[peer.LID()]; ok {
		return qp
	}
	if peer.mode != Connected {
		panic("ipoib: connected-mode send to datagram-mode interface")
	}
	cfg := ib.QPConfig{MaxInflight: d.window}
	local, remote := ib.CreateRCPair(d.hca, peer.hca, d.cq, peer.cq, cfg)
	d.conns[peer.LID()] = local
	peer.conns[d.LID()] = remote
	d.qps[local.QPN()] = local
	peer.qps[remote.QPN()] = remote
	for i := 0; i < recvPool; i++ {
		local.PostRecv(ib.RecvWR{})
		remote.PostRecv(ib.RecvWR{})
	}
	return local
}

// receive is the interface's receive engine, the CQ's completion handler:
// it reposts receive buffers and dispatches inbound packets to the handler.
// One handler per interface models the single NAPI/softirq context a
// 2008-era IPoIB interface has — receive processing for all flows on an
// interface is serialized, which is part of why a host cannot exceed the
// single-interface stack ceiling no matter how many TCP streams it runs
// (paper Figs. 6b, 7b).
func (d *NetDev) receive(c ib.Completion) {
	if c.Op != ib.OpRecv {
		return // send completions need no action
	}
	d.rxPkts++
	if qp := d.qps[c.QPN]; qp != nil {
		qp.PostRecv(ib.RecvWR{})
	}
	if d.handler != nil {
		d.handler(c.SrcLID, c.Meta, c.Bytes-EncapHeader, c.ECN)
	}
}
