package ib

import (
	"fmt"

	"repro/internal/sim"
)

// HCA is a host channel adapter: a single-ported end node owning queue
// pairs and registered memory regions.
type HCA struct {
	fab  *Fabric
	pool *pool
	env  *sim.Env // pool.env: the site's shard view on a partitioned world
	name string
	lid  LID
	// port is the single port, once attached, and the route to everything;
	// an array so ports() can slice it.
	port [1]*Port
	qps  map[int]*QP // by QPN, made by the first CreateQP; QPs are never removed but with the world
	// wire and verbs are the HCA's telemetry tracks (obs.go).
	wire, verbs track
}

func (h *HCA) reset() {
	clear(h.qps)
	*h = HCA{qps: h.qps}
}

// Name returns the HCA name.
func (h *HCA) Name() string { return h.name }

// LID returns the HCA's local identifier.
func (h *HCA) LID() LID { return h.lid }

// Fabric returns the owning fabric.
func (h *HCA) Fabric() *Fabric { return h.fab }

// Env returns the simulation environment the HCA lives on: its site's
// shard view on partitioned topologies, the fabric environment otherwise.
// Layers hosting software on a node (MPI ranks, NFS clients and servers)
// schedule through this, which is what keeps all of a node's work on its
// own shard.
func (h *HCA) Env() *sim.Env { return h.env }

func (h *HCA) ports() []*Port {
	if h.port[0] == nil {
		return nil
	}
	return h.port[:]
}

func (h *HCA) attach(p *Port) {
	if h.port[0] != nil {
		panic(fmt.Sprintf("ib: HCA %s already has a port", h.name))
	}
	h.port[0] = p
}

func (h *HCA) setLID(l LID)          { h.lid = l }
func (h *HCA) routeTo(dst LID) *Port { return h.port[0] }

// setRoute and resetRoutes are no-ops: an HCA has a single port, so its only
// possible route survives every epoch (path choice happens at the switches).
func (h *HCA) setRoute(LID, *Port) {}
func (h *HCA) resetRoutes(int)     {}
func (h *HCA) fabric() *Fabric     { return h.fab }
func (h *HCA) home() *pool         { return h.pool }
func (h *HCA) wireTrack() *track   { return &h.wire }
func (h *HCA) stage() sim.Time     { return PacketProc } // per-packet processing: a pipeline stage
func (h *HCA) ingress() func(any)  { return hcaIngress }

// Port returns the HCA's single port (nil before Connect).
func (h *HCA) FabricPort() *Port { return h.port[0] }

// hcaIngress is every HCA's ingress action. Switches route a packet only
// toward its destination, so the HCA it reaches is the one its dst names, and
// one package function serves every HCA port.
func hcaIngress(v any) {
	pkt := v.(*packet)
	pkt.home.fab.byLID[pkt.dst].(*HCA).receive(pkt)
}

// receive hands a processed packet to its QP, then recycles it.
func (h *HCA) receive(pkt *packet) {
	h.fab.trace(evRx, h, pkt, "")
	qp := h.qps[int(pkt.dstQP)]
	if qp == nil {
		panic(fmt.Sprintf("ib: HCA %s: packet for unknown QP %d", h.name, pkt.dstQP))
	}
	qp.receive(pkt)
	h.pool.freePacket(pkt)
}

// BufferMR returns buf as an RDMA-accessible memory region, by value: the
// record that advertises the region holds it, and a pointer to that copy is
// the handle (which doubles as the rkey a peer must present).
func (h *HCA) BufferMR(buf []byte) MR { return MR{hca: h, Buf: buf} }

// VirtualMR returns, by value, a region with a size but no backing memory:
// RDMA operations against it are fully simulated on the wire but carry no
// payload bytes. Perf-only traffic uses virtual regions to avoid allocating
// and copying gigabytes of synthetic payload.
func (h *HCA) VirtualMR(n int) MR { return MR{hca: h, virtualLen: n} }

// RegisterMR registers buf as a region of its own and returns its handle.
func (h *HCA) RegisterMR(buf []byte) *MR {
	mr := h.BufferMR(buf)
	return &mr
}

// RegisterVirtualMR registers a virtual region of n bytes (VirtualMR) and
// returns its handle.
func (h *HCA) RegisterVirtualMR(n int) *MR {
	mr := h.VirtualMR(n)
	return &mr
}

// MR is a registered memory region on an HCA.
type MR struct {
	hca        *HCA
	Buf        []byte
	virtualLen int // size of a virtual (unbacked) region
}

// Len returns the region size in bytes.
func (m *MR) Len() int {
	if m.Buf == nil {
		return m.virtualLen
	}
	return len(m.Buf)
}
