package rpc

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/ib"
	"repro/internal/sim"
)

// RDMA transport tuning.
const (
	// rdmaQPWindow is the send-queue depth of the NFS/RDMA connection —
	// deeper than raw perftest defaults, since the server keeps many 4 KB
	// fragments in flight.
	rdmaQPWindow = 32
	// FragmentIssueCPU is the server-side cost to prepare and post one
	// 4 KB direct-placement fragment (page-cache lookup, WQE build). It
	// is charged on a serialized issue context and sets the NFS/RDMA
	// server's ~1.2 GB/s ceiling observed as the paper's LAN peak.
	FragmentIssueCPU = 3300 * sim.Nanosecond
)

// rdmaWire is the wire header message used on the send/recv channel.
type rdmaWire struct {
	xid     uint64
	proc    uint32
	meta    []byte
	isReply bool
	bulkLen int // reply: bulk bytes placed before this reply was sent
	// synthetic marks a reply whose bulk was a length: nothing was written
	// into the client's region, which must read as zeroes all the same.
	synthetic bool
	// Request: regions the client advertises for direct data placement,
	// nil when the call has no such bulk. They point into readRegion and
	// writeRegion: the regions ride in the wire record that advertises them.
	readMR      *ib.MR // server writes READ data here
	writeMR     *ib.MR // server reads WRITE data from here
	readRegion  ib.MR
	writeRegion ib.MR
	readLen     int
	wlen        int
}

// RDMAClient is the NFS/RDMA client transport: one RC connection to the
// server, small sends for headers, direct data placement for bulk.
type RDMAClient struct {
	core
	node *cluster.Node
	qp   *ib.QP
}

// RDMAServer is the server side of the RDMA transport.
type RDMAServer struct {
	env     *sim.Env
	node    *cluster.Node
	handler Handler
	threads *sim.Resource
	// issueCtx serializes fragment preparation (the server data path).
	issueCtx *sim.Resource
	qps      []*ib.QP
	cq       *ib.CQ
}

// ServeRDMA starts an RPC-over-RDMA server on the node.
func ServeRDMA(node *cluster.Node, threads int, h Handler) *RDMAServer {
	env := node.HCA.Env()
	s := &RDMAServer{
		env:      env,
		node:     node,
		handler:  h,
		threads:  sim.NewResource(env, threads),
		issueCtx: sim.NewResource(env, 1),
		cq:       ib.NewCQ(env),
	}
	s.cq.SetHandler(s.complete)
	return s
}

// complete is the server's single CQ consumer: it routes inbound calls to
// handler processes and fragment completions to their waiting groups.
func (s *RDMAServer) complete(c ib.Completion) {
	if c.Status != ib.StatusOK {
		// Errored connection: a flushed receive carries no call, but a
		// failed fragment must still count down its group or the handler
		// waiting on it would hang forever.
		s.fragmentDone(c)
		return
	}
	switch c.Op {
	case ib.OpRecv:
		qp := s.qpToClient(c.QPN)
		qp.PostRecv(ib.RecvWR{})
		w := c.Meta.(*rdmaWire)
		s.env.Go("rpc-rdma-handler", func(ph *sim.Proc) {
			s.serve(ph, w, qp)
		})
	case ib.OpRDMAWrite, ib.OpRDMARead:
		s.fragmentDone(c)
	}
}

// fragmentDone counts a direct-placement fragment's completion down on its
// group, waking the handler that issued the batch when it was the last.
func (s *RDMAServer) fragmentDone(c ib.Completion) {
	if g, ok := c.Ctx.(*fragGroup); ok {
		g.remaining--
		if g.remaining == 0 {
			g.done.Trigger(nil)
		}
	}
}

// fragGroup tracks a batch of outstanding direct-placement fragments.
type fragGroup struct {
	remaining int
	done      *sim.Event
}

// qpToClient returns the server-side QP the call arrived on; replies and
// direct data placement flow back over the same connection.
func (s *RDMAServer) qpToClient(localQPN int) *ib.QP {
	for _, qp := range s.qps {
		if qp.QPN() == localQPN {
			return qp
		}
	}
	panic("rpc: reply to unknown client QP")
}

// serve runs one call: fetch WRITE data by RDMA read, invoke the handler,
// place READ data by fragmented RDMA writes, send the reply.
func (s *RDMAServer) serve(p *sim.Proc, w *rdmaWire, qp *ib.QP) {
	s.threads.Acquire(p)
	defer s.threads.Release()
	req := &Request{Proc: w.proc, Meta: w.meta, ReadLen: w.readLen}
	// Pull WRITE bulk from the client by RDMA read, fragment by fragment.
	if w.wlen > 0 {
		var buf []byte
		if w.writeMR != nil && w.writeMR.Buf != nil {
			buf = make([]byte, w.wlen)
		}
		g := &fragGroup{remaining: (w.wlen + Fragment - 1) / Fragment, done: s.env.NewEvent()}
		for off := 0; off < w.wlen; off += Fragment {
			n := min(Fragment, w.wlen-off)
			s.issueCtx.Use(p, FragmentIssueCPU)
			var dst []byte
			if buf != nil {
				dst = buf[off : off+n]
			}
			qp.PostSend(ib.SendWR{Op: ib.OpRDMARead, Len: n, LocalBuf: dst,
				RemoteMR: w.writeMR, RemoteOff: off, Ctx: g})
		}
		p.Wait(g.done)
		req.WriteBulk = buf
		if buf == nil {
			req.WriteLen = w.wlen
		}
	}
	reply := s.handler(p, req)
	// Place READ bulk into the client's region, 4 KB fragments.
	bulkN := reply.bulkLen()
	if bulkN > 0 {
		if w.readMR == nil {
			panic("rpc: reply bulk without client read region")
		}
		g := &fragGroup{remaining: (bulkN + Fragment - 1) / Fragment, done: s.env.NewEvent()}
		for off := 0; off < bulkN; off += Fragment {
			n := min(Fragment, bulkN-off)
			s.issueCtx.Use(p, FragmentIssueCPU)
			var src []byte
			if reply.Bulk != nil {
				src = reply.Bulk[off : off+n]
			}
			qp.PostSend(ib.SendWR{Op: ib.OpRDMAWrite, Data: src, Len: n,
				RemoteMR: w.readMR, RemoteOff: off, Ctx: g})
		}
		p.Wait(g.done)
	}
	qp.PostSend(ib.SendWR{Op: ib.OpSend, Len: CtrlWire(len(reply.Meta)),
		Meta: &rdmaWire{xid: w.xid, proc: w.proc, meta: reply.Meta, isReply: true, bulkLen: bulkN, synthetic: reply.Bulk == nil}})
}

// CtrlWire is the wire size of an RPC header message with the given
// metadata length.
func CtrlWire(metaLen int) int { return headerBytes + metaLen }

// NewRDMAClient connects an RPC-over-RDMA client on the node to the server.
func NewRDMAClient(node *cluster.Node, srv *RDMAServer) *RDMAClient {
	env := node.HCA.Env()
	c := &RDMAClient{node: node}
	c.core = newCore(env, c.post)
	cq := ib.NewCQ(env)
	local, remote := ib.CreateRCPair(node.HCA, srv.node.HCA, cq, srv.cq,
		ib.QPConfig{MaxInflight: rdmaQPWindow})
	c.qp = local
	srv.qps = append(srv.qps, remote)
	for i := 0; i < 128; i++ {
		local.PostRecv(ib.RecvWR{})
		remote.PostRecv(ib.RecvWR{})
	}
	cq.SetHandler(c.complete)
	return c
}

// complete is the client's CQ consumer: it matches replies to pending calls.
func (c *RDMAClient) complete(comp ib.Completion) {
	if comp.Status != ib.StatusOK {
		// The RC connection gave up (retry budget exhausted) and flushed its
		// queues: the transport is dead. The first error completion fails
		// everything pending; the rest of the flush drains here without
		// formatting an error each.
		if c.err == nil {
			c.fail(fmt.Errorf("rpc: rdma transport failure: %s", comp.Status))
		}
		return
	}
	if comp.Op != ib.OpRecv {
		return
	}
	c.qp.PostRecv(ib.RecvWR{})
	w := comp.Meta.(*rdmaWire)
	if !w.isReply {
		return
	}
	cl := c.take(w.xid)
	if cl == nil {
		return
	}
	// Bulk was placed directly; a synthetic read reports at most its capacity.
	n := w.bulkLen
	if buf := cl.req.ReadBuf; buf == nil {
		n = min(n, cl.req.ReadLen)
	} else if w.synthetic {
		clear(buf[:n])
	}
	cl.resolve(&Reply{Meta: w.meta, BulkLen: w.bulkLen}, n)
}

// post advertises the call's bulk regions for direct placement and sends
// its header message.
func (c *RDMAClient) post(cl *call) {
	req := cl.req
	w := &rdmaWire{
		xid: cl.xid, proc: req.Proc, meta: req.Meta,
		readLen: req.readCap(), wlen: req.writeLen(),
	}
	if w.readLen > 0 {
		if req.ReadBuf != nil {
			w.readRegion = c.node.HCA.BufferMR(req.ReadBuf)
		} else {
			w.readRegion = c.node.HCA.VirtualMR(req.ReadLen)
		}
		w.readMR = &w.readRegion
	}
	if w.wlen > 0 {
		if req.WriteBulk != nil {
			w.writeRegion = c.node.HCA.BufferMR(req.WriteBulk)
		} else {
			w.writeRegion = c.node.HCA.VirtualMR(req.WriteLen)
		}
		w.writeMR = &w.writeRegion
	}
	c.qp.PostSend(ib.SendWR{Op: ib.OpSend, Len: CtrlWire(len(req.Meta)), Meta: w})
}
