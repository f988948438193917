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

// RDMAClient is the NFS/RDMA client transport: one RC connection to the
// server, small sends for headers, direct data placement for bulk.
type RDMAClient struct {
	core
	node   *cluster.Node
	qp     *ib.QP
	remote *ib.QP // the connection's server-side QP, which each request names
}

// RDMAServer is the server side of the RDMA transport.
type RDMAServer struct {
	env     *sim.Env
	node    *cluster.Node
	handler Handler
	calls   *sim.Free[Call]
	pool    *threadPool
	// issueCtx serializes fragment preparation (the server data path).
	issueCtx *sim.Resource
	cq       *ib.CQ
}

// ServeRDMA starts an RPC-over-RDMA server on the node, its calls served by
// a pool of the given number of nfsd threads (see threadPool).
func ServeRDMA(node *cluster.Node, threads int, h Handler) *RDMAServer {
	env := node.HCA.Env()
	s := &RDMAServer{
		env:      env,
		node:     node,
		handler:  h,
		calls:    callsOf(env),
		issueCtx: sim.NewResource(env, 1),
		cq:       ib.NewCQ(env),
	}
	s.pool = newThreadPool(env, "rpc-rdma-nfsd", threads, s.serve)
	s.cq.SetHandler(s.complete)
	return s
}

// complete is the server's single CQ consumer: it hands inbound calls to the
// thread pool and counts fragment completions down on their groups.
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
		in := c.Meta.(*Call)
		in.qp.PostRecv(ib.RecvWR{})
		sc := newCall(s.env, s.calls)
		sc.in, sc.xid = in, in.xid
		s.pool.dispatch(sc)
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

// fragGroup tracks a batch of outstanding direct-placement fragments; it
// rides in the call record that issues them.
type fragGroup struct {
	remaining int
	done      *sim.Event
}

// fragments posts n bytes as Fragment-sized direct-placement operations, each
// prepared on the issue context, and waits until all of them completed. post
// issues the fragment at off of length k.
func (s *RDMAServer) fragments(p *sim.Proc, g *fragGroup, n int, post func(off, k int)) {
	g.remaining, g.done = (n+Fragment-1)/Fragment, s.env.AcquireEvent()
	for off := 0; off < n; off += Fragment {
		s.issueCtx.Use(p, FragmentIssueCPU)
		post(off, min(Fragment, n-off))
	}
	p.Wait(g.done)
	s.env.ReleaseEvent(g.done)
	g.done = nil
}

// serve runs one call on an nfsd thread: fetch WRITE data by RDMA read,
// invoke the handler, place READ data by fragmented RDMA writes, send the
// reply — the record itself — back on the connection the request named.
func (s *RDMAServer) serve(p *sim.Proc, sc *Call) {
	in := sc.in
	qp := in.qp
	req := &sc.Req
	req.Proc, req.Meta, req.ReadLen = in.Req.Proc, in.Req.Meta, in.Req.readCap()
	// Pull WRITE bulk from the client by RDMA read, fragment by fragment.
	if wlen := in.Req.writeLen(); wlen > 0 {
		var buf []byte
		if in.Req.WriteBulk != nil {
			buf = make([]byte, wlen)
		}
		s.fragments(p, &sc.group, wlen, func(off, n int) {
			var dst []byte
			if buf != nil {
				dst = buf[off : off+n]
			}
			qp.PostSend(ib.SendWR{Op: ib.OpRDMARead, Len: n, LocalBuf: dst,
				RemoteMR: &in.writeRegion, RemoteOff: off, Ctx: &sc.group})
		})
		req.WriteBulk = buf
		if buf == nil {
			req.WriteLen = wlen
		}
	}
	s.handler(p, req, &sc.Reply)
	// Place READ bulk into the client's region, 4 KB fragments.
	if bulkN := sc.Reply.bulkLen(); bulkN > 0 {
		if in.Req.readCap() == 0 {
			panic("rpc: reply bulk without client read region")
		}
		s.fragments(p, &sc.group, bulkN, func(off, n int) {
			var src []byte
			if sc.Reply.Bulk != nil {
				src = sc.Reply.Bulk[off : off+n]
			}
			qp.PostSend(ib.SendWR{Op: ib.OpRDMAWrite, Data: src, Len: n,
				RemoteMR: &in.readRegion, RemoteOff: off, Ctx: &sc.group})
		})
	}
	qp.PostSend(ib.SendWR{Op: ib.OpSend, Len: CtrlWire(len(sc.Reply.Meta)), Meta: sc})
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
	c.qp, c.remote = ib.CreateRCPair(node.HCA, srv.node.HCA, cq, srv.cq,
		ib.QPConfig{MaxInflight: rdmaQPWindow})
	for i := 0; i < 128; i++ {
		c.qp.PostRecv(ib.RecvWR{})
		c.remote.PostRecv(ib.RecvWR{})
	}
	cq.SetHandler(c.complete)
	return c
}

// complete is the client's CQ consumer: it matches replies to pending calls
// and sends each reply record back to the server's environment.
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
	sc := comp.Meta.(*Call)
	if cl := c.find(sc.xid); cl != nil {
		c.settle(cl)
		cl.Reply.Meta = append(cl.Reply.Meta, sc.Reply.Meta...)
		// Bulk was placed directly; a synthetic read reports at most its
		// capacity.
		n := sc.Reply.bulkLen()
		if buf := cl.Req.ReadBuf; buf == nil {
			n = min(n, cl.Req.ReadLen)
		} else if sc.Reply.Bulk == nil {
			clear(buf[:n])
		}
		cl.resolve(sc.Reply.bulkLen(), n)
	}
	sc.release(c.env)
}

// post advertises the call's bulk regions for direct placement and sends
// the record as its header message.
func (c *RDMAClient) post(cl *Call) {
	req := &cl.Req
	cl.qp = c.remote
	if req.readCap() > 0 {
		if req.ReadBuf != nil {
			cl.readRegion = c.node.HCA.BufferMR(req.ReadBuf)
		} else {
			cl.readRegion = c.node.HCA.VirtualMR(req.ReadLen)
		}
	}
	if req.writeLen() > 0 {
		if req.WriteBulk != nil {
			cl.writeRegion = c.node.HCA.BufferMR(req.WriteBulk)
		} else {
			cl.writeRegion = c.node.HCA.VirtualMR(req.WriteLen)
		}
	}
	c.qp.PostSend(ib.SendWR{Op: ib.OpSend, Len: CtrlWire(len(req.Meta)), Meta: cl})
}
