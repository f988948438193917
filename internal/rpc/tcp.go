package rpc

import (
	"sort"

	"repro/internal/ib"
	"repro/internal/sim"
	"repro/internal/tcpsim"
)

// TCPClient multiplexes RPC calls over one TCP connection (as the Linux
// NFS client does per mount: all threads share the transport, which is why
// "streams" scale concurrency but share one TCP window).
type TCPClient struct {
	env     *sim.Env
	conn    *tcpsim.Conn
	policy  Policy
	nextXID uint64
	pending map[uint64]*tcpCall
	writeQ  *sim.Queue[*tcpCall]
	// timeouts holds the armed per-attempt reply timeouts: one policy, one
	// length, so they expire in the order armed.
	timeouts sim.Pipe
	// err, once set, is the transport's terminal failure: the connection
	// underneath reset, so every pending and future call fails with it.
	err error
}

type tcpCall struct {
	xid   uint64
	done  *sim.Event
	req   *Request
	reply *Reply
	bulkN int
	err   error
}

// NewTCPClient connects to the RPC server at (addr, port) over the stack.
// Under fault injection the dial itself can fail (handshake retry budget
// exhausted).
func NewTCPClient(p *sim.Proc, stack *tcpsim.Stack, addr ib.LID, port int) (*TCPClient, error) {
	conn, err := stack.Dial(p, addr, port)
	if err != nil {
		return nil, err
	}
	c := &TCPClient{
		env:      stack.Env(),
		conn:     conn,
		pending:  make(map[uint64]*tcpCall),
		writeQ:   sim.NewQueue[*tcpCall](stack.Env(), 0),
		timeouts: stack.Env().NewPipe(),
	}
	// Writer: serializes request framing onto the shared connection. A
	// write error means the connection reset underneath us; the transport
	// is dead and the writer exits.
	c.env.Go("rpc-tcp-writer", func(pw *sim.Proc) {
		for {
			call := c.writeQ.Get(pw)
			req := call.req
			hdr := marshalHeader(call.xid, req.Proc, len(req.Meta), req.writeLen(), req.readCap())
			if err := c.conn.Write(pw, hdr); err != nil {
				c.fail(err)
				return
			}
			if len(req.Meta) > 0 {
				if err := c.conn.Write(pw, req.Meta); err != nil {
					c.fail(err)
					return
				}
			}
			var err error
			if req.WriteBulk != nil {
				err = c.conn.Write(pw, req.WriteBulk)
			} else if req.WriteLen > 0 {
				err = c.conn.WriteSynthetic(pw, req.WriteLen)
			}
			if err != nil {
				c.fail(err)
				return
			}
		}
	})
	// Reader: demultiplexes replies by XID. A reply whose XID is no longer
	// pending (the call already timed out and was retransmitted or failed)
	// is consumed and discarded, as the kernel RPC layer does.
	c.env.Go("rpc-tcp-reader", func(pr *sim.Proc) {
		for {
			hdr, err := c.conn.ReadFull(pr, headerBytes)
			if err != nil {
				c.fail(err)
				return
			}
			xid, _, metaLen, bulkLen, _ := unmarshalHeader(hdr)
			meta, err := c.conn.ReadFull(pr, metaLen)
			if err != nil {
				c.fail(err)
				return
			}
			var bulk []byte
			if bulkLen > 0 {
				if bulk, err = c.conn.ReadFull(pr, bulkLen); err != nil {
					c.fail(err)
					return
				}
			}
			call := c.pending[xid]
			if call == nil {
				continue // late reply for a timed-out call
			}
			delete(c.pending, xid)
			n := 0
			if bulkLen > 0 {
				if call.req.ReadBuf != nil {
					n = copy(call.req.ReadBuf, bulk)
				} else {
					n = bulkLen
				}
			}
			call.reply = &Reply{Meta: meta, BulkLen: bulkLen}
			call.bulkN = n
			call.done.Trigger(nil)
		}
	})
	return c, nil
}

// SetPolicy installs the client's call timeout policy (an NFS mount's
// timeo/retrans options). The zero Policy — the default — arms no timers.
func (c *TCPClient) SetPolicy(pol Policy) { c.policy = pol }

// fail marks the transport dead and fails every pending call, in XID order
// so faulted output is deterministic regardless of map iteration.
func (c *TCPClient) fail(err error) {
	if c.err == nil {
		c.err = err
	}
	xids := make([]uint64, 0, len(c.pending))
	for xid := range c.pending {
		xids = append(xids, xid)
	}
	sort.Slice(xids, func(i, j int) bool { return xids[i] < xids[j] })
	for _, xid := range xids {
		call := c.pending[xid]
		delete(c.pending, xid)
		call.err = c.err
		call.done.Trigger(nil)
	}
}

// armTimeout schedules the per-attempt reply timeout for a call. Each
// expiry either retransmits the request frame (same XID, like ONC RPC) or
// — once a soft policy's budget is spent — fails the call with ErrTimeout.
func (c *TCPClient) armTimeout(call *tcpCall, tries int) {
	c.timeouts.At(c.policy.Timeout, func() {
		if call.done.Triggered() {
			return
		}
		if !c.policy.Hard && tries >= c.policy.Retrans {
			delete(c.pending, call.xid)
			call.err = ErrTimeout
			call.done.Trigger(nil)
			return
		}
		c.writeQ.TryPut(call)
		c.armTimeout(call, tries+1)
	})
}

// Call implements Client. Multiple processes may call concurrently; the
// transport multiplexes by XID.
func (c *TCPClient) Call(p *sim.Proc, req *Request) (*Reply, int, error) {
	if c.err != nil {
		return nil, 0, c.err
	}
	c.nextXID++
	call := &tcpCall{xid: c.nextXID, done: c.env.NewEvent(), req: req}
	c.pending[call.xid] = call
	c.writeQ.TryPut(call)
	if c.policy.Timeout > 0 {
		c.armTimeout(call, 0)
	}
	p.Wait(call.done)
	if call.err != nil {
		return nil, 0, call.err
	}
	return call.reply, call.bulkN, nil
}

// TCPServer accepts RPC connections and dispatches each call to the
// handler in its own process (an nfsd thread), bounded by the thread pool.
// Replies are framed by a per-connection writer so concurrent handlers
// never interleave bytes on the stream.
type TCPServer struct {
	stack   *tcpsim.Stack
	handler Handler
	threads *sim.Resource
}

type tcpReply struct {
	xid   uint64
	proc  uint32
	reply *Reply
}

// ServeTCP starts an RPC server on the stack at the given port with the
// given handler thread-pool size.
func ServeTCP(stack *tcpsim.Stack, port int, threads int, h Handler) *TCPServer {
	s := &TCPServer{stack: stack, handler: h, threads: sim.NewResource(stack.Env(), threads)}
	ln := stack.Listen(port)
	stack.Env().Go("rpc-tcp-accept", func(p *sim.Proc) {
		for {
			conn, err := ln.Accept(p)
			if err != nil {
				continue // stillborn connection; keep serving
			}
			s.serveConn(conn)
		}
	})
	return s
}

func (s *TCPServer) serveConn(conn *tcpsim.Conn) {
	env := s.stack.Env()
	replies := sim.NewQueue[*tcpReply](env, 0)
	// Reply writer: serializes reply frames. A dead connection ends the
	// writer; in-flight handler results are dropped, as a real server's
	// would be once the socket errors.
	env.Go("rpc-tcp-replier", func(p *sim.Proc) {
		for {
			r := replies.Get(p)
			hdr := marshalHeader(r.xid, r.proc, len(r.reply.Meta), r.reply.bulkLen(), 0)
			if err := conn.Write(p, hdr); err != nil {
				return
			}
			if len(r.reply.Meta) > 0 {
				if err := conn.Write(p, r.reply.Meta); err != nil {
					return
				}
			}
			var err error
			if r.reply.Bulk != nil {
				err = conn.Write(p, r.reply.Bulk)
			} else if r.reply.BulkLen > 0 {
				err = conn.WriteSynthetic(p, r.reply.BulkLen)
			}
			if err != nil {
				return
			}
		}
	})
	env.Go("rpc-tcp-serve", func(p *sim.Proc) {
		for {
			hdr, err := conn.ReadFull(p, headerBytes)
			if err != nil {
				return
			}
			xid, proc, metaLen, bulkLen, readLen := unmarshalHeader(hdr)
			meta, err := conn.ReadFull(p, metaLen)
			if err != nil {
				return
			}
			var bulk []byte
			if bulkLen > 0 {
				if bulk, err = conn.ReadFull(p, bulkLen); err != nil {
					return
				}
			}
			req := &Request{Proc: proc, Meta: meta, WriteBulk: bulk, ReadLen: readLen}
			env.Go("rpc-tcp-handler", func(ph *sim.Proc) {
				s.threads.Acquire(ph)
				defer s.threads.Release()
				reply := s.handler(ph, req)
				replies.TryPut(&tcpReply{xid: xid, proc: proc, reply: reply})
			})
		}
	})
}
