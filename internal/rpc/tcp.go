package rpc

import (
	"repro/internal/ib"
	"repro/internal/sim"
	"repro/internal/tcpsim"
)

// frame is one RPC message on the socket, either direction: the fixed
// header, the op's metadata, then bulk data inline — real bytes in bulk, or
// bulkLen synthetic ones when bulk is nil.
type frame struct {
	xid     uint64
	proc    uint32
	meta    []byte
	bulk    []byte
	bulkLen int
	readLen int // request only: the reply bulk the caller has room for
}

// writeFrame serializes one frame onto the connection. An error means the
// connection reset underneath the writer.
func writeFrame(p *sim.Proc, conn *tcpsim.Conn, f *frame) error {
	if err := conn.Write(p, marshalHeader(f.xid, f.proc, len(f.meta), f.bulkLen, f.readLen)); err != nil {
		return err
	}
	if len(f.meta) > 0 {
		if err := conn.Write(p, f.meta); err != nil {
			return err
		}
	}
	if f.bulk != nil {
		return conn.Write(p, f.bulk)
	}
	if f.bulkLen > 0 {
		return conn.WriteSynthetic(p, f.bulkLen)
	}
	return nil
}

// readFrame blocks until the next whole frame has arrived. The fixed header
// is decoded in hdr, the reader's scratch; the metadata is the frame's own
// (it outlives the next read); inline bulk is bytes only if the sender
// supplied bytes — a synthetic one arrives as bulkLen alone.
func readFrame(p *sim.Proc, conn *tcpsim.Conn, hdr *[headerBytes]byte) (f frame, err error) {
	if err = conn.ReadInto(p, hdr[:]); err != nil {
		return f, err
	}
	var metaLen int
	f.xid, f.proc, metaLen, f.bulkLen, f.readLen = unmarshalHeader(hdr[:])
	f.meta = make([]byte, metaLen)
	if err = conn.ReadInto(p, f.meta); err != nil {
		return f, err
	}
	if f.bulkLen > 0 {
		f.bulk, err = conn.ReadFull(p, f.bulkLen)
	}
	return f, err
}

// TCPClient multiplexes RPC calls over one TCP connection (as the Linux
// NFS client does per mount: all threads share the transport, which is why
// "streams" scale concurrency but share one TCP window).
type TCPClient struct {
	core
	conn   *tcpsim.Conn
	writeQ *sim.Queue[*call]
}

// NewTCPClient connects to the RPC server at (addr, port) over the stack.
// Under fault injection the dial itself can fail (handshake retry budget
// exhausted).
func NewTCPClient(p *sim.Proc, stack *tcpsim.Stack, addr ib.LID, port int) (*TCPClient, error) {
	conn, err := stack.Dial(p, addr, port)
	if err != nil {
		return nil, err
	}
	env := stack.Env()
	c := &TCPClient{conn: conn, writeQ: sim.NewQueue[*call](env, 0)}
	c.core = newCore(env, func(cl *call) { c.writeQ.TryPut(cl) })
	env.Go("rpc-tcp-writer", c.writer)
	env.Go("rpc-tcp-reader", c.reader)
	return c, nil
}

// writer serializes request frames onto the shared connection. A write
// error means the connection reset: the transport is dead and the writer
// exits.
func (c *TCPClient) writer(p *sim.Proc) {
	for {
		cl := c.writeQ.Get(p)
		req := cl.req
		err := writeFrame(p, c.conn, &frame{xid: cl.xid, proc: req.Proc, meta: req.Meta,
			bulk: req.WriteBulk, bulkLen: req.writeLen(), readLen: req.readCap()})
		if err != nil {
			c.fail(err)
			return
		}
	}
}

// reader demultiplexes replies by XID, landing inline bulk in the caller's
// buffer: copied when the server sent bytes, zeroes when it sent a length.
func (c *TCPClient) reader(p *sim.Proc) {
	var hdr [headerBytes]byte
	for {
		f, err := readFrame(p, c.conn, &hdr)
		if err != nil {
			c.fail(err)
			return
		}
		cl := c.take(f.xid)
		if cl == nil {
			continue
		}
		n := f.bulkLen
		if buf := cl.req.ReadBuf; n > 0 && buf != nil {
			n = min(n, len(buf))
			if f.bulk != nil {
				copy(buf, f.bulk)
			} else {
				clear(buf[:n])
			}
		}
		cl.resolve(&Reply{Meta: f.meta, BulkLen: f.bulkLen}, n)
	}
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
	replies := sim.NewQueue[*frame](env, 0)
	// Reply writer: serializes reply frames. A dead connection ends the
	// writer; in-flight handler results are dropped, as a real server's
	// would be once the socket errors.
	env.Go("rpc-tcp-replier", func(p *sim.Proc) {
		for writeFrame(p, conn, replies.Get(p)) == nil {
		}
	})
	env.Go("rpc-tcp-serve", func(p *sim.Proc) {
		var hdr [headerBytes]byte
		for {
			f, err := readFrame(p, conn, &hdr)
			if err != nil {
				return
			}
			req := &Request{Proc: f.proc, Meta: f.meta, WriteBulk: f.bulk, ReadLen: f.readLen}
			if f.bulk == nil {
				req.WriteLen = f.bulkLen
			}
			xid := f.xid // the handler outlives this frame; keep it off the heap
			env.Go("rpc-tcp-handler", func(ph *sim.Proc) {
				s.threads.Acquire(ph)
				defer s.threads.Release()
				reply := s.handler(ph, req)
				replies.TryPut(&frame{xid: xid, proc: req.Proc, meta: reply.Meta,
					bulk: reply.Bulk, bulkLen: reply.bulkLen()})
			})
		}
	})
}
