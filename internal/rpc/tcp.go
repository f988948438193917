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
// connection reset underneath the writer; an empty part writes nothing.
func writeFrame(p *sim.Proc, conn *tcpsim.Conn, f *frame) error {
	if err := conn.Write(p, marshalHeader(f.xid, f.proc, len(f.meta), f.bulkLen, f.readLen)); err != nil {
		return err
	}
	if err := conn.Write(p, f.meta); err != nil {
		return err
	}
	if f.bulk != nil {
		return conn.Write(p, f.bulk)
	}
	return conn.WriteSynthetic(p, f.bulkLen)
}

// frameReader reassembles frames from a connection's byte stream as a chain
// of reads — header, metadata, bulk — each issued from the previous one's
// callback, so a frame is delivered in the dispatch that completed it and no
// process waits on the socket. A frame's metadata is its own (it outlives
// the next frame); inline bulk is bytes only if the sender supplied bytes —
// a synthetic one arrives as bulkLen alone.
type frameReader struct {
	conn    *tcpsim.Conn
	hdr     [headerBytes]byte
	f       frame
	part    int // the pending read's: 0 header, 1 metadata, 2 bulk
	deliver func(frame)
	fail    func(error)
	next    func([]byte, error) // read, bound once
}

// readFrames delivers every whole frame that arrives on conn, in order,
// until the connection fails; then it calls fail once with the error.
func readFrames(conn *tcpsim.Conn, deliver func(frame), fail func(error)) {
	r := &frameReader{conn: conn, deliver: deliver, fail: fail}
	r.next = r.read
	conn.ReadFunc(r.hdr[:], headerBytes, r.next)
}

func (r *frameReader) read(b []byte, err error) {
	if err != nil {
		r.fail(err)
		return
	}
	switch r.part = (r.part + 1) % 3; r.part {
	case 1: // the header arrived
		var metaLen int
		r.f.xid, r.f.proc, metaLen, r.f.bulkLen, r.f.readLen = unmarshalHeader(r.hdr[:])
		r.f.meta = make([]byte, metaLen)
		r.conn.ReadFunc(r.f.meta, metaLen, r.next)
	case 2: // the metadata; no bulk reads inline as nil
		r.conn.ReadFunc(nil, r.f.bulkLen, r.next)
	default: // the bulk: the frame is whole
		r.f.bulk = b
		r.deliver(r.f)
		r.conn.ReadFunc(r.hdr[:], headerBytes, r.next)
	}
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
	readFrames(conn, c.reply, c.fail)
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

// reply demultiplexes a reply frame by XID, landing inline bulk in the
// caller's buffer: copied when the server sent bytes, zeroes when it sent a
// length.
func (c *TCPClient) reply(f frame) {
	cl := c.take(f.xid)
	if cl == nil {
		return
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

// ServeTCP starts an RPC server on the stack at the given port. It
// dispatches each call to the handler in its own process (an nfsd thread),
// bounded by a pool of the given number of threads. Replies are framed by a
// per-connection writer so concurrent handlers never interleave bytes on
// the stream.
func ServeTCP(stack *tcpsim.Stack, port int, threads int, h Handler) {
	env := stack.Env()
	pool := sim.NewResource(env, threads)
	ln := stack.Listen(port)
	env.Go("rpc-tcp-accept", func(p *sim.Proc) {
		for {
			if conn, err := ln.Accept(p); err == nil { // else stillborn; keep serving
				serveConn(conn, pool, h)
			}
		}
	})
}

func serveConn(conn *tcpsim.Conn, pool *sim.Resource, h Handler) {
	env := conn.Stack().Env()
	replies := sim.NewQueue[*frame](env, 0)
	// Reply writer: serializes reply frames. A dead connection ends the
	// writer; in-flight handler results are dropped, as a real server's
	// would be once the socket errors.
	env.Go("rpc-tcp-replier", func(p *sim.Proc) {
		for writeFrame(p, conn, replies.Get(p)) == nil {
		}
	})
	// Calls are read off the stream as they complete; a dead connection
	// ends the reading, and calls already dispatched finish unanswered.
	readFrames(conn, func(f frame) {
		req := &Request{Proc: f.proc, Meta: f.meta, WriteBulk: f.bulk, ReadLen: f.readLen}
		if f.bulk == nil {
			req.WriteLen = f.bulkLen
		}
		xid := f.xid // the handler outlives this frame; keep it off the heap
		env.Go("rpc-tcp-handler", func(ph *sim.Proc) {
			pool.Acquire(ph)
			defer pool.Release()
			reply := h(ph, req)
			replies.TryPut(&frame{xid: xid, proc: req.Proc, meta: reply.Meta,
				bulk: reply.Bulk, bulkLen: reply.bulkLen()})
		})
	}, func(error) {})
}
