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

// writeFrame serializes one frame onto the connection, its header put in
// hdr. An error means the connection reset underneath the writer; an empty
// part writes nothing. The header and the metadata stay two writes: the
// connection sends what it has as soon as it has it.
func writeFrame(p *sim.Proc, conn *tcpsim.Conn, hdr *[headerBytes]byte, f frame) error {
	putHeader(hdr, f.xid, f.proc, len(f.meta), f.bulkLen, f.readLen)
	if err := conn.Write(p, hdr[:]); err != nil {
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
// process waits on the socket. Where a frame's metadata lands is the
// receiver's choice, made once the header is in (room); inline bulk is bytes
// only if the sender supplied bytes — a synthetic one arrives as bulkLen
// alone.
type frameReader struct {
	conn    *tcpsim.Conn
	hdr     [headerBytes]byte
	f       frame
	part    int // the pending read's: 0 header, 1 metadata, 2 bulk
	room    func(f *frame, n int) []byte
	deliver func(f *frame)
	fail    func(error)
	next    func([]byte, error) // read, bound once
}

// readFrames delivers every whole frame that arrives on conn, in order,
// until the connection fails; then it calls fail once with the error. room
// returns, given a frame whose header is in, the n bytes its metadata lands
// in.
func readFrames(conn *tcpsim.Conn, room func(f *frame, n int) []byte, deliver func(f *frame), fail func(error)) {
	r := &frameReader{conn: conn, room: room, deliver: deliver, fail: fail}
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
		r.f.meta = r.room(&r.f, metaLen)
		r.conn.ReadFunc(r.f.meta, metaLen, r.next)
	case 2: // the metadata; no bulk reads inline as nil
		r.conn.ReadFunc(nil, r.f.bulkLen, r.next)
	default: // the bulk: the frame is whole
		r.f.bulk = b
		r.deliver(&r.f)
		r.conn.ReadFunc(r.hdr[:], headerBytes, r.next)
	}
}

// TCPClient multiplexes RPC calls over one TCP connection (as the Linux
// NFS client does per mount: all threads share the transport, which is why
// "streams" scale concurrency but share one TCP window).
type TCPClient struct {
	core
	conn   *tcpsim.Conn
	writeQ *sim.Queue[*Call]
	// cur is the call whose reply frame is being read, nil if gone.
	cur *Call
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
	c := &TCPClient{conn: conn, writeQ: sim.NewQueue[*Call](env, 0)}
	c.core = newCore(env, func(cl *Call) { c.writeQ.TryPut(cl) })
	env.Go("rpc-tcp-writer", c.writer)
	readFrames(conn, c.room, c.reply, c.fail)
	return c, nil
}

// writer serializes request frames onto the shared connection. A write
// error means the connection reset: the transport is dead and the writer
// exits.
func (c *TCPClient) writer(p *sim.Proc) {
	for {
		cl := c.writeQ.Get(p)
		req := &cl.Req
		err := writeFrame(p, c.conn, &cl.hdr, frame{xid: cl.xid, proc: req.Proc, meta: req.Meta,
			bulk: req.WriteBulk, bulkLen: req.writeLen(), readLen: req.readCap()})
		if err != nil {
			c.fail(err)
			return
		}
	}
}

// room finds the pending call a reply frame answers, by XID, and lands its
// metadata in the call's record.
func (c *TCPClient) room(f *frame, n int) []byte {
	if c.cur = c.find(f.xid); c.cur == nil {
		return make([]byte, n)
	}
	c.cur.Reply.Meta = sized(c.cur.Reply.Meta, n)
	return c.cur.Reply.Meta
}

// reply completes the call a whole reply frame answers, landing inline bulk
// in the caller's buffer: copied when the server sent bytes, zeroes when it
// sent a length.
func (c *TCPClient) reply(f *frame) {
	cl := c.cur
	if c.cur = nil; cl == nil || cl.err != nil { // gone, or failed since its header
		return
	}
	c.settle(cl)
	n := f.bulkLen
	if buf := cl.Req.ReadBuf; n > 0 && buf != nil {
		n = min(n, len(buf))
		if f.bulk != nil {
			copy(buf, f.bulk)
		} else {
			clear(buf[:n])
		}
	}
	cl.resolve(f.bulkLen, n)
}

// ServeTCP starts an RPC server on the stack at the given port. Its calls,
// from every connection, are served by one pool of the given number of
// nfsd threads (see threadPool). Replies are framed by a per-connection
// writer so concurrent handlers never interleave bytes on the stream.
func ServeTCP(stack *tcpsim.Stack, port int, threads int, h Handler) {
	env := stack.Env()
	pool := newThreadPool(env, "rpc-tcp-nfsd", threads, func(p *sim.Proc, c *Call) {
		h(p, &c.Req, &c.Reply)
		c.replies.TryPut(c)
	})
	ln := stack.Listen(port)
	env.Go("rpc-tcp-accept", func(p *sim.Proc) {
		for {
			if conn, err := ln.Accept(p); err == nil { // else stillborn; keep serving
				serveConn(conn, pool)
			}
		}
	})
}

// serveConn reads one connection's calls into records of the server's
// environment and hands them to the pool; a per-connection writer frames
// the replies and sends each record home once its reply is on the stream.
func serveConn(conn *tcpsim.Conn, pool *threadPool) {
	env := conn.Stack().Env()
	calls := callsOf(env)
	replies := sim.NewQueue[*Call](env, 0)
	// A dead connection ends the writer; in-flight handler results are
	// dropped, as a real server's would be once the socket errors.
	env.Go("rpc-tcp-replier", func(p *sim.Proc) {
		for {
			c := replies.Get(p)
			if writeFrame(p, conn, &c.hdr, frame{xid: c.xid, proc: c.Req.Proc, meta: c.Reply.Meta,
				bulk: c.Reply.Bulk, bulkLen: c.Reply.bulkLen()}) != nil {
				return
			}
			c.release(env)
		}
	})
	// Calls are read off the stream as they complete; a dead connection
	// ends the reading, and calls already dispatched finish unanswered.
	var cur *Call
	readFrames(conn, func(f *frame, n int) []byte {
		cur = newCall(env, calls)
		cur.xid, cur.replies = f.xid, replies
		cur.Req.Proc, cur.Req.ReadLen = f.proc, f.readLen
		cur.Req.Meta = sized(cur.Req.Meta, n)
		return cur.Req.Meta
	}, func(f *frame) {
		if cur.Req.WriteBulk = f.bulk; f.bulk == nil {
			cur.Req.WriteLen = f.bulkLen
		}
		pool.dispatch(cur)
	}, func(error) {})
}
