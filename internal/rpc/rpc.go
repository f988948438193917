// Package rpc implements the ONC-RPC-style remote procedure layer NFS runs
// on, with the two transports the paper compares (§2.3, §3.6):
//
//   - TCP transport: requests and replies are framed onto a TCP/IPoIB
//     connection; bulk data travels inline through the socket, paying the
//     full stack processing and copy costs.
//   - RDMA transport: requests and replies are small verbs sends, while
//     bulk data moves by direct data placement — the server RDMA-writes
//     read data into client-advertised regions (and RDMA-reads write
//     data), fragmented into 4 KB chunks as in the NFS/RDMA design the
//     paper builds on ("the data is fragmented into 4K packets").
//
// Both transports support multiple outstanding calls (XID matching), which
// is how a multi-threaded IOzone client scales throughput with streams, and
// both receive in handlers, not processes: RDMA in its CQ handler, TCP in a
// chain of tcpsim.Conn.ReadFunc callbacks that reassembles frames. A server
// serves its calls as nfsd does, from a fixed pool of at most threads
// handler processes (nfsd threads) fed by a FIFO backlog (see threadPool).
// Everything one call needs on either side — request, reply, header,
// metadata, wire regions, fragment group — lives in one Call record from
// its environment's freelist, so a warm call allocates nothing of its own.
package rpc

import (
	"encoding/binary"

	"repro/internal/ib"
	"repro/internal/sim"
)

// Fragment is the RDMA direct-data-placement chunk size.
const Fragment = 4096

// headerBytes is the fixed RPC frame header: xid, proc, metaLen, bulkLen,
// readLen.
const headerBytes = 8 + 4 + 4 + 4 + 4

// Request is one RPC call.
type Request struct {
	Proc uint32
	Meta []byte // op-specific marshaled header (small, real bytes)
	// Client-to-server bulk (e.g. NFS WRITE data): real bytes, or a
	// synthetic length when WriteBulk is nil.
	WriteBulk []byte
	WriteLen  int
	// Server-to-client bulk (e.g. NFS READ data): landing buffer (real)
	// or synthetic capacity.
	ReadBuf []byte
	ReadLen int
}

func (r *Request) writeLen() int {
	if r.WriteBulk != nil {
		return len(r.WriteBulk)
	}
	return r.WriteLen
}

func (r *Request) readCap() int {
	if r.ReadBuf != nil {
		return len(r.ReadBuf)
	}
	return r.ReadLen
}

// Reply is the server's answer.
type Reply struct {
	Meta []byte
	// Server-to-client bulk: real bytes or synthetic length.
	Bulk    []byte
	BulkLen int
}

func (r *Reply) bulkLen() int {
	if r.Bulk != nil {
		return len(r.Bulk)
	}
	return r.BulkLen
}

// Handler serves one call on one of the server's nfsd threads: it reads req
// and fills reply, whose Meta starts empty on room the call record owns
// (append to it). Both live until the reply has been sent; a handler that
// keeps their bytes longer copies them.
type Handler func(p *sim.Proc, req *Request, reply *Reply)

// Client issues calls over some transport.
type Client interface {
	// NewCall returns an empty call record for proc, from the client's
	// environment's freelist. The caller fills its Req — Req.Meta is empty
	// on room the record owns: append to it — issues it with Do, reads its
	// Reply and then releases it.
	NewCall(proc uint32) *Call
	// Do performs the call, blocking the calling process until the reply
	// (and any bulk data) has arrived in c.Reply. It returns the number of
	// bulk bytes placed into Req.ReadBuf. Under fault injection a call can
	// fail instead, with the transport's terminal error: the connection
	// underneath died (a reset TCP connection, an errored QP). Reply is
	// empty exactly when the error is non-nil.
	Do(p *sim.Proc, c *Call) (int, error)
}

// Call is one RPC's record, on either side of the transport: the client's
// from NewCall to Release, the server's from the call's arrival to its
// reply. On RDMA the record itself is the header message on the wire — the
// client's request record is read by the server, the server's reply record
// by the client — so the regions it advertises ride in it.
type Call struct {
	Req   Request
	Reply Reply

	xid  uint64
	home *sim.Env        // the environment whose freelist the record came from
	free *sim.Free[Call] // that freelist
	done *sim.Event      // client: triggered by the reply or the transport's failure
	n    int             // client: bulk bytes placed into Req.ReadBuf
	err  error           // client: the transport's failure

	// Room the record owns: the request's and the reply's metadata (Meta
	// outgrows it into an array of its own, which leaves with the call), and
	// a frame header.
	reqMeta, replyMeta [metaRoom]byte
	hdr                [headerBytes]byte

	// replies is a TCP server record's connection's reply writer queue.
	replies *sim.Queue[*Call]

	// RDMA. A request advertises the client's regions for direct placement
	// and names the connection's server-side QP; the server's record keeps
	// the request it serves and counts its fragments down on group.
	readRegion, writeRegion ib.MR
	qp                      *ib.QP
	in                      *Call
	group                   fragGroup
}

// metaRoom is the metadata a record holds in place: every NFS request and
// reply but a LOOKUP or CREATE of a long name.
const metaRoom = 32

// newCall returns a record from free, env's list of calls.
func newCall(env *sim.Env, free *sim.Free[Call]) *Call {
	c := free.Get()
	c.home, c.free = env, free
	c.Req.Meta, c.Reply.Meta = c.reqMeta[:0], c.replyMeta[:0]
	return c
}

// Release returns a client's call record home; Req and Reply are gone
// with it. A failed call's record stays out of use until the world ends
// instead: the server may still be reading the request it carried.
func (c *Call) Release() {
	if c.err != nil {
		return
	}
	c.release(c.home)
}

// release sends the record, reset, from env, the environment the last
// reference to it ends on, to its home freelist.
func (c *Call) release(env *sim.Env) {
	c.free.Return(env, c.home, c)
}

// reset is the call list's reset.
func (c *Call) reset() { *c = Call{} }

// callsOf returns env's list of call records, which every client and server
// on env shares.
func callsOf(env *sim.Env) *sim.Free[Call] { return sim.FreeOf(env, (*Call).reset) }

// core is the call handling both client transports share: records, XID
// allocation, the calls outstanding, and failing them all when the
// transport dies. TCPClient and RDMAClient embed it and differ only in how
// a call's bytes move. Multiple processes may call concurrently; replies
// are matched by XID.
type core struct {
	env   *sim.Env
	calls *sim.Free[Call]
	// send puts a registered call on the wire; bound once at construction.
	send    func(*Call)
	nextXID uint64
	// pending holds the outstanding calls in XID order. XIDs are issued
	// consecutively, so a reply finds its call by offset from the head; a
	// settled slot is nil until it reaches the head and is popped.
	pending sim.Ring[*Call]
	// err, once set, is the transport's terminal failure (the TCP
	// connection reset, the RC QP moved to the error state): every pending
	// and future call fails with it.
	err error
}

func newCore(env *sim.Env, send func(*Call)) core {
	return core{env: env, calls: callsOf(env), send: send}
}

// NewCall implements Client.
func (c *core) NewCall(proc uint32) *Call {
	cl := newCall(c.env, c.calls)
	cl.Req.Proc = proc
	return cl
}

// Do implements Client.
func (c *core) Do(p *sim.Proc, cl *Call) (int, error) {
	if c.err != nil {
		return 0, c.err
	}
	c.nextXID++
	cl.xid = c.nextXID
	cl.done = c.env.AcquireEvent()
	c.pending.Push(cl)
	c.send(cl)
	p.Wait(cl.done)
	c.env.ReleaseEvent(cl.done)
	cl.done = nil
	return cl.n, cl.err
}

// find returns the pending call a reply's XID names. It is nil for a
// reply that outlived its call: the transport failed, and fail already
// answered everything pending.
func (c *core) find(xid uint64) *Call {
	if c.pending.Len() == 0 {
		return nil
	}
	head := (*c.pending.Front()).xid
	if xid < head || xid-head >= uint64(c.pending.Len()) {
		return nil
	}
	return *c.pending.At(int(xid - head))
}

// settle takes an answered call out of the pending ones.
func (c *core) settle(cl *Call) {
	*c.pending.At(int(cl.xid - (*c.pending.Front()).xid)) = nil
	for c.pending.Len() > 0 && *c.pending.Front() == nil {
		c.pending.Pop()
	}
}

// resolve completes the call with its reply and wakes the caller.
func (cl *Call) resolve(bulkLen, n int) {
	cl.Reply.BulkLen, cl.n = bulkLen, n
	cl.done.Trigger(nil)
}

// fail marks the transport dead with its first error and fails every
// pending call, in XID order.
func (c *core) fail(err error) {
	if c.err != nil {
		return
	}
	c.err = err
	for c.pending.Len() > 0 {
		if cl := c.pending.Pop(); cl != nil {
			cl.err = err
			cl.Reply.Meta = cl.Reply.Meta[:0] // a reply frame may have been landing
			cl.done.Trigger(nil)
		}
	}
}

// putHeader/unmarshalHeader frame the fixed fields.
func putHeader(b *[headerBytes]byte, xid uint64, proc uint32, metaLen, bulkLen, readLen int) {
	binary.LittleEndian.PutUint64(b[0:], xid)
	binary.LittleEndian.PutUint32(b[8:], proc)
	binary.LittleEndian.PutUint32(b[12:], uint32(metaLen))
	binary.LittleEndian.PutUint32(b[16:], uint32(bulkLen))
	binary.LittleEndian.PutUint32(b[20:], uint32(readLen))
}

func unmarshalHeader(b []byte) (xid uint64, proc uint32, metaLen, bulkLen, readLen int) {
	xid = binary.LittleEndian.Uint64(b[0:])
	proc = binary.LittleEndian.Uint32(b[8:])
	metaLen = int(binary.LittleEndian.Uint32(b[12:]))
	bulkLen = int(binary.LittleEndian.Uint32(b[16:]))
	readLen = int(binary.LittleEndian.Uint32(b[20:]))
	return
}

// sized returns n bytes of room: b's array when it is large enough.
func sized(b []byte, n int) []byte {
	if cap(b) < n {
		return make([]byte, n)
	}
	return b[:n]
}
