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
// chain of tcpsim.Conn.ReadFunc callbacks that reassembles frames. Each call
// is then served in a handler process, an nfsd thread.
package rpc

import (
	"encoding/binary"
	"sort"

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

// Handler serves one call in its own server process (an nfsd thread).
type Handler func(p *sim.Proc, req *Request) *Reply

// Client issues calls over some transport.
type Client interface {
	// Call performs the RPC, blocking the calling process until the reply
	// (and any bulk data) has arrived. It returns the reply metadata and
	// the number of bulk bytes placed into ReadBuf. Under fault injection
	// a call can fail instead, with the transport's terminal error: the
	// connection underneath died (a reset TCP connection, an errored QP).
	// The reply is nil exactly when the error is non-nil.
	Call(p *sim.Proc, req *Request) (*Reply, int, error)
}

// call is one outstanding RPC.
type call struct {
	xid   uint64
	done  *sim.Event
	req   *Request
	reply *Reply
	bulkN int
	err   error
}

// resolve completes the call with its reply and wakes the caller.
func (cl *call) resolve(reply *Reply, bulkN int) {
	cl.reply, cl.bulkN = reply, bulkN
	cl.done.Trigger(nil)
}

// core is the call handling both transports share: XID allocation, the
// table of outstanding calls, and failing them all when the transport
// dies. TCPClient and RDMAClient embed it and differ only in how a call's
// bytes move. Multiple processes may call concurrently; replies are
// matched by XID.
type core struct {
	env *sim.Env
	// send puts a registered call on the wire; bound once at construction.
	send    func(*call)
	nextXID uint64
	pending map[uint64]*call
	// err, once set, is the transport's terminal failure (the TCP
	// connection reset, the RC QP moved to the error state): every pending
	// and future call fails with it.
	err error
}

func newCore(env *sim.Env, send func(*call)) core {
	return core{env: env, send: send, pending: make(map[uint64]*call)}
}

// Call implements Client.
func (c *core) Call(p *sim.Proc, req *Request) (*Reply, int, error) {
	if c.err != nil {
		return nil, 0, c.err
	}
	c.nextXID++
	cl := &call{xid: c.nextXID, done: c.env.NewEvent(), req: req}
	c.pending[cl.xid] = cl
	c.send(cl)
	p.Wait(cl.done)
	return cl.reply, cl.bulkN, cl.err
}

// take removes and returns the pending call a reply's XID names. It is nil
// for a reply that outlived its call: the transport failed, and fail
// already answered everything pending.
func (c *core) take(xid uint64) *call {
	cl := c.pending[xid]
	delete(c.pending, xid)
	return cl
}

// fail marks the transport dead with its first error and fails every
// pending call, in XID order so faulted output is deterministic regardless
// of map iteration.
func (c *core) fail(err error) {
	if c.err != nil {
		return
	}
	c.err = err
	xids := make([]uint64, 0, len(c.pending))
	for xid := range c.pending {
		xids = append(xids, xid)
	}
	sort.Slice(xids, func(i, j int) bool { return xids[i] < xids[j] })
	for _, xid := range xids {
		cl := c.take(xid)
		cl.err = err
		cl.done.Trigger(nil)
	}
}

// marshalHeader/unmarshalHeader frame the fixed fields.
func marshalHeader(xid uint64, proc uint32, metaLen, bulkLen, readLen int) []byte {
	b := make([]byte, headerBytes)
	binary.LittleEndian.PutUint64(b[0:], xid)
	binary.LittleEndian.PutUint32(b[8:], proc)
	binary.LittleEndian.PutUint32(b[12:], uint32(metaLen))
	binary.LittleEndian.PutUint32(b[16:], uint32(bulkLen))
	binary.LittleEndian.PutUint32(b[20:], uint32(readLen))
	return b
}

func unmarshalHeader(b []byte) (xid uint64, proc uint32, metaLen, bulkLen, readLen int) {
	xid = binary.LittleEndian.Uint64(b[0:])
	proc = binary.LittleEndian.Uint32(b[8:])
	metaLen = int(binary.LittleEndian.Uint32(b[12:]))
	bulkLen = int(binary.LittleEndian.Uint32(b[16:]))
	readLen = int(binary.LittleEndian.Uint32(b[20:]))
	return
}
