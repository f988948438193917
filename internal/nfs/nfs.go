// Package nfs implements the NFS server and client the paper benchmarks
// (§2.3, §3.6): a single-server, multi-threaded-client file service whose
// RPCs run over either the RDMA transport (NFS/RDMA direct data placement)
// or TCP over IPoIB (NFS/IPoIB), plus an IOzone-style throughput benchmark.
//
// The transport difference the paper measures is modeled explicitly: the
// TCP path touches every byte on the server (socket copies, ~2 ns/B on the
// node CPU) while the RDMA path only references page-cache pages
// (~0.15 ns/B), reflecting "the absence of additional copy overheads and
// lower CPU utilization in the NFS/RDMA design".
package nfs

import (
	"encoding/binary"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/rpc"
	"repro/internal/sim"
)

// NFS procedure numbers (v3-flavoured subset; NULL and GETATTR, procedures
// 0 and 1, are not served).
const (
	ProcLookup uint32 = iota + 2
	ProcRead
	ProcWrite
	ProcCreate
)

// Status codes.
const (
	OK uint32 = iota
	ErrNoEnt
	ErrExist
	ErrIO
)

// Server data-touch costs per byte, charged on the server's serialized
// data context (see Server.ioCtx).
const (
	TCPTouchNanos  = 2.0  // socket copy + checksum path
	RDMATouchNanos = 0.15 // page-cache reference only
	// PerOpCPU is the fixed per-RPC server cost (dispatch, fh lookup,
	// attribute handling).
	PerOpCPU = 15 * sim.Microsecond
)

// DefaultThreads is the nfsd thread-pool size: a server starts at most this
// many handler processes, as concurrent calls need them, and keeps them;
// calls beyond them wait in arrival order.
const DefaultThreads = 32

// File is an in-memory file. Data nil means a synthetic file of Size bytes
// (reads return zeros and writes are accounted but not stored), used by
// the large benchmark files.
type File struct {
	Name string
	FH   uint64
	Data []byte
	Size int64
}

// Server is the NFS server instance bound to a node.
type Server struct {
	node       *cluster.Node
	files      map[string]*File
	byFH       map[uint64]*File
	nextFH     uint64
	touchNanos float64
	ops        int64
	// ioCtx serializes the server's data-touch path (the single
	// copy/checksum context of a 2008-era NFS server). On the TCP
	// transport this is the dominant cost the paper's NFS/RDMA design
	// eliminates; on the RDMA transport the per-byte touch is a page
	// reference and the context is effectively idle.
	ioCtx *sim.Resource
}

// NewServer creates an NFS server on the node; touchNanos is the per-byte
// server data-touch cost for the transport it will serve (TCPTouchNanos or
// RDMATouchNanos).
func NewServer(node *cluster.Node, touchNanos float64) *Server {
	return &Server{
		node:       node,
		files:      make(map[string]*File),
		byFH:       make(map[uint64]*File),
		touchNanos: touchNanos,
		ioCtx:      sim.NewResource(node.HCA.Env(), 1),
	}
}

// Node returns the server's node.
func (s *Server) Node() *cluster.Node { return s.node }

// Ops returns the number of RPCs served.
func (s *Server) Ops() int64 { return s.ops }

// AddFile installs a file with real contents.
func (s *Server) AddFile(name string, data []byte) *File {
	return s.install(&File{Name: name, Data: data, Size: int64(len(data))})
}

// AddSyntheticFile installs a file with a size but no stored bytes.
func (s *Server) AddSyntheticFile(name string, size int64) *File {
	return s.install(&File{Name: name, Size: size})
}

func (s *Server) install(f *File) *File {
	if _, dup := s.files[f.Name]; dup {
		panic(fmt.Sprintf("nfs: file %q exists", f.Name))
	}
	s.nextFH++
	f.FH = s.nextFH
	s.files[f.Name] = f
	s.byFH[f.FH] = f
	return f
}

// Handler returns the rpc.Handler serving this file system. A reply's
// metadata is its status, then on success the operation's results.
func (s *Server) Handler() rpc.Handler {
	return func(p *sim.Proc, req *rpc.Request, reply *rpc.Reply) {
		s.ops++
		s.node.CPU.Use(p, PerOpCPU)
		reply.Meta = append(reply.Meta, 0, 0, 0, 0) // the status, put below
		st := ErrIO
		switch req.Proc {
		case ProcLookup:
			st = s.lookup(req, reply)
		case ProcRead:
			st = s.read(p, req, reply)
		case ProcWrite:
			st = s.write(p, req, reply)
		case ProcCreate:
			st = s.create(req, reply)
		}
		binary.LittleEndian.PutUint32(reply.Meta, st)
	}
}

func (s *Server) lookup(req *rpc.Request, reply *rpc.Reply) uint32 {
	f := s.files[string(req.Meta)]
	if f == nil {
		return ErrNoEnt
	}
	reply.Meta = binary.LittleEndian.AppendUint64(reply.Meta, f.FH)
	reply.Meta = binary.LittleEndian.AppendUint64(reply.Meta, uint64(f.Size))
	return OK
}

func (s *Server) create(req *rpc.Request, reply *rpc.Reply) uint32 {
	name := string(req.Meta[8:])
	size := int64(binary.LittleEndian.Uint64(req.Meta))
	if _, dup := s.files[name]; dup {
		return ErrExist
	}
	var f *File
	if size < 0 {
		f = s.install(&File{Name: name, Data: []byte{}})
	} else {
		f = s.install(&File{Name: name, Size: size})
	}
	reply.Meta = binary.LittleEndian.AppendUint64(reply.Meta, f.FH)
	return OK
}

func (s *Server) read(p *sim.Proc, req *rpc.Request, reply *rpc.Reply) uint32 {
	fh := binary.LittleEndian.Uint64(req.Meta)
	off := int64(binary.LittleEndian.Uint64(req.Meta[8:]))
	count := int(binary.LittleEndian.Uint32(req.Meta[16:]))
	f := s.byFH[fh]
	if f == nil {
		return ErrNoEnt
	}
	if off >= f.Size {
		return OK
	}
	if int64(count) > f.Size-off {
		count = int(f.Size - off)
	}
	// Server-side data touch (copies on the TCP path, page references on
	// the RDMA path), serialized on the server's data context.
	s.ioCtx.Use(p, sim.Time(float64(count)*s.touchNanos))
	if f.Data != nil {
		reply.Bulk = f.Data[off : off+int64(count)]
	} else {
		reply.BulkLen = count
	}
	return OK
}

func (s *Server) write(p *sim.Proc, req *rpc.Request, reply *rpc.Reply) uint32 {
	fh := binary.LittleEndian.Uint64(req.Meta)
	off := int64(binary.LittleEndian.Uint64(req.Meta[8:]))
	f := s.byFH[fh]
	if f == nil {
		return ErrNoEnt
	}
	n := len(req.WriteBulk)
	if req.WriteBulk == nil {
		n = req.WriteLen
	}
	s.ioCtx.Use(p, sim.Time(float64(n)*s.touchNanos))
	need := off + int64(n)
	if f.Data != nil {
		// A file with contents stores what it is sent, on either transport:
		// the bytes of a real write, zeroes for a synthetic one.
		if int64(len(f.Data)) < need {
			f.Data = append(f.Data, make([]byte, need-int64(len(f.Data)))...)
		}
		if req.WriteBulk != nil {
			copy(f.Data[off:], req.WriteBulk)
		} else {
			clear(f.Data[off:need])
		}
	}
	if need > f.Size {
		f.Size = need
	}
	reply.Meta = binary.LittleEndian.AppendUint32(reply.Meta, uint32(n))
	return OK
}
