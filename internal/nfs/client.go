package nfs

import (
	"encoding/binary"
	"errors"

	"repro/internal/cluster"
	"repro/internal/rpc"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Client is an NFS client bound to an RPC transport (a mount). Multiple
// simulation processes (IOzone threads) may issue operations concurrently.
type Client struct {
	t rpc.Client
	// env is the client node's home environment. On a partitioned world the
	// workload processes driving this mount must run here: the RPC
	// transport's completion events live on the client node's shard.
	env *sim.Env
	obs *clientObs // non-nil only when telemetry is attached
}

// clientObs caches the mount's telemetry handles: one span track per client
// node plus the RPC call counter and latency histogram.
type clientObs struct {
	env   *sim.Env
	rec   *telemetry.Recorder
	track telemetry.TrackID
	calls *telemetry.Counter
	lat   *telemetry.HiResHistogram
}

// NewClientOn wraps a connected RPC transport from node as an NFS mount.
// When telemetry is attached to the node's environment, RPCs are recorded
// as "nfs.<op>" spans on the client node's track and into the call latency
// histogram.
func NewClientOn(node *cluster.Node, t rpc.Client) *Client {
	env := node.HCA.Env()
	c := &Client{t: t, env: env}
	if tel := telemetry.FromEnv(env); tel != nil && (tel.Metrics != nil || tel.Spans != nil) {
		c.obs = &clientObs{
			env:   env,
			rec:   tel.Spans,
			calls: tel.Metrics.Counter("nfs.rpc.calls"),
			lat:   tel.Metrics.HiRes("nfs.rpc.latency.ns"),
		}
		if tel.Spans != nil {
			c.obs.track = tel.Spans.Track(node.Name, "nfs")
		}
	}
	return c
}

// call runs one RPC through the transport, spanning and timing it when
// observation is on. The transport error is checked before the reply is
// touched: a failed call has no reply metadata.
func (c *Client) call(p *sim.Proc, name string, req *rpc.Request) (*rpc.Reply, int, error) {
	obs := c.obs
	if obs == nil {
		return c.t.Call(p, req)
	}
	start := obs.env.Now()
	var ref telemetry.SpanRef
	if obs.rec != nil {
		ref = obs.rec.StartAt(start, obs.track, name, telemetry.NoSpan)
	}
	reply, n, err := c.t.Call(p, req)
	now := obs.env.Now()
	obs.calls.Add(1)
	obs.lat.Observe(int64(now - start))
	if obs.rec != nil {
		obs.rec.EndAt(now, ref)
	}
	return reply, n, err
}

// Errors returned by client operations.
var (
	ErrNotFound = errors.New("nfs: no such file")
	ErrExists   = errors.New("nfs: file exists")
	ErrServer   = errors.New("nfs: server error")
)

func statusErr(st uint32) error {
	switch st {
	case OK:
		return nil
	case ErrNoEnt:
		return ErrNotFound
	case ErrExist:
		return ErrExists
	default:
		return ErrServer
	}
}

// Lookup resolves a name to a file handle and size.
func (c *Client) Lookup(p *sim.Proc, name string) (uint64, int64, error) {
	reply, _, err := c.call(p, "nfs.lookup", &rpc.Request{Proc: ProcLookup, Meta: []byte(name)})
	if err != nil {
		return 0, 0, err
	}
	st := binary.LittleEndian.Uint32(reply.Meta)
	if err := statusErr(st); err != nil {
		return 0, 0, err
	}
	fh := binary.LittleEndian.Uint64(reply.Meta[4:])
	size := int64(binary.LittleEndian.Uint64(reply.Meta[12:]))
	return fh, size, nil
}

// Create makes a new file: size >= 0 creates a synthetic file of that size;
// size < 0 creates an empty real file for data writes.
func (c *Client) Create(p *sim.Proc, name string, size int64) (uint64, error) {
	meta := make([]byte, 8+len(name))
	binary.LittleEndian.PutUint64(meta, uint64(size))
	copy(meta[8:], name)
	reply, _, err := c.call(p, "nfs.create", &rpc.Request{Proc: ProcCreate, Meta: meta})
	if err != nil {
		return 0, err
	}
	st := binary.LittleEndian.Uint32(reply.Meta)
	if err := statusErr(st); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(reply.Meta[4:]), nil
}

func readMeta(fh uint64, off int64, count int) []byte {
	meta := make([]byte, 8+8+4)
	binary.LittleEndian.PutUint64(meta, fh)
	binary.LittleEndian.PutUint64(meta[8:], uint64(off))
	binary.LittleEndian.PutUint32(meta[16:], uint32(count))
	return meta
}

// Read reads count bytes at off. When buf is non-nil the data lands there
// (real transfer); otherwise the transfer is synthetic. Returns bytes read.
func (c *Client) Read(p *sim.Proc, fh uint64, off int64, count int, buf []byte) (int, error) {
	req := &rpc.Request{Proc: ProcRead, Meta: readMeta(fh, off, count)}
	if buf != nil {
		req.ReadBuf = buf[:count]
	} else {
		req.ReadLen = count
	}
	reply, n, err := c.call(p, "nfs.read", req)
	if err != nil {
		return 0, err
	}
	st := binary.LittleEndian.Uint32(reply.Meta)
	if err := statusErr(st); err != nil {
		return 0, err
	}
	return n, nil
}

// Write writes data (or n synthetic bytes when data is nil) at off.
func (c *Client) Write(p *sim.Proc, fh uint64, off int64, data []byte, n int) (int, error) {
	meta := make([]byte, 8+8)
	binary.LittleEndian.PutUint64(meta, fh)
	binary.LittleEndian.PutUint64(meta[8:], uint64(off))
	req := &rpc.Request{Proc: ProcWrite, Meta: meta}
	if data != nil {
		req.WriteBulk = data
	} else {
		req.WriteLen = n
	}
	reply, _, err := c.call(p, "nfs.write", req)
	if err != nil {
		return 0, err
	}
	st := binary.LittleEndian.Uint32(reply.Meta)
	if err := statusErr(st); err != nil {
		return 0, err
	}
	return int(binary.LittleEndian.Uint32(reply.Meta[4:])), nil
}
