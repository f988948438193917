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
// observation is on, and returns the bulk bytes placed and the reply's
// status as an error; the transport's error comes first, a failed call
// having no reply. The caller releases rc after reading its reply.
func (c *Client) call(p *sim.Proc, name string, rc *rpc.Call) (int, error) {
	obs := c.obs
	var start sim.Time
	var ref telemetry.SpanRef
	if obs != nil {
		start = obs.env.Now()
		if obs.rec != nil {
			ref = obs.rec.StartAt(start, obs.track, name, telemetry.NoSpan)
		}
	}
	n, err := c.t.Do(p, rc)
	if obs != nil {
		now := obs.env.Now()
		obs.calls.Add(1)
		obs.lat.Observe(int64(now - start))
		if obs.rec != nil {
			obs.rec.EndAt(now, ref)
		}
	}
	if err == nil {
		err = statusErr(binary.LittleEndian.Uint32(rc.Reply.Meta))
	}
	if err != nil {
		return 0, err
	}
	return n, nil
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
	rc := c.t.NewCall(ProcLookup)
	rc.Req.Meta = append(rc.Req.Meta, name...)
	var fh uint64
	var size int64
	_, err := c.call(p, "nfs.lookup", rc)
	if err == nil {
		fh = binary.LittleEndian.Uint64(rc.Reply.Meta[4:])
		size = int64(binary.LittleEndian.Uint64(rc.Reply.Meta[12:]))
	}
	rc.Release()
	return fh, size, err
}

// Create makes a new file: size >= 0 creates a synthetic file of that size;
// size < 0 creates an empty real file for data writes.
func (c *Client) Create(p *sim.Proc, name string, size int64) (uint64, error) {
	rc := c.t.NewCall(ProcCreate)
	rc.Req.Meta = append(binary.LittleEndian.AppendUint64(rc.Req.Meta, uint64(size)), name...)
	var fh uint64
	_, err := c.call(p, "nfs.create", rc)
	if err == nil {
		fh = binary.LittleEndian.Uint64(rc.Reply.Meta[4:])
	}
	rc.Release()
	return fh, err
}

// Read reads count bytes at off. When buf is non-nil the data lands there
// (real transfer); otherwise the transfer is synthetic. Returns bytes read.
func (c *Client) Read(p *sim.Proc, fh uint64, off int64, count int, buf []byte) (int, error) {
	rc := c.t.NewCall(ProcRead)
	meta := binary.LittleEndian.AppendUint64(rc.Req.Meta, fh)
	meta = binary.LittleEndian.AppendUint64(meta, uint64(off))
	rc.Req.Meta = binary.LittleEndian.AppendUint32(meta, uint32(count))
	if buf != nil {
		rc.Req.ReadBuf = buf[:count]
	} else {
		rc.Req.ReadLen = count
	}
	n, err := c.call(p, "nfs.read", rc)
	rc.Release()
	return n, err
}

// Write writes data (or n synthetic bytes when data is nil) at off.
func (c *Client) Write(p *sim.Proc, fh uint64, off int64, data []byte, n int) (int, error) {
	rc := c.t.NewCall(ProcWrite)
	meta := binary.LittleEndian.AppendUint64(rc.Req.Meta, fh)
	rc.Req.Meta = binary.LittleEndian.AppendUint64(meta, uint64(off))
	if data != nil {
		rc.Req.WriteBulk = data
	} else {
		rc.Req.WriteLen = n
	}
	var written int
	_, err := c.call(p, "nfs.write", rc)
	if err == nil {
		written = int(binary.LittleEndian.Uint32(rc.Reply.Meta[4:]))
	}
	rc.Release()
	return written, err
}
