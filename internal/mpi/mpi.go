// Package mpi implements an MPI-like message passing library over the
// simulated InfiniBand verbs layer, modeled on MVAPICH2 (the library the
// paper evaluates). It provides:
//
//   - Point-to-point messaging with the two-protocol design whose WAN
//     behaviour the paper studies: an eager protocol (one-way, buffered,
//     copy at both ends) for small messages and a rendezvous protocol
//     (RTS/CTS handshake + zero-copy RDMA write) for large ones, switched
//     at a tunable threshold (paper §3.4, Figs. 8-9).
//   - Collectives, including a flat binomial broadcast and the paper's
//     WAN-aware hierarchical broadcast that crosses the WAN link exactly
//     once (Fig. 11).
//   - OSU-microbenchmark-style measurement loops (latency, bandwidth,
//     bidirectional bandwidth, multi-pair message rate, broadcast).
//
// Ranks run as simulation processes, the only threads of control: each
// rank's progress engine is the completion handler of the rank's completion
// queue, advancing per-request state from completion events (the CH3 design
// of MPICH2 over InfiniBand). Reliable-connected QPs are created lazily per
// peer.
package mpi

import (
	"fmt"
	"sync/atomic"

	"repro/internal/cluster"
	"repro/internal/ib"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Tag matching wildcards.
const (
	AnySource = -1
	AnyTag    = -1
)

// CtrlBytes is the wire size of MPI protocol headers (eager header, RTS,
// CTS, FIN control messages).
const CtrlBytes = 48

// Shared-memory path constants for ranks co-located on a node.
const (
	ShmLatency      = 400 * sim.Nanosecond
	ShmPerByteNanos = 0.25
)

// Config tunes the library; zero values select MVAPICH2-like defaults.
type Config struct {
	// EagerThreshold is the largest message sent eagerly; larger messages
	// use rendezvous. Default 8 KB ("by default above 8KB for MVAPICH2").
	EagerThreshold int
}

// DefaultEagerThreshold is the MVAPICH2 default rendezvous switch point.
const DefaultEagerThreshold = 8 << 10

// Per-connection constants.
const (
	// qpWindow is the per-QP bound on in-flight messages (ib MaxInflight).
	qpWindow = ib.DefaultMaxInflight
	// copyPerByteNanos is the eager-protocol copy cost per byte charged at
	// each end (bounce-buffer memcpy): 0.4 ns/B, ~2.5 GB/s.
	copyPerByteNanos = 0.4
	// recvPool is the number of preposted receives per QP. In-flight
	// messages per QP are bounded by qpWindow (excess sends are
	// RNR-buffered), so a modest pool suffices even for large worlds with
	// thousands of QPs.
	recvPool = 32
)

func (c *Config) fill() {
	if c.EagerThreshold == 0 {
		c.EagerThreshold = DefaultEagerThreshold
	}
}

// World is an MPI communicator spanning a set of ranks placed on cluster
// nodes.
type World struct {
	env     *sim.Env
	cfg     Config
	ranks   []*Rank
	profile census
	// obs is non-nil only when telemetry is attached to the environment.
	obs *mpiObs
}

// mpiObs caches the library's telemetry handles: protocol-phase spans and
// the rendezvous/eager counters and latency histograms the paper's §3.4
// analysis needs.
type mpiObs struct {
	rec       *telemetry.Recorder
	eagerMsgs *telemetry.Counter
	rndvMsgs  *telemetry.Counter
	msgBytes  *telemetry.HiResHistogram
	handshake *telemetry.HiResHistogram // RTS -> CTS round trip, ns
}

// MessageProfile is the world's send-side message-size census — the
// profiling the paper performs in §3.5 to explain NAS delay tolerance
// ("IS and FT involve a high percentage of large messages while CG has a
// high percentage of small and medium messages").
type MessageProfile struct {
	Msgs       int64
	Bytes      int64
	TinyMsgs   int64 // < 1 KB (latency-bound control and reductions)
	LargeBytes int64 // volume in messages >= 32 KB
	MaxMessage int
}

// census is the world's internal message counter set. Ranks on a
// partitioned world record sends concurrently from different shards, so
// every field is atomic; Profile assembles the public snapshot.
type census struct {
	msgs       atomic.Int64
	bytes      atomic.Int64
	tinyMsgs   atomic.Int64
	largeBytes atomic.Int64
	maxMsg     atomic.Int64
}

func (c *census) record(size int) {
	c.msgs.Add(1)
	c.bytes.Add(int64(size))
	if size < 1<<10 {
		c.tinyMsgs.Add(1)
	}
	if size >= 32<<10 {
		c.largeBytes.Add(int64(size))
	}
	for {
		cur := c.maxMsg.Load()
		if int64(size) <= cur || c.maxMsg.CompareAndSwap(cur, int64(size)) {
			return
		}
	}
}

// LargeVolumeFraction is the fraction of traffic volume carried in
// messages of at least 32 KB.
func (mp MessageProfile) LargeVolumeFraction() float64 {
	if mp.Bytes == 0 {
		return 0
	}
	return float64(mp.LargeBytes) / float64(mp.Bytes)
}

// TinyCountFraction is the fraction of messages under 1 KB.
func (mp MessageProfile) TinyCountFraction() float64 {
	if mp.Msgs == 0 {
		return 0
	}
	return float64(mp.TinyMsgs) / float64(mp.Msgs)
}

// Profile returns the accumulated message census.
func (w *World) Profile() MessageProfile {
	return MessageProfile{
		Msgs:       w.profile.msgs.Load(),
		Bytes:      w.profile.bytes.Load(),
		TinyMsgs:   w.profile.tinyMsgs.Load(),
		LargeBytes: w.profile.largeBytes.Load(),
		MaxMessage: int(w.profile.maxMsg.Load()),
	}
}

// NewWorld creates a world with one rank per entry of placement (rank i
// runs on placement[i]). Multiple ranks may share a node; they communicate
// through the shared-memory path.
func NewWorld(env *sim.Env, placement []*cluster.Node, cfg Config) *World {
	cfg.fill()
	w := &World{env: env, cfg: cfg}
	if tel := telemetry.FromEnv(env); tel != nil && (tel.Metrics != nil || tel.Spans != nil) {
		m := tel.Metrics
		w.obs = &mpiObs{
			rec:       tel.Spans,
			eagerMsgs: m.Counter("mpi.eager.msgs"),
			rndvMsgs:  m.Counter("mpi.rndv.msgs"),
			msgBytes:  m.HiRes("mpi.msg.bytes"),
			handshake: m.HiRes("mpi.rndv.handshake.ns"),
		}
	}
	for i, node := range placement {
		// The rank's CQ — and everything else it schedules — lives on its
		// node's home environment, which on a partitioned world is the
		// node's site shard.
		home := node.HCA.Env()
		r := &Rank{
			world: w,
			id:    i,
			node:  node,
			cq:    ib.NewCQ(home),
			qps:   make(map[int]*ib.QP),
			byQPN: make(map[int]*ib.QP),
			reqs:  sim.FreeOf(home, (*Request).reset),
			msgs:  sim.FreeOf(home, (*mpiMsg).reset),
		}
		r.copied = func() {
			req, m := r.copyReq, r.copyMsg
			r.copyReq, r.copyMsg = nil, nil // the request may be freed once it lands
			r.deliverEager(req, m)
		}
		r.runShm = r.nextShm
		w.ranks = append(w.ranks, r)
	}
	// QPs between ranks on different environments must exist before the
	// shards start running concurrently: lazy creation would mutate both
	// ranks' maps from whichever shard sends first. On a fabric that can drop
	// packets every pair on different sites is made here, on every world: a
	// drop verdict is keyed by the sending QP's number, which must then be
	// the same on a one-shard world as on one partitioned by site. Other
	// pairs stay lazy (qpTo on first send): creation there is a same-shard
	// operation.
	lossy := len(placement) > 0 && placement[0].HCA.Fabric().Lossy()
	for i, ri := range w.ranks {
		for _, rj := range w.ranks[i+1:] {
			if ri.node.HCA.Env() != rj.node.HCA.Env() || lossy && ri.node.Cluster != rj.node.Cluster {
				ri.qpTo(rj)
			}
		}
	}
	for _, r := range w.ranks {
		r.cq.SetHandler(r.progress)
	}
	return w
}

// BlockPlacement expands a node list with ppn ranks per node, in node
// order — the paper's "block distribution mode of MPI processes".
func BlockPlacement(nodes []*cluster.Node, ppn int) []*cluster.Node {
	var out []*cluster.Node
	for _, n := range nodes {
		for i := 0; i < ppn; i++ {
			out = append(out, n)
		}
	}
	return out
}

// Size returns the number of ranks.
func (w *World) Size() int { return len(w.ranks) }

// Rank returns the rank handle with the given id.
func (w *World) Rank(i int) *Rank { return w.ranks[i] }

// Env returns the simulation environment.
func (w *World) Env() *sim.Env { return w.env }

// Config returns the world's configuration.
func (w *World) Config() Config { return w.cfg }

// Run spawns one process per rank executing fn (each on its node's home
// environment) and runs the simulation until every rank returns and all
// in-flight protocol activity drains; it then reports the virtual time at
// which the last rank finished. It panics if the simulation drains with
// ranks still blocked (a communication deadlock).
//
// Run drains to quiescence rather than stopping at the instant the last
// rank returns: on a partitioned world there is no global "stop now"
// (shards run ahead of each other within a window), and the shared
// counters below are the only cross-shard state, both atomic. The finish
// time is unaffected — it is latched when the last rank returns, exactly
// the value the old Stop-based path reported.
func (w *World) Run(fn func(r *Rank, p *sim.Proc)) sim.Time {
	var remaining atomic.Int64
	var finish atomic.Int64
	remaining.Store(int64(len(w.ranks)))
	for _, r := range w.ranks {
		r.env().Go(fmt.Sprintf("rank-%d", r.id), func(p *sim.Proc) {
			fn(r, p)
			remaining.Add(-1)
			for {
				cur := finish.Load()
				if int64(p.Now()) <= cur || finish.CompareAndSwap(cur, int64(p.Now())) {
					break
				}
			}
		})
	}
	w.env.Run()
	if n := remaining.Load(); n != 0 {
		panic(fmt.Sprintf("mpi: deadlock — %d ranks still blocked when simulation drained", n))
	}
	return sim.Time(finish.Load())
}

// Shutdown unwinds any rank process still parked (call when done with the
// world).
func (w *World) Shutdown() { w.env.Shutdown() }

// Rank is one MPI process.
type Rank struct {
	world *World
	id    int
	node  *cluster.Node
	cq    *ib.CQ
	qps   map[int]*ib.QP // peer rank -> QP

	// Matching engine state.
	postedRecvs []*Request // Irecv requests not yet matched
	unexpected  []*mpiMsg  // arrived eager messages and RTSs with no matching recv

	// The matched eager arrival whose receive-side copy holds the CQ (one
	// hold is outstanding per CQ), and the function value, made once, that
	// lands it when the copy is done.
	copyReq *Request
	copyMsg *mpiMsg
	copied  func()

	// shm is the rank's pending shared-memory events in the order they run,
	// and runShm, made once, is nextShm: the function every one of them is
	// scheduled as (shmAt).
	shm    []shmItem
	runShm func()

	byQPN map[int]*ib.QP // local QPN -> QP, for receive reposting

	// reqs and msgs are the free requests and eager headers of the rank's
	// home environment, shared by the ranks there. A request is taken by
	// newRequest and freed by Wait, both on the owning rank's environment; a
	// header is taken by Isend there and comes back with Free.Return, so the
	// lists are touched from that environment alone.
	reqs *sim.Free[Request]
	msgs *sim.Free[mpiMsg]

	// collSeq numbers collective calls; collectives must be invoked in
	// the same order on every rank (the MPI rule), which keeps tags
	// aligned.
	collSeq int

	// trees caches the site tree by root site and sites the occupied-site
	// count (0 until counted); both depend only on placement (sitetree.go).
	trees map[string]*siteTree
	sites int

	// Telemetry: the rank's trace track (lazily created) and the span of
	// the collective currently executing on this rank, which point-to-point
	// sends parent under.
	track    telemetry.TrackID
	trackSet bool
	collSpan telemetry.SpanRef
}

// obsTrack returns (lazily creating) the rank's trace track. Only called
// when span recording is enabled.
func (r *Rank) obsTrack() telemetry.TrackID {
	if !r.trackSet {
		r.track = r.world.obs.rec.Track(r.node.Name, fmt.Sprintf("mpi-rank-%d", r.id))
		r.trackSet = true
	}
	return r.track
}

// beginColl opens a collective-phase span on the rank and installs it as
// the parent for the collective's point-to-point traffic. It returns a
// closer (nil when observation is off); use with endColl:
//
//	defer endColl(r.beginColl("coll.bcast"))
func (r *Rank) beginColl(name string) func() {
	obs := r.world.obs
	if obs == nil || obs.rec == nil {
		return nil
	}
	prev := r.collSpan
	r.collSpan = obs.rec.StartAt(r.env().Now(), r.obsTrack(), name, prev)
	return func() {
		obs.rec.EndAt(r.env().Now(), r.collSpan)
		r.collSpan = prev
	}
}

func endColl(f func()) {
	if f != nil {
		f()
	}
}

// env returns the rank's home environment — its node's HCA environment,
// which on a partitioned world is the shard view for the node's site. All
// of a rank's timers, processes, and events run here; cross-shard work
// reaches a rank only through wire delivery on the verbs layer.
func (r *Rank) env() *sim.Env { return r.node.HCA.Env() }

// ID returns the rank number.
func (r *Rank) ID() int { return r.id }

// Node returns the node the rank runs on.
func (r *Rank) Node() *cluster.Node { return r.node }

// Size returns the world size.
func (r *Rank) Size() int { return len(r.world.ranks) }

// World returns the owning world.
func (r *Rank) World() *World { return r.world }

// Cluster returns the rank's cluster label ("A" or "B").
func (r *Rank) Cluster() string { return r.node.Cluster }

// qpTo returns (creating lazily) the RC QP toward the peer rank.
func (r *Rank) qpTo(peer *Rank) *ib.QP {
	if qp, ok := r.qps[peer.id]; ok {
		return qp
	}
	cfg := ib.QPConfig{MaxInflight: qpWindow}
	local, remote := ib.CreateRCPair(r.node.HCA, peer.node.HCA, r.cq, peer.cq, cfg)
	r.qps[peer.id] = local
	peer.qps[r.id] = remote
	for i := 0; i < recvPool; i++ {
		local.PostRecv(ib.RecvWR{})
		remote.PostRecv(ib.RecvWR{})
	}
	r.byQPN[local.QPN()] = local
	peer.byQPN[remote.QPN()] = remote
	return local
}
