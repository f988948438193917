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
	"sync"
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
// nodes. It is a record of its environment's list (sim.FreeOf), as its ranks
// are of theirs: a world built on an arena's environment reuses the records,
// and their memory, of the worlds before it there.
type World struct {
	env     *sim.Env
	cfg     Config
	ranks   []*Rank
	profile census
	// obs is non-nil only when telemetry is attached to the environment.
	obs *mpiObs

	// ids is the identity permutation 0..len(ranks)-1 (Bcast's group) and
	// names the ranks' process names; both are made once per record and
	// only ever extended, their entries never change.
	ids   []int
	names []string

	// trees holds the site trees built so far, one per root site, shared
	// read-only by every rank. Ranks on different shards ask concurrently,
	// so the first to ask builds a tree under treeMu (siteTree).
	treeMu sync.Mutex
	trees  []*siteTree

	// The current Run: the ranks' body, how many are still running and the
	// latest time one returned.
	body      func(r *Rank, p *sim.Proc)
	remaining atomic.Int64
	finish    atomic.Int64
}

// reset is the world list's reset: the records keep their memory.
func (w *World) reset() {
	*w = World{ranks: emptied(w.ranks), ids: w.ids, names: w.names, trees: emptied(w.trees)}
}

// emptied returns s cleared to its capacity, at length 0.
func emptied[T any](s []T) []T {
	clear(s[:cap(s)])
	return s[:0]
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
	w := sim.FreeOf(env, (*World).reset).Get()
	w.env, w.cfg = env, cfg
	for len(w.ids) < len(placement) {
		w.ids = append(w.ids, len(w.ids))
		w.names = append(w.names, fmt.Sprintf("rank-%d", len(w.names)))
	}
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
		r := sim.FreeOf(home, (*Rank).reset).Get()
		r.world, r.id, r.node = w, i, node
		r.cq = ib.NewCQ(home)
		r.reqs = sim.FreeOf(home, (*Request).reset)
		r.msgs = sim.FreeOf(home, (*mpiMsg).reset)
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
		r.cq.SetHandler(r.runProgress)
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
	w.body = fn
	w.remaining.Store(int64(len(w.ranks)))
	w.finish.Store(0)
	for _, r := range w.ranks {
		r.env().Go(w.names[r.id], r.run)
	}
	w.env.Run()
	if n := w.remaining.Load(); n != 0 {
		panic(fmt.Sprintf("mpi: deadlock — %d ranks still blocked when simulation drained", n))
	}
	return sim.Time(w.finish.Load())
}

// runRank is rank r's process body in Run.
func (w *World) runRank(r *Rank, p *sim.Proc) {
	w.body(r, p)
	w.remaining.Add(-1)
	for {
		cur := w.finish.Load()
		if int64(p.Now()) <= cur || w.finish.CompareAndSwap(cur, int64(p.Now())) {
			return
		}
	}
}

// Shutdown unwinds any rank process still parked (call when done with the
// world).
func (w *World) Shutdown() { w.env.Shutdown() }

// Rank is one MPI process. It is a record of its home environment's list
// (sim.FreeOf), which Arena.Reclaim takes back reset: a rank keeps only
// memory between worlds — its emptied maps and queues, its collective
// scratch, and the function values it schedules, made once per record.
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

	// runProgress, made once, is progress, the CQ's handler; run is the
	// rank's process body in World.Run.
	runProgress func(ib.Completion)
	run         func(p *sim.Proc)

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

	// Collective scratch, grown to the largest vector seen (coll.go): the
	// accumulator, which is also the result a reduction returns, the
	// encoding of what the rank sends, the landing buffer of what it
	// receives, and the requests of a batch posted at once (AlltoallSynthetic,
	// an OMB window; omb.go).
	acc   []float64
	wire  []byte
	land  []byte
	batch []*Request

	// Telemetry: the rank's trace track (lazily created) and the span of
	// the collective currently executing on this rank, which point-to-point
	// sends parent under.
	track    telemetry.TrackID
	trackSet bool
	collSpan telemetry.SpanRef
}

// reset is the rank list's reset. A fresh record makes its maps and
// function values here; a used one keeps them, and its queues and scratch,
// emptied.
func (r *Rank) reset() {
	if r.qps == nil {
		r.qps, r.byQPN = make(map[int]*ib.QP), make(map[int]*ib.QP)
		r.copied = func() {
			req, m := r.copyReq, r.copyMsg
			r.copyReq, r.copyMsg = nil, nil // the request may be freed once it lands
			r.deliverEager(req, m)
		}
		r.runShm, r.runProgress = r.nextShm, r.progress
		r.run = func(p *sim.Proc) { r.world.runRank(r, p) }
	}
	clear(r.qps)
	clear(r.byQPN)
	*r = Rank{
		qps: r.qps, byQPN: r.byQPN,
		postedRecvs: emptied(r.postedRecvs), unexpected: emptied(r.unexpected), shm: emptied(r.shm),
		copied: r.copied, runShm: r.runShm, runProgress: r.runProgress, run: r.run,
		acc: r.acc[:0], wire: r.wire[:0], land: r.land[:0], batch: emptied(r.batch),
	}
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
