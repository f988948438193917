package sim

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
)

// Conservative parallel DES: one simulated world split into per-shard event
// heaps and clocks behind the ordinary Env API.
//
// Every environment is a shard of a world: NewEnv makes the one shard of a
// world of its own, and Partition(n) turns an environment into shard 0 of an
// n-shard world and returns n views, one per shard. Each view is a full Env —
// its own heap, clock, sequence counter, processes and event freelist — so
// everything a layer builds on a view (QPs, procs, timers) stays on that
// view's timeline and is touched by exactly one shard worker at a time. The
// only sanctioned crossing point is AtArgOn, which deposits the event into a
// per-(src,dst) mailbox lane instead of the destination heap.
//
// Correctness rests on per-channel conservative bounds (the CMB protocol's
// channel clocks, in the null-message-free synchronous variant). A directed
// channel src→dst with bound b — registered through RegisterLookaheadBetween,
// in this codebase by each WAN link with its one-way propagation delay —
// promises that every cross-shard event deposited while src's clock reads t
// lands at or after t+b. The windowed run loop repeats:
//
//  1. merge every mailbox lane into its destination in deterministic
//     (time, source shard, source sequence) order, stamping fresh local
//     sequence numbers — the merge rule, unchanged from the global-lookahead
//     scheduler. Each lane lands in a Pipe of its own on the destination, so
//     a WAN's worth of packets in flight costs the destination heap one
//     entry per lane, not one per packet; the same pass hands every object
//     on a return lane (ReturnTo) back to its home shard;
//  2. compute each shard's safe horizon from the channel clocks:
//     limit[i] = min over incoming channels k→i of (est[k] + b[k→i]),
//     where est[k] is shard k's earliest conceivable execution time — the
//     shortest-path fixpoint of next[] over the channel bounds (see
//     planWindow), covering chains of deposits through intermediate
//     shards. Shard i may execute every local event with at < limit[i]:
//     nothing can ever arrive below its limit. A shard whose est is far in
//     the future does not constrain its downstream peers, which is the
//     payoff over the global-minimum rule: a short metro link only narrows
//     the windows of shards it can actually reach at that cadence;
//  3. barrier, then repeat until every heap is empty (or Stop).
//
// A one-shard world has no lanes and no channels: its window is RunUntil's
// horizon, or the next sample time when that comes first.
//
// The shard holding the global minimum next-event time always has
// limit > next (every incoming bound is positive), so the loop cannot
// deadlock. Because merge order, per-shard horizons and per-shard execution
// are all pure functions of the simulation state, the executed event
// sequence — and therefore all rendered output — is independent of the
// worker count.
//
// A corollary clients rely on (ib's routing-epoch failover): a global state
// swap scheduled as one event per shard at the same virtual instant T is
// equivalent to a barrier-wide swap at T. Each shard executes its own heap
// in timestamp order, so every shard-local event below T sees the old state
// and every one at or above T the new, exactly as a stop-the-world swap
// would arrange — provided each shard's swap event touches only state read
// by that shard's events, and the swap never shrinks a registered channel
// bound (horizons computed from the old bounds stay conservative).
//
// Mechanically, a window costs no allocations and no locks on the hot path:
// shards are run by a persistent worker pool with a spin-then-park barrier
// (built once per run, not per window), a cross-shard deposit appends to a
// single-producer lane owned by the sending shard (no mutex — the lane is
// only written by that shard's worker during a window and only drained at
// the barrier), and delivery is a k-way merge of the per-source lanes, each
// already in nondecreasing (at, srcSeq) order. A window in which only one
// shard has anything to run — the common case on a lightly coupled world —
// runs on the coordinator without waking the pool at all.
type world struct {
	shards  []*Env
	workers int

	// lookahead is the minimum bound over all registered channels (what
	// Lookahead() reports); bounds[src*n+dst] is the per-channel bound, or
	// noBound where no channel has been registered. nchan counts registered
	// directed channels.
	lookahead Time
	nchan     int
	mailbox

	stopped atomic.Bool

	windows int64 // scheduler windows run so far
	horizon Time  // cumulative safe-horizon advance of the critical shard

	// Marks for TakeWindowStats deltas.
	repWindows int64
	repHorizon Time

	pmu    sync.Mutex
	panics []shardPanic
}

// mailbox is the storage of an n-shard world that depends on n alone, which
// an Arena keeps for the next Partition into as many shards.
type mailbox struct {
	bounds []Time // bounds[src*n+dst]: the channel's bound, noBound where none
	lanes  []lane // lanes[src*n+dst]: single-producer cross-shard deposits
	pipes  []Pipe // pipes[src*n+dst]: lane src→dst's delivered events, on dst

	next   []Time  // per-window scratch: each shard's next-event time
	est    []Time  // per-window scratch: earliest conceivable execution time
	limits []Time  // per-window scratch: each shard's safe horizon
	active []int32 // per-window scratch: shards with runnable work

	repShards []ShardStats // marks for TakeWindowStats deltas
}

// emptied returns m, its arrays kept, with nothing of its world left in it.
func (m mailbox) emptied() mailbox {
	for i := range m.lanes {
		ln := &m.lanes[i]
		clear(ln.entries[:cap(ln.entries)])
		clear(ln.rets[:cap(ln.rets)])
		*ln = lane{entries: ln.entries[:0], rets: ln.rets[:0]}
	}
	clear(m.pipes)
	clear(m.repShards)
	return m
}

// lane collects events crossing one directed (src,dst) shard pair during a
// window. It is written only by shard src's worker (deposits during src's
// window execution, or setup code before the run) and drained
// single-threaded at the barrier, so it needs no lock; the barrier's
// synchronization orders deposits before the drain. The buffer is reused
// across windows. Padded so neighboring lanes don't share a cache line
// under concurrent producers.
type lane struct {
	entries  []xentry
	rets     []returned // objects going home to dst's freelists (ReturnTo)
	head     int        // drain cursor during the k-way merge
	last     Time       // most recent append's at, for the sorted check
	shuffled bool       // entries are out of at order (rare: a delay dropped mid-run)
	_        [56]byte
}

// returned is one object on a return lane: sink(val) puts it back on its
// home shard's freelist at the barrier.
type returned struct {
	sink func(any)
	val  any
}

// xentry is one cross-shard event in flight: an AtArgOn deposit carrying
// its deterministic merge key (at, srcShard, srcSeq).
type xentry struct {
	at       Time
	srcShard int32
	srcSeq   int64
	fnv      func(any)
	val      any
}

// shardPanic records a panic raised while dispatching a shard's window, so
// the barrier can re-raise the earliest one deterministically.
type shardPanic struct {
	at    Time
	shard int32
	val   any
}

const (
	maxTime = Time(1<<62 - 1)
	// noBound marks an unregistered channel; it also serves as "no
	// constraint" in the horizon computation (strictly above any real
	// event time or saturated sum).
	noBound = Time(math.MaxInt64)
)

// satAdd returns a+b saturating at noBound instead of wrapping: horizons
// near maxTime (the default Run horizon, or a huge registered bound) must
// clamp, not go negative and wedge the window loop.
func satAdd(a, b Time) Time {
	if s := a + b; s >= a {
		return s
	}
	return noBound
}

// SetShardWorkers declares how many OS-level workers a later Partition may
// use to run shards concurrently (<= 1 leaves the world sequential even if
// partitioned). It must be called before Partition; the setting is advisory
// until then and harmless on environments that are never partitioned.
func (e *Env) SetShardWorkers(n int) { e.shardWorkers = n }

// ShardWorkers returns the worker count declared by SetShardWorkers.
func (e *Env) ShardWorkers() int { return e.shardWorkers }

// Sharded reports whether the environment belongs to a world of more than
// one shard.
func (e *Env) Sharded() bool { return len(e.world.shards) > 1 }

// soloWorld is the storage of an unpartitioned environment's own one-shard
// world, embedded in the Env so NewEnv allocates nothing for it. Bounds,
// lanes and pipes stay nil: with one shard nothing indexes them.
type soloWorld struct {
	world
	shards            [1]*Env
	next, est, limits [1]Time
	active            [1]int32
}

// init makes s the one-shard world of e and returns it.
func (s *soloWorld) init(e *Env) *world {
	s.shards[0] = e
	w := &s.world
	w.shards, w.next, w.est, w.limits, w.active = s.shards[:], s.next[:], s.est[:], s.limits[:], s.active[:0]
	w.workers, w.lookahead = 1, maxTime
	return w
}

// Partition splits the environment into an n-shard world and returns the
// shard views; view 0 is the receiver itself, views 1..n-1 are fresh
// environments sharing the receiver's telemetry and fault attachments. Work
// already scheduled on the receiver stays on shard 0. The world is inert
// until cross-shard channels are registered (RegisterLookaheadBetween, or
// RegisterLookahead for a uniform bound); Run then executes all shards
// under the conservative window protocol. Partition(1) returns the
// receiver's own one-shard world.
func (e *Env) Partition(n int) []*Env {
	if e.Sharded() {
		panic("sim: Partition on an already partitioned environment")
	}
	if n < 1 {
		panic(fmt.Sprintf("sim: Partition into %d shards", n))
	}
	if n == 1 {
		return e.world.shards
	}
	workers := e.shardWorkers
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	w := &world{workers: workers, lookahead: maxTime, mailbox: e.arena.takeMailbox(n)}
	for i := range w.bounds {
		w.bounds[i] = noBound
	}
	views := make([]*Env, n)
	views[0] = e
	e.world = w
	e.shard = 0
	for i := 1; i < n; i++ {
		v := NewEnv()
		if e.arena != nil {
			e.arena.lend(v, i)
		}
		v.world = w
		v.shard = int32(i)
		v.shardWorkers = e.shardWorkers
		v.tel = e.tel
		v.flt = e.flt
		views[i] = v
	}
	w.shards = views
	for i := range w.pipes {
		w.pipes[i] = views[i%n].NewPipe()
	}
	return views
}

// setBound lowers (or creates) the directed channel bound src→dst.
func (w *world) setBound(src, dst int, d Time) {
	b := &w.bounds[src*len(w.shards)+dst]
	if *b == noBound {
		w.nchan++
		*b = d
	} else if d < *b {
		*b = d
	}
	if d < w.lookahead {
		w.lookahead = d
	}
}

// RegisterLookaheadBetween registers (or lowers) the conservative bound of
// the directed channel from the receiver's shard to the target's shard: the
// caller promises that every AtArgOn deposit on that channel is scheduled
// at least d after the sending shard's current time. WAN links register
// their one-way propagation delay here, one call per direction, so each
// shard's safe horizon is set by its own incoming links rather than the
// global minimum. No-op on an unpartitioned environment or with
// target == receiver; a non-positive bound would make the window protocol
// unsound and panics.
func (e *Env) RegisterLookaheadBetween(target *Env, d Time) {
	if !e.Sharded() {
		return
	}
	w := e.world
	if target == nil || target.world != w {
		panic("sim: RegisterLookaheadBetween across unrelated environments")
	}
	if d <= 0 {
		panic(fmt.Sprintf("sim: non-positive lookahead %v registered on a partitioned world", d))
	}
	if target == e {
		return
	}
	w.setBound(int(e.shard), int(target.shard), d)
}

// RegisterLookahead registers d on every directed shard pair at once: a
// uniform world-wide bound, equivalent to the pre-channel-clock scheduler's
// global lookahead. Kernel tests and baseline comparisons use it; real
// topologies register per-link bounds via RegisterLookaheadBetween and get
// wider windows wherever their delays are heterogeneous. No-op on an
// unpartitioned environment; a non-positive bound panics.
func (e *Env) RegisterLookahead(d Time) {
	if !e.Sharded() {
		return
	}
	w := e.world
	if d <= 0 {
		panic(fmt.Sprintf("sim: non-positive lookahead %v registered on a partitioned world", d))
	}
	n := len(w.shards)
	for s := 0; s < n; s++ {
		for t := 0; t < n; t++ {
			if s != t {
				w.setBound(s, t, d)
			}
		}
	}
}

// Lookahead returns the minimum conservative bound over all registered
// channels, or 0 when the environment is unpartitioned or no channel has
// been registered yet.
func (e *Env) Lookahead() Time {
	if w := e.world; w.lookahead != maxTime {
		return w.lookahead
	}
	return 0
}

// AtArgOn schedules fn(arg) at the given delay from now on the target
// environment. With target == e (or on an unpartitioned world) it is
// exactly AtArg. Across shards of one world it deposits the event into the
// (source,target) mailbox lane; the channel must be registered and the
// delay must honor its bound. The deposit takes no lock: the lane is owned
// by the calling shard until the window barrier.
func (e *Env) AtArgOn(target *Env, delay Time, fn func(any), arg any) {
	if target == e {
		e.AtArg(delay, fn, arg)
		return
	}
	if delay < 0 {
		panic("sim: negative delay")
	}
	w := e.world
	if target.world != w {
		panic("sim: AtArgOn across unrelated environments")
	}
	b := w.bounds[int(e.shard)*len(w.shards)+int(target.shard)]
	if b == noBound {
		panic(fmt.Sprintf("sim: cross-shard event on unregistered channel shard %d -> %d (RegisterLookaheadBetween first)", e.shard, target.shard))
	}
	if delay < b {
		panic(fmt.Sprintf("sim: cross-shard event at +%v violates the channel lookahead bound %v (shard %d -> %d)", delay, b, e.shard, target.shard))
	}
	e.xseq++
	ln := &w.lanes[int(e.shard)*len(w.shards)+int(target.shard)]
	at := e.now + delay
	if at < ln.last && len(ln.entries) > 0 {
		ln.shuffled = true // a shorter delay than the lane's last deposit
	}
	ln.last = at
	ln.entries = append(ln.entries, xentry{
		at: at, srcShard: e.shard, srcSeq: e.xseq, fnv: fn, val: arg,
	})
}

// ReturnTo hands v back to the shard that owns it: sink(v) — typically a
// push onto one of home's freelists — runs at once when home is the calling
// shard (always, on an unpartitioned world), and otherwise at the next window
// barrier, single-threaded, after v has waited on the calling shard's return
// lane toward home. This is what lets layers pool objects that cross a
// mailbox: the shard that consumes one last sends it home instead of keeping
// or sharing it. Returning is not an event — no sequence number, not counted
// by Executed — and the lane takes no lock, exactly like AtArgOn's.
func (e *Env) ReturnTo(home *Env, sink func(any), v any) {
	if home == e {
		sink(v)
		return
	}
	w := e.world
	if home.world != w {
		panic("sim: ReturnTo across unrelated environments")
	}
	ln := &w.lanes[int(e.shard)*len(w.shards)+int(home.shard)]
	ln.rets = append(ln.rets, returned{sink, v})
}

// run is RunUntil: the windowed barrier loop. Sampling state lives on shard
// 0 (the root view — the environment the world was partitioned from, where
// SetSampler is installed): at each barrier, every shard has settled and no
// event below the global next-event time remains, so pending samples
// strictly below it are consistent prefixes and fire here; window horizons
// are clamped to the next sample time (see below) so no shard ever runs
// past a pending sample.
func (w *world) run(horizon Time) Time {
	root := w.shards[0]
	w.stopped.Store(false)
	var p *wpool
	defer func() {
		if p != nil {
			p.stop()
		}
	}()
	for !w.stopped.Load() {
		w.deliverMail()
		next := maxTime
		for i, s := range w.shards {
			t := maxTime
			if !s.queue.empty() {
				t = s.queue.peek().at
			}
			w.next[i] = t
			if t < next {
				next = t
			}
		}
		if next == maxTime {
			break
		}
		if root.sampleFn != nil && root.sampleNext < next {
			// All events <= the pending sample time have executed (the
			// previous window's horizon was clamped to it); events at the
			// new global minimum have not. Fire everything below it, capped
			// at the caller's horizon.
			through := next - 1
			if through > horizon {
				through = horizon
			}
			root.fireSamples(through)
		}
		if next > horizon {
			for _, s := range w.shards {
				if s.now < horizon {
					s.now = horizon
				}
			}
			return horizon
		}
		if w.nchan == 0 && len(w.shards) > 1 {
			panic("sim: partitioned world has pending events but no registered lookahead")
		}
		windowHorizon := horizon
		if root.sampleFn != nil && root.sampleNext < windowHorizon {
			// Clamp the window so no shard executes past the next sample
			// time (events at exactly that time still run — planWindow's
			// cap is horizon+1). sampleNext >= next here, so the window
			// still makes progress.
			windowHorizon = root.sampleNext
		}
		w.planWindow(next, windowHorizon)
		w.windows++
		if w.workers == 1 || len(w.active) == 1 {
			// One shard has work (or one worker runs them all): nothing to
			// overlap, so the window costs no release and no collection.
			w.runShards(0, 1)
		} else {
			if p == nil {
				p = newWPool(w)
			}
			p.window()
		}
		w.raisePanics()
	}
	// Quiescent (or stopped): align every clock to the furthest shard so
	// later activity on any view starts from one well-defined time.
	var maxNow Time
	for _, s := range w.shards {
		if s.now > maxNow {
			maxNow = s.now
		}
	}
	for _, s := range w.shards {
		if s.now < maxNow {
			s.now = maxNow
		}
	}
	if !w.stopped.Load() {
		// Drained: fire samples through the final clock. A Stop leaves the
		// tail unsampled: peers may not have settled, so a post-Stop sample
		// would not be a consistent prefix.
		root.fireSamples(maxNow)
	}
	return maxNow
}

// planWindow computes each shard's safe horizon from its incoming channel
// bounds and partitions the shards into this window's active set (next
// event inside the horizon) and stalls.
//
// The horizon must account for deposit chains, not just direct neighbors:
// a shard that is idle at the barrier can still be woken by a future
// cross-shard deposit and then send onward. So the computation is a
// shortest-path fixpoint — each shard's earliest conceivable execution
// time, seeded by its own heap and relaxed along every channel:
//
//	est[j] = min(next[j], min over channels k->j of est[k] + b[k->j])
//
// (Bellman-Ford; all bounds are positive so it converges in < n passes.)
// By induction over deposit chains, no shard k ever executes anything
// earlier than est[k] from this barrier on — its heap events are >= next[k]
// and any deposit reaching it rode a chain from some heap event through
// positive channel bounds. Then
//
//	limit[i] = min over channels k->i of est[k] + b[k->i]
//
// is a sound horizon for shard i across all future windows: every later
// arrival into i happens at or after it. The shard holding the global
// minimum (est floor) has limit > next because every bound is positive, so
// the window always makes progress. next is the global minimum next-event
// time; the horizon telemetry accumulates how far past it the critical
// shard may run — the wider that margin, the fewer barriers per unit of
// simulated time.
func (w *world) planWindow(next, horizon Time) {
	n := len(w.shards)
	cap := satAdd(horizon, 1) // entries at exactly the horizon still run
	est := w.est
	copy(est, w.next)
	for pass := 1; pass < n; pass++ {
		changed := false
		for j := 0; j < n; j++ {
			for k := 0; k < n; k++ {
				if k == j {
					continue
				}
				b := w.bounds[k*n+j]
				if b == noBound {
					continue // no channel k->j: k cannot send here
				}
				if t := satAdd(est[k], b); t < est[j] {
					est[j] = t
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	w.active = w.active[:0]
	counted := false
	for i := 0; i < n; i++ {
		lim := noBound
		for k := 0; k < n; k++ {
			if k == i {
				continue
			}
			b := w.bounds[k*n+i]
			if b == noBound {
				continue
			}
			if t := satAdd(est[k], b); t < lim {
				lim = t
			}
		}
		if lim > cap {
			lim = cap
		}
		w.limits[i] = lim
		if !counted && w.next[i] == next {
			// The critical shard: its horizon advance is the window's width.
			counted = true
			w.horizon += lim - next
		}
		if w.next[i] < lim {
			w.active = append(w.active, int32(i))
		} else {
			// Nothing runnable inside the horizon: the shard sits out this
			// window waiting for the rest of the world (see TakeWindowStats).
			w.shards[i].windowStalls++
		}
	}
}

// deliverMail merges every destination's incoming lanes in deterministic
// (time, source shard, source sequence) order, stamping fresh destination
// sequence numbers. Each lane is appended in nondecreasing at order by a
// single producer (srcSeq strictly increasing), so delivery is a k-way merge
// across source lanes rather than a sort; a lane that went out of order (a
// link delay lowered mid-run) is stably re-sorted by at first, which
// preserves its srcSeq order. An entry is scheduled through its lane's pipe
// on the destination, which is Env.AtArg in every observable respect — same
// sequence number, same (at, seq) dispatch key — but keeps only the lane's
// earliest undelivered event in the heap. The same pass empties the return
// lanes into their home freelists. Buffers are retained for reuse; entries
// are zeroed so the freelists can reclaim their payloads.
func (w *world) deliverMail() {
	n := len(w.shards)
	for di := 0; di < n; di++ {
		dst := w.shards[di]
		pending := 0
		for j := 0; j < n; j++ {
			if j == di {
				continue
			}
			ln := &w.lanes[j*n+di]
			if len(ln.rets) > 0 {
				for i, r := range ln.rets {
					r.sink(r.val)
					ln.rets[i] = returned{}
				}
				ln.rets = ln.rets[:0]
			}
			if len(ln.entries) == 0 {
				continue
			}
			pending += len(ln.entries)
			if ln.shuffled {
				ents := ln.entries
				sort.SliceStable(ents, func(a, b int) bool { return ents[a].at < ents[b].at })
				ln.shuffled = false
			}
		}
		if pending == 0 {
			continue
		}
		for k := 0; k < pending; k++ {
			best := -1
			var bestAt Time
			for j := 0; j < n; j++ {
				if j == di {
					continue
				}
				ln := &w.lanes[j*n+di]
				if ln.head >= len(ln.entries) {
					continue
				}
				if at := ln.entries[ln.head].at; best < 0 || at < bestAt {
					best, bestAt = j, at
					// Ties break toward the lower source shard: j ascends.
				}
			}
			ln := &w.lanes[best*n+di]
			x := &ln.entries[ln.head]
			ln.head++
			if x.at < dst.now {
				panic(fmt.Sprintf("sim: cross-shard event at %v arrives in shard %d's past (now %v)", x.at, di, dst.now))
			}
			w.pipes[best*n+di].AtArg(x.at-dst.now, x.fnv, x.val)
		}
		for j := 0; j < n; j++ {
			if j == di {
				continue
			}
			ln := &w.lanes[j*n+di]
			if len(ln.entries) == 0 {
				continue
			}
			for i := range ln.entries {
				ln.entries[i] = xentry{}
			}
			ln.entries = ln.entries[:0]
			ln.head = 0
			ln.last = 0
			ln.shuffled = false
		}
	}
}

// runShards executes this window's active shards with a static round-robin
// assignment: worker k takes active[k], active[k+stride], ... The
// assignment is a pure function of the active set, so the work each worker
// does (though not its interleaving) is deterministic.
func (w *world) runShards(k, stride int) {
	for i := k; i < len(w.active); i += stride {
		si := w.active[i]
		w.shards[si].runShard(w.limits[si])
	}
}

// runShard drains one shard's heap up to (but excluding) limit. A panic
// while dispatching — a process panic re-raised by handoff, or a model
// panicking directly in a callback — is recorded for the barrier instead of
// crashing the worker; the shard stops, the others finish their window
// normally, and raisePanics rethrows the earliest record so the surfaced
// failure is independent of worker scheduling.
func (s *Env) runShard(limit Time) {
	w := s.world
	defer func() {
		if r := recover(); r != nil {
			w.pmu.Lock()
			w.panics = append(w.panics, shardPanic{at: s.now, shard: s.shard, val: r})
			w.pmu.Unlock()
		}
	}()
	for !s.queue.empty() && !w.stopped.Load() {
		if s.queue.peek().at >= limit {
			return
		}
		s.runNext()
	}
}

// wpool is the persistent shard-worker pool: workers 1..n-1 are goroutines
// that live for one world.run invocation, worker 0 is the coordinator (the
// caller of window) participating in place. Windows are released by
// bumping a generation counter and collected by counting arrivals down —
// a reusable two-phase barrier. Both phases spin briefly before parking on
// a condition variable, so back-to-back small windows stay in user space
// while long ones don't burn CPU.
type wpool struct {
	w       *world
	workers int
	start   atomic.Uint64 // window generation; bumped (under mu) to release
	arrived atomic.Int64  // workers yet to finish the current window
	quit    atomic.Bool

	mu    sync.Mutex
	cond  *sync.Cond // workers park here between windows
	dmu   sync.Mutex
	dcond *sync.Cond // the coordinator parks here awaiting arrivals
	wg    sync.WaitGroup
}

// barrierSpin bounds the user-space spinning (with yields) either side of
// the barrier before falling back to a condition variable. Gosched in the
// loop keeps the pool live even at GOMAXPROCS=1.
const barrierSpin = 128

func newWPool(w *world) *wpool {
	p := &wpool{w: w, workers: w.workers}
	p.cond = sync.NewCond(&p.mu)
	p.dcond = sync.NewCond(&p.dmu)
	p.wg.Add(p.workers - 1)
	for k := 1; k < p.workers; k++ {
		go p.worker(k)
	}
	return p
}

func (p *wpool) worker(k int) {
	defer p.wg.Done()
	var gen uint64
	for {
		gen = p.awaitStart(gen)
		if p.quit.Load() {
			return
		}
		p.runWindow(k)
	}
}

// runWindow runs worker k's share of the current window and arrives at the
// barrier. The arrival is deferred so that it happens on every way out: a
// runtime.Goexit inside a process (t.FailNow, say) unwinds the worker
// goroutine through here, and without its arrival the coordinator would wait
// forever. The worker is gone after that, so the exit is recorded like a
// panic and the coordinator raises it at the barrier.
func (p *wpool) runWindow(k int) {
	finished := false
	defer func() {
		if !finished {
			w := p.w
			w.pmu.Lock()
			w.panics = append(w.panics, shardPanic{at: maxTime, val: "sim: a shard worker exited mid-window (runtime.Goexit — t.FailNow or t.Fatal — inside a process or callback)"})
			w.pmu.Unlock()
		}
		if p.arrived.Add(-1) == 0 {
			p.dmu.Lock()
			p.dcond.Signal()
			p.dmu.Unlock()
		}
	}()
	p.w.runShards(k, p.workers)
	finished = true
}

// awaitStart blocks until the generation moves past gen and returns the
// new generation: spin first, then park. The generation is re-read under
// mu around Wait, so a bump between the spin and the park cannot be lost.
func (p *wpool) awaitStart(gen uint64) uint64 {
	for i := 0; i < barrierSpin; i++ {
		if g := p.start.Load(); g != gen {
			return g
		}
		runtime.Gosched()
	}
	p.mu.Lock()
	for p.start.Load() == gen {
		p.cond.Wait()
	}
	g := p.start.Load()
	p.mu.Unlock()
	return g
}

// window runs one window across the pool: release every worker, run the
// coordinator's own share, then wait for the last arrival. The arrival
// counter is re-checked under dmu before parking, so the last worker's
// signal cannot be missed.
func (p *wpool) window() {
	p.arrived.Store(int64(p.workers))
	p.mu.Lock()
	p.start.Add(1)
	p.cond.Broadcast()
	p.mu.Unlock()
	p.w.runShards(0, p.workers)
	if p.arrived.Add(-1) == 0 {
		return
	}
	for i := 0; i < barrierSpin; i++ {
		if p.arrived.Load() == 0 {
			return
		}
		runtime.Gosched()
	}
	p.dmu.Lock()
	for p.arrived.Load() != 0 {
		p.dcond.Wait()
	}
	p.dmu.Unlock()
}

// stop releases the workers one last time with quit set and joins them.
func (p *wpool) stop() {
	p.quit.Store(true)
	p.mu.Lock()
	p.start.Add(1)
	p.cond.Broadcast()
	p.mu.Unlock()
	p.wg.Wait()
}

// ShardStats describes one shard's share of a partitioned world's work: the
// events it dispatched and the windows it spent stalled on the barrier with
// nothing runnable (high stall counts mean the site's workload is much
// lighter than its peers', or its incoming channel bounds are too small to
// batch useful work).
type ShardStats struct {
	Shard    int
	Executed int64
	Stalls   int64
}

// WindowDelta is one TakeWindowStats interval: scheduler windows run,
// cumulative horizon advance, and per-shard work since the previous Take.
type WindowDelta struct {
	Windows int64
	Horizon Time
	Shards  []ShardStats
}

// TakeWindowStats returns the window/horizon/per-shard counters accumulated
// since the previous TakeWindowStats call (or since Partition) and marks
// the new baseline, so periodic reporters see per-interval counts instead
// of re-counting the whole run. Returns a zero delta with nil Shards on an
// unpartitioned (one-shard) environment. Call it between runs, not from
// concurrent shard code.
func (e *Env) TakeWindowStats() WindowDelta {
	if !e.Sharded() {
		return WindowDelta{}
	}
	w := e.world
	d := WindowDelta{
		Windows: w.windows - w.repWindows,
		Horizon: w.horizon - w.repHorizon,
		Shards:  make([]ShardStats, len(w.shards)),
	}
	w.repWindows = w.windows
	w.repHorizon = w.horizon
	for i, s := range w.shards {
		d.Shards[i] = ShardStats{
			Shard:    i,
			Executed: s.executed - w.repShards[i].Executed,
			Stalls:   s.windowStalls - w.repShards[i].Stalls,
		}
		w.repShards[i] = ShardStats{Shard: i, Executed: s.executed, Stalls: s.windowStalls}
	}
	return d
}

// raisePanics rethrows the earliest (time, shard) panic recorded during the
// last window, if any.
func (w *world) raisePanics() {
	w.pmu.Lock()
	recs := w.panics
	w.panics = nil
	w.pmu.Unlock()
	if len(recs) == 0 {
		return
	}
	min := recs[0]
	for _, r := range recs[1:] {
		if r.at < min.at || (r.at == min.at && r.shard < min.shard) {
			min = r
		}
	}
	panic(min.val)
}
