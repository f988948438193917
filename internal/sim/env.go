package sim

import (
	"fmt"
	"sort"
)

// Env is a discrete-event simulation environment: a virtual clock, an event
// heap and the set of live processes. An Env is not safe for concurrent use
// from multiple OS-level goroutines other than through the Proc mechanism.
type Env struct {
	now      Time
	queue    entryHeap
	seq      int64
	current  *Proc              // the running process; nil in scheduler context
	procs    map[*Proc]struct{} // live (started, not finished) processes
	nprocs   int64              // counter for default proc names
	executed int64              // events dispatched so far
	digest   uint64             // running fingerprint of the dispatch sequence (see Digest)
	evFree   Free[Event]        // recycled Events (see AcquireEvent)
	nodes    Free[pipeNode]     // recycled pipe nodes (see Pipe)
	piped    int                // entries waiting in pipes behind their standing head
	tel      any                // opaque telemetry attachment (see SetTelemetry)
	flt      any                // opaque fault-plan attachment (see SetFault)
	layers   []freeList         // the layers' freelists, a *Free[T] each (see FreeOf)
	arena    *Arena             // where all of the recycled memory returns to (see Arena.Reclaim)

	// Periodic observation hook (see SetSampler). The sampler is NOT a heap
	// event: it fires at window barriers between events, so sequence
	// numbers, executed counts and therefore all simulated behavior are
	// identical with sampling on or off.
	sampleEvery Time
	sampleNext  Time
	sampleFn    func(at Time)

	// The world this environment is a shard of (see shard.go). NewEnv makes
	// it the environment's own one-shard world, whose storage is solo, so an
	// unpartitioned environment runs the same window loop as a partitioned
	// one; Partition(n >= 2) replaces it.
	world        *world
	shard        int32 // this view's shard index within world
	xseq         int64 // per-shard sequence for cross-shard deposits
	shardWorkers int   // declared worker bound (SetShardWorkers)
	windowStalls int64 // windows in which this shard dispatched nothing
	solo         soloWorld
}

// NewEnv creates an empty simulation environment with the clock at zero: the
// one shard of a world of its own.
func NewEnv() *Env {
	e := &Env{procs: make(map[*Proc]struct{}), digest: fnvOffset,
		evFree: Free[Event]{reset: resetEvent}, nodes: Free[pipeNode]{reset: resetPipeNode}}
	e.world = e.solo.init(e)
	return e
}

// FNV-1a's 64-bit parameters, which the dispatch digest borrows.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// mix folds one dispatch — its time and entry kind — into the digest.
func (e *Env) mix(at Time, k entryKind) {
	e.digest = ((e.digest^uint64(at))*fnvPrime ^ uint64(k)) * fnvPrime
}

// Now returns the current virtual time.
func (e *Env) Now() Time { return e.now }

// SetTelemetry attaches an opaque observability handle to the environment.
// The kernel never inspects it; layers built on the environment retrieve it
// with Telemetry and type-assert. Keeping the slot untyped avoids an import
// cycle (the telemetry package needs sim.Time) while giving every layer a
// single well-known place to find the session's recorder.
func (e *Env) SetTelemetry(t any) { e.tel = t }

// Telemetry returns the attachment installed by SetTelemetry (nil if none).
func (e *Env) Telemetry() any { return e.tel }

// SetFault attaches an opaque fault-injection plan to the environment, the
// same way SetTelemetry carries the observability handle: the kernel never
// inspects it, and layers that can arm faults (the WAN link, the TCP stack)
// retrieve it with Fault and type-assert. See the fault package.
func (e *Env) SetFault(f any) { e.flt = f }

// Fault returns the attachment installed by SetFault (nil if none).
func (e *Env) Fault() any { return e.flt }

// SetSampler installs a periodic observation hook: fn(S) is invoked at
// S = every, 2*every, 3*every, ... of virtual time, with the guarantee that
// every event scheduled at or before S has executed and no event after S
// has — fn observes a consistent prefix of the simulation. The hook runs in
// scheduler context between event dispatches (never as a heap event, so it
// perturbs nothing) and must not schedule simulation work. Sample times
// with no event activity around them still fire, in order, as soon as the
// clock is known to have passed them; samples past a Stop are skipped (the
// stopping event's shard peers may not have settled). The hook fires at
// window barriers, with window horizons clamped so no shard runs past a
// pending sample time; on a partitioned world it is the root view's (the
// environment Partition was called on) that fires. Installing with
// every <= 0 or a nil fn removes the sampler.
func (e *Env) SetSampler(every Time, fn func(at Time)) {
	if every <= 0 || fn == nil {
		e.sampleEvery, e.sampleNext, e.sampleFn = 0, 0, nil
		return
	}
	e.sampleEvery = every
	e.sampleNext = e.now + every
	e.sampleFn = fn
}

// fireSamples invokes the sampler for every pending sample time <= through,
// advancing the schedule. Callers guarantee all events at or before
// `through` have been dispatched.
func (e *Env) fireSamples(through Time) {
	for e.sampleFn != nil && e.sampleNext <= through {
		at := e.sampleNext
		e.sampleNext += e.sampleEvery
		e.sampleFn(at)
	}
}

// push enqueues ent at absolute time ent.at (>= e.now), stamping the FIFO
// tie-breaker sequence.
func (e *Env) push(ent entry) {
	if ent.at < e.now {
		panic(fmt.Sprintf("sim: schedule in the past: at=%v now=%v", ent.at, e.now))
	}
	e.seq++
	ent.seq = e.seq
	e.queue.push(ent)
}

// schedule enqueues fn to run at absolute time at (>= e.now).
func (e *Env) schedule(at Time, fn func()) {
	e.push(entry{at: at, kind: kindFn, tgt: fn})
}

// scheduleArg enqueues fn(v) at absolute time at without a closure.
func (e *Env) scheduleArg(at Time, fn func(any), v any) {
	e.push(entry{at: at, kind: kindFnArg, tgt: fn, val: v})
}

// scheduleResume enqueues the resumption of p with value v at time at.
func (e *Env) scheduleResume(at Time, p *Proc, v any) {
	e.push(entry{at: at, kind: kindResume, tgt: p, val: v})
}

// scheduleTrigger enqueues ev.Trigger(v) at time at.
func (e *Env) scheduleTrigger(at Time, ev *Event, v any) {
	e.push(entry{at: at, kind: kindTrigger, tgt: ev, val: v})
}

// At schedules fn to be invoked (in scheduler context, not in a process) at
// the given delay from now. It is the low-level hook used to build timers
// and hardware models that do not need a full process.
func (e *Env) At(delay Time, fn func()) {
	if delay < 0 {
		panic("sim: negative delay")
	}
	e.schedule(e.now+delay, fn)
}

// AtArg schedules fn(arg) at the given delay from now. Unlike At, it
// allocates no closure: fn is typically a long-lived function value cached
// by the caller (a port's deliver hook, a QP's receive hook) and arg the
// per-event payload, so hardware models can schedule millions of packet
// events without per-event garbage.
func (e *Env) AtArg(delay Time, fn func(any), arg any) {
	if delay < 0 {
		panic("sim: negative delay")
	}
	e.scheduleArg(e.now+delay, fn, arg)
}

// runNext removes the heap's top entry, advances the clock to it and
// executes it. A timer's standing entry that comes up with nothing due (see
// Timer.wake) is not an event: it leaves the clock and the executed count
// alone.
func (e *Env) runNext() {
	if e.queue.peek().kind == kindPipe {
		e.runPipeHead()
		return
	}
	ent := e.queue.pop()
	if ent.kind == kindTimer && !ent.tgt.(*Timer).wake(ent.seq) {
		return
	}
	e.now = ent.at
	e.executed++
	e.mix(ent.at, ent.kind)
	switch ent.kind {
	case kindFn:
		ent.tgt.(func())()
	case kindFnArg:
		ent.tgt.(func(any))(ent.val)
	case kindResume:
		if p := ent.tgt.(*Proc); !p.finished && !p.killed {
			e.handoff(p, ent.val)
		}
	case kindTrigger:
		ent.tgt.(*Event).Trigger(ent.val)
	case kindTimer:
		t := ent.tgt.(*Timer)
		t.fn(t.arg)
	}
}

// schedulerOnly panics when a process of this environment's world is
// running: the dispatch loop and Shutdown resume processes, and a process
// that re-entered them would sooner or later resume itself.
func (e *Env) schedulerOnly() {
	for _, s := range e.world.shards {
		if s.current != nil {
			panic(fmt.Sprintf("sim: Run, RunUntil, Step and Shutdown must be called from outside process context (process %q is running)", s.current.name))
		}
	}
}

// Run executes scheduled work until the event heap is empty or Stop is
// called, and returns the final virtual time. Processes still blocked when
// the heap drains are left parked; call Shutdown to unwind them.
func (e *Env) Run() Time { return e.RunUntil(maxTime) }

// RunUntil executes scheduled work until the heap is empty, Stop is called,
// or the next entry would be after the horizon, which must not be before
// Now. The clock never advances beyond horizon. The call drives every shard
// of the environment's world under the conservative window protocol (see
// shard.go); an unpartitioned environment is a world of one shard, run as
// one window per call, or per sample period with a sampler installed.
func (e *Env) RunUntil(horizon Time) Time {
	e.schedulerOnly()
	if horizon < e.now {
		panic(fmt.Sprintf("sim: RunUntil horizon %v is before now %v", horizon, e.now))
	}
	return e.world.run(horizon)
}

// Step executes exactly one scheduled entry and reports whether one existed.
// It drives one heap, so it panics on a partitioned world, whose mailboxes
// only RunUntil delivers.
func (e *Env) Step() bool {
	e.schedulerOnly()
	if e.Sharded() {
		panic("sim: Step on a partitioned world (it would skip the cross-shard mailboxes); use RunUntil")
	}
	for !e.queue.empty() {
		before := e.executed
		e.runNext()
		if e.executed != before {
			return true
		}
	}
	return false
}

// Pending returns the number of scheduled entries: those in the heap
// (including a stopped or re-armed timer's standing wake-up) plus those
// waiting in pipes, summed across the world's shards. Call it only between
// windows, not from concurrently running shard code.
func (e *Env) Pending() int {
	n := 0
	for _, s := range e.world.shards {
		n += s.queue.len() + s.piped
	}
	return n
}

// Executed returns the number of events dispatched since the environment
// was created (a Timer deadline superseded by Reset or cancelled by Stop
// never becomes one) — a machine-independent measure of how much
// simulation work an experiment cost. It sums the world's shards (call
// after Run returns, not from concurrent shard code).
func (e *Env) Executed() int64 {
	var n int64
	for _, s := range e.world.shards {
		n += s.executed
	}
	return n
}

// Digest returns a fingerprint of the dispatch sequence so far: a running
// FNV-style mix of every executed event's time and entry kind, in dispatch
// order. Two runs with equal Executed() counts that dispatch ties in a
// different order, or move an event between a pipe and the heap, differ
// here. The shards' digests are combined in index order, which leaves a
// one-shard world's its own (call after Run returns, not from concurrent
// shard code).
func (e *Env) Digest() uint64 {
	var d uint64
	for _, s := range e.world.shards {
		d = d*fnvPrime ^ s.digest
	}
	return d
}

// LiveProcs returns the number of started but unfinished processes, summed
// across the world's shards.
func (e *Env) LiveProcs() int {
	n := 0
	for _, s := range e.world.shards {
		n += len(s.procs)
	}
	return n
}

// Stop halts Run/RunUntil after the current entry completes. It may be
// called from process or callback context. On a partitioned world it stops
// every shard at its next dispatch check; measurements taken before the
// Stop are deterministic, but the exact final clock of the other shards is
// not (each may finish the event it is on).
func (e *Env) Stop() { e.world.stopped.Store(true) }

// Shutdown forcibly kills every live process, so their bodies' defers run
// and their carriers return to the free list (see proc.go). It must be
// called from outside process context (i.e., not from within a Proc),
// typically after Run returns. The environment remains usable for
// inspection but no further processes should be started.
//
// Victims die shard by shard, each shard's in ascending id (creation)
// order. The live set is collected and sorted once per round rather than
// min-scanned per kill (the old O(n²) behavior); extra rounds only happen
// when a victim's deferred cleanup starts new processes, which — ids being
// monotonic — are always killed after every process of the previous round,
// exactly as before.
func (e *Env) Shutdown() {
	e.schedulerOnly()
	var victims []*Proc
	// Loop in case a victim's deferred cleanup starts a process on another
	// shard.
	for again := true; again; {
		again = false
		for _, s := range e.world.shards {
			for len(s.procs) > 0 {
				again = true
				victims = victims[:0]
				for p := range s.procs {
					victims = append(victims, p)
				}
				sort.Slice(victims, func(i, j int) bool { return victims[i].id < victims[j].id })
				for _, p := range victims {
					p.Kill() // no-op if a prior victim's unwind finished it
				}
			}
		}
	}
}
