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
	stopped  bool               // set by Stop to end Run early
	nprocs   int64              // counter for default proc names
	executed int64              // events dispatched so far
	evFree   []*Event           // recycled Events (see AcquireEvent)
	piped    int                // entries waiting in pipes behind their standing head
	pipeFree *pipeNode          // recycled pipe nodes (see pipe.go)
	pipeSlab int                // size of the last node slab allocated
	tel      any                // opaque telemetry attachment (see SetTelemetry)
	flt      any                // opaque fault-plan attachment (see SetFault)
	layers   []layerMem         // what the layers above recycle (see Recycled)
	arena    *Arena             // where all of the recycled memory returns to (see Arena.Reclaim)

	// Periodic observation hook (see SetSampler). The sampler is NOT a heap
	// event: it fires inside the dispatch loop between events, so sequence
	// numbers, executed counts and therefore all simulated behavior are
	// identical with sampling on or off.
	sampleEvery Time
	sampleNext  Time
	sampleFn    func(at Time)

	// Sharded parallel execution (see shard.go). All zero on the classic
	// single-heap path: world stays nil and every check below is one nil
	// test, so unpartitioned behavior is unchanged.
	world        *world // non-nil once Partition has run
	shard        int32  // this view's shard index within world
	xseq         int64  // per-shard sequence for cross-shard deposits
	shardWorkers int    // declared worker bound (SetShardWorkers)
	windowStalls int64  // windows in which this shard dispatched nothing
}

// NewEnv creates an empty simulation environment with the clock at zero.
func NewEnv() *Env {
	return &Env{procs: make(map[*Proc]struct{})}
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
// stopping event's shard peers may not have settled). On a partitioned
// world the hook fires at window barriers, with window horizons clamped so
// no shard runs past a pending sample time — the observable guarantee is
// identical to the single-heap one. Installing with every <= 0 or a nil fn
// removes the sampler.
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
		ent.tgt.(*Timer).fn()
	}
}

// schedulerOnly panics when a process of this environment (any shard's, on
// a partitioned world) is running: the dispatch loop and Shutdown resume
// processes, and a process that re-entered them would sooner or later
// resume itself.
func (e *Env) schedulerOnly() {
	running := e.current
	if w := e.world; w != nil {
		for _, s := range w.shards {
			if s.current != nil {
				running = s.current
			}
		}
	}
	if running != nil {
		panic(fmt.Sprintf("sim: Run, RunUntil, Step and Shutdown must be called from outside process context (process %q is running)", running.name))
	}
}

// Run executes scheduled work until the event heap is empty or Stop is
// called, and returns the final virtual time. Processes still blocked when
// the heap drains are left parked; call Shutdown to unwind them.
func (e *Env) Run() Time { return e.RunUntil(Time(1<<62 - 1)) }

// RunUntil executes scheduled work until the heap is empty, Stop is called,
// or the next entry would be after the horizon. The clock never advances
// beyond horizon. On a partitioned world (see Partition) the call drives
// every shard under the conservative window protocol and returns when all
// shard heaps are empty.
func (e *Env) RunUntil(horizon Time) Time {
	e.schedulerOnly()
	if e.world != nil {
		return e.runWorld(horizon)
	}
	e.stopped = false
	for !e.queue.empty() && !e.stopped {
		at := e.queue.peek().at
		if at > horizon {
			// Events at or before the horizon have all run; settle any
			// samples up to it before parking the clock there.
			e.fireSamples(horizon)
			e.now = horizon
			return e.now
		}
		if e.sampleFn != nil && e.sampleNext < at {
			e.fireSamples(at - 1)
		}
		e.runNext()
	}
	if !e.stopped {
		// Heap drained: fire samples through the final clock. After a Stop
		// the tail is deliberately unsampled — the stopping event decided
		// the run is over, and (on a sharded world) peers may not have
		// settled, so a post-Stop sample would not be a consistent prefix.
		e.fireSamples(e.now)
	}
	return e.now
}

// Step executes exactly one scheduled entry and reports whether one existed.
func (e *Env) Step() bool {
	e.schedulerOnly()
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
// waiting in pipes. It is summed across shards on a partitioned world; call
// only between windows, not from concurrently running shard code.
func (e *Env) Pending() int {
	if w := e.world; w != nil {
		n := 0
		for _, s := range w.shards {
			n += s.queue.len() + s.piped
		}
		return n
	}
	return e.queue.len() + e.piped
}

// Executed returns the number of events dispatched since the environment
// was created (a Timer deadline superseded by Reset or cancelled by Stop
// never becomes one) — a machine-independent measure of how much
// simulation work an experiment cost. On a partitioned world it sums all
// shards (call after Run returns, not from concurrent shard code).
func (e *Env) Executed() int64 {
	if w := e.world; w != nil {
		var n int64
		for _, s := range w.shards {
			n += s.executed
		}
		return n
	}
	return e.executed
}

// LiveProcs returns the number of started but unfinished processes (summed
// across shards on a partitioned world).
func (e *Env) LiveProcs() int {
	if w := e.world; w != nil {
		n := 0
		for _, s := range w.shards {
			n += len(s.procs)
		}
		return n
	}
	return len(e.procs)
}

// Stop halts Run/RunUntil after the current entry completes. It may be
// called from process or callback context. On a partitioned world it stops
// every shard at its next dispatch check; measurements taken before the
// Stop are deterministic, but the exact final clock of the other shards is
// not (each may finish the event it is on).
func (e *Env) Stop() {
	if w := e.world; w != nil {
		w.stopped.Store(true)
		return
	}
	e.stopped = true
}

// Shutdown forcibly kills every live process, so their bodies' defers run
// and their carriers return to the free list (see proc.go). It must be
// called from outside process context (i.e., not from within a Proc),
// typically after Run returns. The environment remains usable for
// inspection but no further processes should be started.
//
// Victims die in ascending id (creation) order. The live set is collected
// and sorted once per round rather than min-scanned per kill (the old
// O(n²) behavior); extra rounds only happen when a victim's deferred
// cleanup starts new processes, which — ids being monotonic — are always
// killed after every process of the previous round, exactly as before.
func (e *Env) Shutdown() {
	e.schedulerOnly()
	if w := e.world; w != nil {
		// Kill shard by shard in index order; loop in case a victim's
		// deferred cleanup starts a process on another shard.
		for again := true; again; {
			again = false
			for _, s := range w.shards {
				if len(s.procs) > 0 {
					s.shutdownLocal()
					again = true
				}
			}
		}
		return
	}
	e.shutdownLocal()
}

func (e *Env) shutdownLocal() {
	var victims []*Proc
	for len(e.procs) > 0 {
		victims = victims[:0]
		for p := range e.procs {
			victims = append(victims, p)
		}
		sort.Slice(victims, func(i, j int) bool { return victims[i].id < victims[j].id })
		for _, p := range victims {
			p.Kill() // no-op if a prior victim's unwind finished it
		}
	}
}
