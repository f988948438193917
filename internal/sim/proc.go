package sim

import (
	"fmt"
	"iter"
	"sync"
)

// killSignal is the wake value that unwinds a process: delivered by Kill,
// it panics out of the process's pending yield so the body's defers run.
type killSignal struct{}

// Proc is a simulation process: a body that runs cooperatively under the
// environment's scheduler, on a coroutine (see carrier). At most one
// process (or the scheduler) runs at any instant; a process only ever
// blocks in Wait, Sleep or the blocking operations built on them.
type Proc struct {
	env      *Env
	id       int64
	name     string
	fn       func(p *Proc)
	car      *carrier // coroutine the body runs on, from first activation to exit
	wake     any      // resumer -> process: the value the pending yield returns
	done     *Event   // created by the first Done call
	finished bool
	killed   bool
}

// A carrier is a coroutine that runs process bodies, one after another.
// Resuming a process is next() — a direct switch to the carrier's
// goroutine that passes through no scheduler run queue and wakes no other
// thread — and parking is yield(), the switch back to whoever called
// next(). When its body returns or is killed the carrier parks between
// bodies and is handed to the next process to start, in any environment, so
// a world's processes cost no goroutine creation once the pool is warm.
type carrier struct {
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
	p     *Proc // the process whose body runs at the next resume from idle
}

// maxIdleCarriers bounds the goroutines parked in the free list. The
// experiments' largest worlds run 64 processes (one per MPI rank), so this
// holds many of them finishing at once under -par; a carrier released beyond
// it is stopped and its goroutine exits.
const maxIdleCarriers = 1024

// idleCarriers is the process-wide free list. The mutex is taken once per
// first activation and once per exit, never per resume.
var idleCarriers struct {
	sync.Mutex
	free []*carrier
}

// acquireCarrier returns an idle carrier, or starts a new one, bound to p.
func acquireCarrier(p *Proc) *carrier {
	var c *carrier
	idleCarriers.Lock()
	if n := len(idleCarriers.free); n > 0 {
		c = idleCarriers.free[n-1]
		idleCarriers.free[n-1] = nil
		idleCarriers.free = idleCarriers.free[:n-1]
	}
	idleCarriers.Unlock()
	if c == nil {
		c = new(carrier)
		c.next, c.stop = iter.Pull(c.loop)
	}
	c.p = p
	return c
}

// release returns a carrier whose body has finished to the free list. Only
// the resumer may call it, and only after next() has returned: the carrier
// is then parked in loop. Releasing from inside the coroutine, before it
// has switched away, would let another goroutine (a -par worker, another
// shard's worker) take it and call next() on a coroutine still running.
func (c *carrier) release() {
	c.p = nil
	idleCarriers.Lock()
	pooled := len(idleCarriers.free) < maxIdleCarriers
	if pooled {
		idleCarriers.free = append(idleCarriers.free, c)
	}
	idleCarriers.Unlock()
	if !pooled {
		c.stop()
	}
}

// loop is the carrier's coroutine: run the bound process's body, park until
// bound to another, repeat until stopped.
func (c *carrier) loop(yield func(struct{}) bool) {
	c.yield = yield
	for {
		c.p.run()
		if !yield(struct{}{}) {
			return
		}
	}
}

// Go starts a new process executing fn. The process body receives its own
// Proc handle, through which it sleeps and waits. fn begins executing at the
// current virtual time, after already-scheduled work for this instant.
func (e *Env) Go(name string, fn func(p *Proc)) *Proc {
	e.nprocs++
	if name == "" {
		name = fmt.Sprintf("proc-%d", e.nprocs)
	}
	p := &Proc{env: e, id: e.nprocs, name: name, fn: fn}
	e.procs[p] = struct{}{}
	// First activation rides a typed resume entry (which skips killed or
	// finished processes at dispatch), not a closure.
	e.scheduleResume(e.now, p, nil)
	return p
}

// run executes the body on its carrier, from first activation to exit.
// However the body ends — return, Kill, panic, runtime.Goexit — the process
// is finished and off the live set before control leaves the coroutine. A
// kill ends here and the carrier lives on; a genuine panic continues, with
// the process named, through next() into the resumer, so it surfaces on
// the scheduler side exactly as a panic in a callback would.
func (p *Proc) run() {
	defer func() {
		r := recover()
		p.finished = true
		p.fn = nil // a retained handle must not pin what the body captured
		delete(p.env.procs, p)
		if p.done != nil {
			p.done.Trigger(nil)
		}
		if _, dead := r.(killSignal); r != nil && !dead {
			panic(fmt.Sprintf("sim: panic in process %q: %v", p.name, r))
		}
	}()
	// A process killed before its first activation never runs its body.
	if !p.killed {
		p.fn(p)
	}
}

// handoff transfers control to process p, delivering v as the value its
// pending Wait returns, and returns when p parks or finishes. A panic or
// runtime.Goexit in p's body propagates to the caller.
func (e *Env) handoff(p *Proc, v any) {
	prev := e.current
	e.current = p
	defer func() { e.current = prev }()
	if p.car == nil {
		// First activation: a process that is never resumed never
		// occupies a carrier.
		p.car = acquireCarrier(p)
	}
	p.wake = v
	p.car.next()
	if p.finished {
		p.car.release()
		p.car = nil
	}
}

// Name returns the process name.
func (p *Proc) Name() string { return p.name }

// Env returns the environment the process runs in.
func (p *Proc) Env() *Env { return p.env }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.env.now }

// Done returns an event triggered when the process function returns,
// panics or is killed.
func (p *Proc) Done() *Event {
	if p.done == nil {
		p.done = p.env.NewEvent()
		if p.finished {
			p.done.Trigger(nil)
		}
	}
	return p.done
}

// Finished reports whether the process has returned or been killed.
func (p *Proc) Finished() bool { return p.finished }

// Kill forcibly unwinds the process (its deferred functions run). Killing a
// finished process is a no-op. A process must not kill itself; return from
// the process function instead.
func (p *Proc) Kill() {
	if p.finished {
		return
	}
	if p.env.current == p {
		panic("sim: process cannot Kill itself")
	}
	p.killed = true
	p.env.handoff(p, killSignal{})
}

// yield parks the process and returns the value delivered at resumption.
func (p *Proc) yield() any {
	p.car.yield(struct{}{})
	v := p.wake
	p.wake = nil
	if _, dead := v.(killSignal); dead {
		panic(killSignal{})
	}
	return v
}

// Wait blocks the process until ev triggers and returns the event's value.
// If the event already triggered, Wait returns immediately without yielding.
//
// On a partitioned world the event must belong to the process's own shard:
// Trigger resumes waiters through the event's environment, so a process
// parked on another shard's event would be rescheduled by that shard's
// dispatcher — racing its home heap and deadlocking the window barrier.
// Cross-shard signalling goes through the mailbox lanes (AtArgOn) instead,
// with the receiving shard triggering a local event. Waiting across shards
// panics immediately rather than deadlocking at trigger time.
func (p *Proc) Wait(ev *Event) any {
	if p.env.current != p {
		panic("sim: Wait called from outside process context")
	}
	if ev.env != p.env && ev.env.world == p.env.world {
		panic(fmt.Sprintf("sim: process %q on shard %d cannot wait on shard %d's event: cross-shard signalling must ride the mailbox lanes (AtArgOn)",
			p.name, p.env.shard, ev.env.shard))
	}
	if ev.Triggered() {
		return ev.val
	}
	ev.waiters = append(ev.waiters, p)
	return p.yield()
}

// Sleep blocks the process for d units of virtual time.
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		panic("sim: negative sleep")
	}
	// The timer event's lifetime is exactly this call: recycle it. If the
	// process is killed mid-sleep the release is skipped and the event
	// stays out of use until the world ends, which is safe.
	env := p.env
	ev := env.AcquireEvent()
	env.scheduleTrigger(env.now+d, ev, nil)
	p.Wait(ev)
	env.ReleaseEvent(ev)
}
