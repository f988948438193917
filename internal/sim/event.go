package sim

// Event is a one-shot occurrence that processes can wait on. An event
// carries an optional value delivered to waiters.
type Event struct {
	env       *Env
	triggered bool
	val       any
	waiters   []*Proc
}

// NewEvent creates an untriggered event. The event's lifetime is managed by
// the garbage collector; kernel-internal hot paths with a provable last use
// recycle events through AcquireEvent/ReleaseEvent instead.
func (e *Env) NewEvent() *Event { return &Event{env: e} }

// AcquireEvent returns an untriggered event from the environment's
// freelist (or a fresh one). It is the allocation-free counterpart of
// NewEvent for blocking primitives — sleep timers, queue and resource
// waits, CQ polls — whose events have a strictly scoped lifetime: created,
// waited on, triggered exactly once, then dead.
func (e *Env) AcquireEvent() *Event {
	ev := e.evFree.Get()
	ev.env = e
	return ev
}

// ReleaseEvent recycles ev onto the freelist. The caller asserts that no
// reference to ev survives — no parked waiter, no scheduled trigger. The
// canonical pattern is release immediately after a Wait on the event
// returns. Events a peer may still observe (completion
// events handed to user code) must use NewEvent and be left to the garbage
// collector. The freelist is per-Env and therefore deterministic: reuse
// order depends only on the simulation itself.
func (e *Env) ReleaseEvent(ev *Event) { e.evFree.Put(ev) }

// resetEvent is the event list's reset. The list may outlive the world (see
// Arena), so the event is scrubbed of it: its environment and its waiter
// array, whose slots past the truncation still name processes.
func resetEvent(ev *Event) {
	w := ev.waiters[:cap(ev.waiters)]
	clear(w)
	*ev = Event{waiters: w[:0]}
}

// Triggered reports whether the event has fired.
func (ev *Event) Triggered() bool { return ev.triggered }

// Value returns the value the event was triggered with (nil if untriggered).
func (ev *Event) Value() any { return ev.val }

// Trigger fires the event with the given value. Waiting processes are
// resumed at the current virtual time in registration order. Triggering an
// already-triggered event panics: events are one-shot by design (use Queue
// for streams of values).
func (ev *Event) Trigger(v any) {
	if ev.triggered {
		panic("sim: event triggered twice")
	}
	ev.triggered = true
	ev.val = v
	env := ev.env
	for _, w := range ev.waiters {
		env.scheduleResume(env.now, w, v)
	}
	// Truncate rather than nil out: a recycled event reuses the backing
	// array. Nothing can append after the trigger — late Waits return
	// immediately.
	ev.waiters = ev.waiters[:0]
}
