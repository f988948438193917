package sim

// Timer is a re-armable one-shot deadline: the retransmission-timeout shape,
// where almost every deadline is replaced before it expires. A fresh closure
// per deadline, cancelled by generation, leaves every superseded one in the
// heap until its time comes round; a Timer keeps one standing heap entry.
//
// An expiring deadline runs fn(arg) exactly where the AtArg call it replaces
// would have: Reset consumes a sequence number as AtArg does and dispatches
// at that (time, sequence) key. ArmAt arms at a key reserved earlier
// (Env.Reserve), so an owner that reserves a key per deadline and keeps the
// timer at the smallest live one dispatches each at its own AtArg's key,
// while the ones it drops cost no event. A standing entry that comes up
// before the armed key stands again at it, and one that comes up stopped
// goes away; neither is an event. Arming earlier than the standing entry
// stands a second one and disowns the first. A Timer is embedded in its
// owner, as a Pipe is, and used only from its environment's context.
type Timer struct {
	env        *Env
	fn         func(any)
	arg        any
	key, stand Key // the armed deadline and the standing entry; zero: none
}

// Key is a place in the dispatch order: a time, and a sequence number that
// breaks ties at it.
type Key struct {
	at  Time
	seq int64
}

// Before reports whether k is dispatched before o.
func (k Key) Before(o Key) bool { return k.at < o.at || k.at == o.at && k.seq < o.seq }

// Reserve returns the key AtArg(delay, ...) called now would schedule at,
// consuming its sequence number as that call would.
func (e *Env) Reserve(delay Time) Key {
	if delay < 0 {
		panic("sim: negative delay")
	}
	e.seq++
	return Key{at: e.now + delay, seq: e.seq}
}

// NewTimer returns a disarmed timer that runs fn(arg) (in scheduler context)
// when an armed deadline expires.
func (e *Env) NewTimer(fn func(any), arg any) Timer { return Timer{env: e, fn: fn, arg: arg} }

// Reset arms the timer to expire at the given delay from now, replacing any
// pending deadline.
func (t *Timer) Reset(delay Time) { t.ArmAt(t.env.Reserve(delay)) }

// ArmAt arms the timer to expire at k, a key reserved on its environment and
// not yet passed, replacing any pending deadline.
func (t *Timer) ArmAt(k Key) {
	if k.seq == 0 || k.at < t.env.now {
		panic("sim: timer armed at no key or a passed one")
	}
	t.key = k
	if t.stand.seq == 0 || k.Before(t.stand) {
		t.stand = k
		t.env.queue.push(entry{at: k.at, seq: k.seq, kind: kindTimer, tgt: t})
	}
}

// Stop disarms the timer; a pending deadline will not run the callback.
func (t *Timer) Stop() { t.key = Key{} }

// wake handles the timer entry with sequence number seq coming to the top
// of the heap and reports whether the armed deadline is the one that came
// up, in which case the timer is disarmed and the caller runs the callback.
func (t *Timer) wake(seq int64) bool {
	if seq != t.stand.seq {
		return false // disowned by an arm at an earlier key
	}
	t.stand = Key{}
	if seq == t.key.seq {
		t.key = Key{}
		return true
	}
	if t.key.seq != 0 {
		t.ArmAt(t.key)
	}
	return false
}
