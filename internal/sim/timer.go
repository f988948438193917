package sim

// Timer is a re-armable one-shot deadline: the retransmission-timeout shape,
// where almost every deadline is replaced before it expires. Scheduling a
// fresh closure per deadline and cancelling the old one by generation leaves
// every superseded closure in the event heap until its time comes round; a
// Timer keeps at most one standing heap entry however often it is reset.
//
// A deadline that does expire runs the callback exactly where the closure it
// replaces would have: Reset consumes a sequence number as Env.At does, and
// the callback is dispatched at that (time, sequence) key. A standing entry
// that comes up before the current deadline stands itself again at the
// current key — which is later, so nothing is missed — and one that comes
// up with the timer stopped just goes away. Neither is an event: the clock
// and Executed() see only deadlines that expire. A Reset to an earlier time
// than the standing entry's stands a second entry and disowns the first.
//
// All calls must come from the owning environment's context.
type Timer struct {
	env *Env
	fn  func()
	// (at, seq) is the armed deadline's key; seq 0 means disarmed.
	at  Time
	seq int64
	// (standAt, standSeq) is the key of the heap entry standing for the
	// timer; standSeq 0 means none.
	standAt  Time
	standSeq int64
}

// NewTimer returns a disarmed timer that runs fn (in scheduler context) each
// time a deadline set by Reset expires.
func (e *Env) NewTimer(fn func()) *Timer { return &Timer{env: e, fn: fn} }

// Reset arms the timer to expire at the given delay from now, replacing any
// pending deadline.
func (t *Timer) Reset(delay Time) {
	if delay < 0 {
		panic("sim: negative delay")
	}
	e := t.env
	e.seq++
	t.at, t.seq = e.now+delay, e.seq
	if t.standSeq == 0 || t.at < t.standAt {
		t.stand()
	}
}

// Stop disarms the timer; a pending deadline will not run the callback.
func (t *Timer) Stop() { t.seq = 0 }

// stand puts an entry for the armed deadline in the heap.
func (t *Timer) stand() {
	t.standAt, t.standSeq = t.at, t.seq
	t.env.queue.push(entry{at: t.at, seq: t.seq, kind: kindTimer, tgt: t})
}

// wake handles the timer entry with sequence number seq coming to the top
// of the heap and reports whether the armed deadline is the one that came
// up, in which case the timer is disarmed and the caller runs the callback.
func (t *Timer) wake(seq int64) bool {
	if seq != t.standSeq {
		return false // disowned by a Reset to an earlier time
	}
	t.standSeq = 0
	if seq == t.seq {
		t.seq = 0
		return true
	}
	if t.seq != 0 {
		t.stand()
	}
	return false
}
