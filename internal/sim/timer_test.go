package sim

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// deadline is what a Timer and the reference below have in common.
type deadline interface {
	Reset(Time)
	Stop()
}

// closureTimer is the pattern Timer replaces, kept as the reference: one
// fresh closure per deadline, cancelled by generation.
type closureTimer struct {
	env *Env
	fn  func()
	gen int
}

func (c *closureTimer) Reset(d Time) {
	c.gen++
	gen := c.gen
	c.env.At(d, func() {
		if gen != c.gen {
			return
		}
		c.gen++
		c.fn()
	})
}

func (c *closureTimer) Stop() { c.gen++ }

// timerProgram drives one deadline from a seeded stream of ordinary events
// that reset it later or earlier, stop it, or just log themselves; the
// callback sometimes re-arms from inside. Times are drawn from a small range
// so deadlines tie with plain events all the time.
func timerProgram(seed int64, mk func(*Env, func()) deadline) (log []string, executed int64) {
	e := NewEnv()
	rng := rand.New(rand.NewSource(seed))
	var d deadline
	d = mk(e, func() {
		log = append(log, fmt.Sprintf("%d:fire", e.Now()))
		if rng.Intn(3) == 0 {
			d.Reset(Time(rng.Intn(30)))
		}
	})
	for i := 0; i < 600; i++ {
		id := i
		e.At(Time(rng.Intn(2000)), func() {
			op := rng.Intn(8)
			switch {
			case op < 4:
				d.Reset(Time(20 + rng.Intn(30))) // mostly later than what is armed
			case op == 4:
				d.Reset(Time(rng.Intn(10))) // earlier
			case op == 5:
				d.Stop()
			}
			log = append(log, fmt.Sprintf("%d:ev%d:op%d", e.Now(), id, op))
		})
	}
	e.Run()
	return log, e.Executed()
}

func TestTimerMatchesClosurePerDeadline(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		want, wantExec := timerProgram(seed, func(e *Env, fn func()) deadline {
			return &closureTimer{env: e, fn: fn}
		})
		got, gotExec := timerProgram(seed, func(e *Env, fn func()) deadline {
			return e.NewTimer(fn)
		})
		fires := 0
		for i := range want {
			if i >= len(got) || want[i] != got[i] {
				t.Fatalf("seed %d: line %d: timer diverges from closure-per-deadline\n closures: %v\n timer:    %v",
					seed, i, want[i], append(got, "<end>")[i])
			}
			if strings.HasSuffix(want[i], ":fire") {
				fires++
			}
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: timer logged %d lines, closures %d", seed, len(got), len(want))
		}
		if fires < 20 {
			t.Fatalf("seed %d: only %d deadlines expired; the program does not exercise firing", seed, fires)
		}
		// Executed() counts the 600 plain events and the deadlines that
		// expired — none of the superseded ones the closures pay for.
		if wantTimer := int64(600 + fires); gotExec != wantTimer {
			t.Errorf("seed %d: Executed() = %d with a Timer, want %d (600 events + %d expiries)", seed, gotExec, wantTimer, fires)
		}
		if gotExec >= wantExec {
			t.Errorf("seed %d: Executed() = %d with a Timer, %d with closures: superseded deadlines still counted", seed, gotExec, wantExec)
		}
	}
}

func TestTimerResetStopSemantics(t *testing.T) {
	e := NewEnv()
	var fired []Time
	var tm *Timer
	tm = e.NewTimer(func() { fired = append(fired, e.Now()) })

	tm.Reset(10)
	tm.Reset(30) // later: replaces
	e.RunUntil(20)
	if len(fired) != 0 {
		t.Fatalf("superseded deadline fired at %v", fired)
	}
	tm.Reset(5) // at t=20: earlier than the standing 30 -> fires at 25
	e.RunUntil(29)
	if fmt.Sprint(fired) != "[25ns]" {
		t.Fatalf("fired %v, want [25ns]", fired)
	}
	e.Run() // the disowned entry at 30 comes up and must do nothing
	if fmt.Sprint(fired) != "[25ns]" || e.Now() != 29 {
		t.Fatalf("fired %v, clock %v after draining; want [25ns] and the clock still at 29ns", fired, e.Now())
	}

	tm.Reset(10) // after firing: arms again, at 39
	tm.Stop()
	e.Run()
	if fmt.Sprint(fired) != "[25ns]" {
		t.Fatalf("stopped timer fired: %v", fired)
	}
	tm.Reset(10)
	e.Run()
	if fmt.Sprint(fired) != "[25ns 39ns]" {
		t.Fatalf("fired %v, want [25ns 39ns]", fired)
	}

	// Re-arming from inside the callback.
	n := 0
	var chain *Timer
	chain = e.NewTimer(func() {
		if n++; n < 4 {
			chain.Reset(7)
		}
	})
	start := e.Now()
	chain.Reset(7)
	if end := e.Run(); n != 4 || end != start+28 {
		t.Fatalf("self-resetting timer fired %d times ending at %v, want 4 and %v", n, end, start+28)
	}
}

// The shape of a TCP retransmission timer: pushed back on every ack, never
// expiring. However often it is reset, one entry stands for it.
func TestTimerKeepsOneStandingEntry(t *testing.T) {
	e := NewEnv()
	fired := 0
	tm := e.NewTimer(func() { fired++ })
	acks := 0
	var ack func()
	ack = func() {
		tm.Reset(50)
		if acks++; acks < 10000 {
			e.At(1, ack)
		}
		if n := e.Pending(); n > 2 { // the next ack + the timer's entry
			t.Fatalf("ack %d: %d entries pending, want <= 2", acks, n)
		}
	}
	e.At(0, ack)
	e.Run()
	if fired != 1 || e.Now() != 9999+50 {
		t.Fatalf("fired %d times, clock %v; want once at %v", fired, e.Now(), Time(9999+50))
	}
	if want := int64(10000 + 1); e.Executed() != want {
		t.Fatalf("Executed() = %d, want %d: early wake-ups of the standing entry are not events", e.Executed(), want)
	}
}
