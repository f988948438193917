package sim

import (
	"fmt"
	"math/rand"
	"slices"
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
			tm := e.NewTimer(callThunk, fn)
			return &tm
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
	tm := e.NewTimer(func(any) { fired = append(fired, e.Now()) }, nil)

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
	var chain Timer
	chain = e.NewTimer(func(any) {
		if n++; n < 4 {
			chain.Reset(7)
		}
	}, nil)
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
	tm := e.NewTimer(func(any) { fired++ }, nil)
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

// reservedProgram is the retry-window shape: ordinary events on a coarse
// grid (so everything ties) launch deadlines of a few fixed lengths, one per
// launch, complete live ones at random, or schedule an echo onto the grid;
// an expiring deadline sometimes launches another. perLaunch schedules each deadline as its own AtArg event
// that does nothing if its deadline completed first; otherwise one Timer
// stands at the smallest key reserved for a live deadline and re-aims when
// that one completes or fires. It returns the log, Executed() and how many
// expiries found their deadline completed.
func reservedProgram(seed int64, perLaunch bool) (log []string, executed int64, noops int) {
	e := NewEnv()
	rng := rand.New(rand.NewSource(seed))
	keys := map[int]Key{}
	var live []int // ids in launch order
	aim := -1
	var tm Timer
	reaim := func() {
		aim = -1
		for _, id := range live {
			if aim < 0 || keys[id].Before(keys[aim]) {
				aim = id
			}
		}
		if aim >= 0 {
			tm.ArmAt(keys[aim])
		} else {
			tm.Stop()
		}
	}
	remove := func(id int) {
		for i, l := range live {
			if l == id {
				live = append(live[:i], live[i+1:]...)
			}
		}
	}
	var launch func()
	expire := func(id int) {
		log = append(log, fmt.Sprintf("%d:fire%d", e.Now(), id))
		remove(id)
		if !perLaunch {
			reaim()
		}
		if rng.Intn(2) == 0 {
			launch()
		}
	}
	onEvent := func(v any) {
		id := v.(int)
		for _, l := range live {
			if l == id {
				expire(id)
				return
			}
		}
		noops++
	}
	tm = e.NewTimer(func(any) { expire(aim) }, nil)
	next := 0
	launch = func() {
		id, d := next, Time(10*(1+rng.Intn(4)))
		next++
		live = append(live, id)
		if perLaunch {
			e.AtArg(d, onEvent, id)
			return
		}
		keys[id] = e.Reserve(d)
		if aim < 0 || keys[id].Before(keys[aim]) {
			aim = id
			tm.ArmAt(keys[id])
		}
	}
	for i := 0; i < 400; i++ {
		e.At(Time(10*rng.Intn(100)), func() {
			switch op := rng.Intn(4); {
			case op == 0:
				// An event scheduled between a key's reservation and the
				// timer's arming at it, tying with the deadline.
				e.At(Time(10*rng.Intn(5)), func() { log = append(log, fmt.Sprintf("%d:echo%d", e.Now(), i)) })
			case op < 3:
				launch()
				log = append(log, fmt.Sprintf("%d:launch%d", e.Now(), next-1))
			case len(live) > 0:
				id := live[rng.Intn(len(live))]
				remove(id)
				if !perLaunch && id == aim {
					reaim()
				}
				log = append(log, fmt.Sprintf("%d:complete%d", e.Now(), id))
			}
		})
	}
	e.Run()
	return log, e.Executed(), noops
}

// TestTimerAtReservedKeysMatchesPerLaunchEvents: a timer kept at the
// smallest of the keys reserved one per deadline fires each expiring
// deadline exactly where its own event would have run, and the deadlines
// completed first cost nothing.
func TestTimerAtReservedKeysMatchesPerLaunchEvents(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		want, wantExec, noops := reservedProgram(seed, true)
		got, gotExec, _ := reservedProgram(seed, false)
		if !slices.Equal(got, want) {
			for i := range want {
				if i >= len(got) || got[i] != want[i] {
					t.Fatalf("seed %d: line %d: the timer logs %q, per-launch events %q", seed, i, append(got, "<end>")[i], want[i])
				}
			}
			t.Fatalf("seed %d: the timer logs %d lines, per-launch events %d", seed, len(got), len(want))
		}
		if noops == 0 || gotExec != wantExec-int64(noops) {
			t.Fatalf("seed %d: Executed() = %d with the timer, %d with per-launch events of which %d did nothing", seed, gotExec, wantExec, noops)
		}
	}
}
