package sim

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// refRunUntil is the single-heap dispatch loop RunUntil ran before an
// unpartitioned environment became a one-shard world, kept verbatim as the
// reference the window loop is checked against — except that its stop flag
// is the world's, the only one left.
func refRunUntil(e *Env, horizon Time) Time {
	e.schedulerOnly()
	e.world.stopped.Store(false)
	for !e.queue.empty() && !e.world.stopped.Load() {
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
	if !e.world.stopped.Load() {
		// Heap drained: fire samples through the final clock. After a Stop
		// the tail is deliberately unsampled — the stopping event decided
		// the run is over, and (on a sharded world) peers may not have
		// settled, so a post-Stop sample would not be a consistent prefix.
		e.fireSamples(e.now)
	}
	return e.now
}

// loopProgram is one seeded random simulation: callbacks, pipes, timers,
// processes, a sampler and Stops, all logging into one trace. Times fall on a
// coarse grid, so ties are common and a Stop often lands on a sample time.
type loopProgram struct {
	e       *Env
	rng     *rand.Rand
	log     []string
	budget  int
	pipes   []*Pipe
	timers  []*Timer
	events  []*Event
	onArg   func(any)
	onPiped func(any)
}

const loopGrid = 10

func newLoopProgram(seed int64) *loopProgram {
	p := &loopProgram{e: NewEnv(), rng: rand.New(rand.NewSource(seed)), budget: 400}
	p.onArg = func(v any) { p.fire("arg", v.(int)) }
	p.onPiped = func(v any) { p.fire("pipe", v.(int)) }
	for i := 0; i < 3; i++ {
		pipe := p.e.NewPipe()
		p.pipes = append(p.pipes, &pipe)
		i := i
		tm := p.e.NewTimer(func(any) { p.fire("timer", i) }, nil)
		p.timers = append(p.timers, &tm)
		p.events = append(p.events, p.e.NewEvent())
	}
	if every := Time(p.rng.Intn(5)) * loopGrid; every > 0 {
		if p.rng.Intn(3) == 0 {
			every += 3 // off the grid now and then
		}
		p.e.SetSampler(every, func(at Time) {
			p.logf("sample %d exec=%d now=%d", at, p.e.Executed(), p.e.Now())
		})
	}
	for i := 0; i < 3; i++ {
		i := i
		p.e.Go(fmt.Sprintf("proc%d", i), func(pr *Proc) {
			for j := 0; j < 8; j++ {
				pr.Sleep(p.delay())
				p.logf("proc%d.%d@%d", i, j, pr.Now())
				if p.rng.Intn(3) == 0 {
					k := p.rng.Intn(len(p.events))
					p.logf("proc%d woke on ev%d=%v@%d", i, k, pr.Wait(p.events[k]), pr.Now())
				}
			}
		})
	}
	for i := 0; i < 12; i++ {
		p.spawn()
	}
	return p
}

func (p *loopProgram) logf(format string, args ...any) {
	p.log = append(p.log, fmt.Sprintf(format, args...))
}

func (p *loopProgram) delay() Time { return Time(p.rng.Intn(8)) * loopGrid }

// fire logs a dispatch and schedules up to two more pieces of work.
func (p *loopProgram) fire(kind string, id int) {
	p.logf("%s%d@%d", kind, id, p.e.Now())
	for n := p.rng.Intn(3); n > 0; n-- {
		p.spawn()
	}
}

// spawn schedules one random piece of work while the budget lasts.
func (p *loopProgram) spawn() {
	if p.budget == 0 {
		return
	}
	p.budget--
	id := p.budget
	switch p.rng.Intn(8) {
	case 0:
		p.e.At(p.delay(), func() { p.fire("at", id) })
	case 1:
		p.e.AtArg(p.delay(), p.onArg, id)
	case 2, 3:
		// Mostly monotone, so entries queue behind a standing head; a
		// shorter delay now and then sends one to the heap on its own.
		p.pipes[p.rng.Intn(len(p.pipes))].AtArg(p.delay(), p.onPiped, id)
	case 4:
		p.timers[p.rng.Intn(len(p.timers))].Reset(p.delay())
	case 5:
		p.timers[p.rng.Intn(len(p.timers))].Stop()
	case 6:
		ev := p.events[p.rng.Intn(len(p.events))]
		p.e.At(p.delay(), func() {
			if !ev.Triggered() {
				ev.Trigger(id)
			}
		})
	case 7:
		if p.rng.Intn(3) == 0 {
			p.e.At(p.delay(), func() {
				p.logf("stop%d@%d", id, p.e.Now())
				p.e.Stop()
			})
		} else {
			p.e.At(p.delay(), func() { p.fire("at", id) })
		}
	}
}

// drive runs the program through increasing horizons with run, then to
// quiescence, and returns its trace.
func (p *loopProgram) drive(run func(e *Env, horizon Time) Time) string {
	horizons := rand.New(rand.NewSource(p.rng.Int63()))
	h := Time(horizons.Intn(30))
	for slice := 0; slice < 60 && p.e.Pending() > 0; slice++ {
		ret := run(p.e, h)
		p.logf("slice %d: ret=%d now=%d exec=%d pending=%d", h, ret, p.e.Now(), p.e.Executed(), p.e.Pending())
		h += Time(1 + horizons.Intn(60))
	}
	ret := run(p.e, maxTime)
	p.logf("drained: ret=%d now=%d exec=%d pending=%d live=%d digest=%016x",
		ret, p.e.Now(), p.e.Executed(), p.e.Pending(), p.e.LiveProcs(), p.e.Digest())
	p.e.Shutdown()
	return strings.Join(p.log, "\n")
}

// TestOneLoopMatchesClassicLoop drives seeded random programs through the
// reference single-heap loop and through RunUntil's window loop on a
// one-shard world: every dispatch, every slice's return value and clock,
// Executed, Pending, and every sample — its time and the events it saw —
// must agree.
func TestOneLoopMatchesClassicLoop(t *testing.T) {
	stops, samples := 0, 0
	for seed := int64(1); seed <= 30; seed++ {
		want := newLoopProgram(seed).drive(refRunUntil)
		got := newLoopProgram(seed).drive(func(e *Env, h Time) Time { return e.RunUntil(h) })
		if got != want {
			wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
			i := 0
			for i < len(wl) && i < len(gl) && wl[i] == gl[i] {
				i++
			}
			line := func(ls []string) string {
				if i < len(ls) {
					return ls[i]
				}
				return "(end of trace)"
			}
			t.Fatalf("seed %d: traces diverge at line %d:\n classic:  %s\n one loop: %s", seed, i+1, line(wl), line(gl))
		}
		stops += strings.Count(want, "\nstop")
		samples += strings.Count(want, "\nsample")
	}
	if stops < 10 || samples < 100 {
		t.Fatalf("programs too tame: %d stops, %d samples over 30 seeds", stops, samples)
	}
}

// TestRunLoopMisusePanics: calls the run loop cannot serve fail loudly.
func TestRunLoopMisusePanics(t *testing.T) {
	for _, c := range []struct {
		name, want string
		call       func()
	}{
		{"RunUntil before now", "sim: RunUntil horizon 5.000ms is before now 15.000ms", func() {
			e := NewEnv()
			e.At(10*Millisecond, func() {})
			e.At(20*Millisecond, func() {})
			e.RunUntil(15 * Millisecond)
			e.RunUntil(5 * Millisecond)
		}},
		{"Step on a partitioned world", "sim: Step on a partitioned world", func() {
			e := NewEnv()
			views := e.Partition(2)
			e.RegisterLookahead(Microsecond)
			views[1].At(Microsecond, func() {})
			e.Step()
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			if r := fmt.Sprint(runPanic(c.call)); !strings.HasPrefix(r, c.want) {
				t.Fatalf("panic = %q, want prefix %q", r, c.want)
			}
		})
	}
}
