package sim

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// runPanic runs fn and returns the value it panicked with (nil if none).
func runPanic(fn func()) (r any) {
	defer func() { r = recover() }()
	fn()
	return nil
}

// TestKillBeforeFirstActivation: a process killed before its first resume
// never runs its body, is off the live set at once, and the kindResume
// entry Go scheduled for it is skipped at dispatch.
func TestKillBeforeFirstActivation(t *testing.T) {
	e := NewEnv()
	ran := false
	p := e.Go("stillborn", func(p *Proc) { ran = true })
	p.Kill()
	if !p.Finished() || e.LiveProcs() != 0 {
		t.Fatalf("after Kill: finished=%v live=%d, want true 0", p.Finished(), e.LiveProcs())
	}
	e.Run()
	if ran {
		t.Error("body of a process killed before activation ran")
	}
	if !p.Done().Triggered() {
		t.Error("Done of a killed process is not triggered")
	}
}

// TestKillFromAnotherProcess kills a parked process from inside a running
// one — a resume nested in a resume. The victim's defers run inside the
// Kill call and the killer carries on afterwards.
func TestKillFromAnotherProcess(t *testing.T) {
	e := NewEnv()
	var log []string
	victim := e.Go("victim", func(p *Proc) {
		defer func() { log = append(log, fmt.Sprintf("victim unwound at %dus", p.Now()/Microsecond)) }()
		p.Wait(e.NewEvent()) // never triggered
		log = append(log, "victim resumed")
	})
	e.Go("killer", func(p *Proc) {
		p.Sleep(5 * Microsecond)
		victim.Kill()
		log = append(log, fmt.Sprintf("killer after Kill, victim finished=%v", victim.Finished()))
		p.Sleep(5 * Microsecond)
		log = append(log, fmt.Sprintf("killer done at %dus", p.Now()/Microsecond))
	})
	e.Run()
	want := "victim unwound at 5us; killer after Kill, victim finished=true; killer done at 10us"
	if got := strings.Join(log, "; "); got != want {
		t.Errorf("got  %s\nwant %s", got, want)
	}
	if e.LiveProcs() != 0 {
		t.Errorf("LiveProcs = %d, want 0", e.LiveProcs())
	}
}

func TestSelfKillPanics(t *testing.T) {
	e := NewEnv()
	e.Go("suicidal", func(p *Proc) { p.Kill() })
	want := `sim: panic in process "suicidal": sim: process cannot Kill itself`
	if r := runPanic(func() { e.Run() }); r != want {
		t.Errorf("panic = %v, want %q", r, want)
	}
}

// TestProcPanicMessage pins the surfaced panic byte for byte, on a classic
// environment and through a 2-shard world (sequential and parallel
// workers), and that the environment is left in scheduler context: the
// Shutdown that follows a failed point must work.
func TestProcPanicMessage(t *testing.T) {
	const want = `sim: panic in process "bad": boom 7`
	body := func(p *Proc) {
		p.Sleep(Microsecond)
		panic(fmt.Sprintf("boom %d", 7))
	}
	t.Run("classic", func(t *testing.T) {
		e := NewEnv()
		e.Go("bystander", func(p *Proc) { p.Wait(e.NewEvent()) })
		e.Go("bad", body)
		if r := runPanic(func() { e.Run() }); r != want {
			t.Errorf("panic = %v, want %q", r, want)
		}
		e.Shutdown()
		if e.LiveProcs() != 0 {
			t.Errorf("LiveProcs = %d after Shutdown, want 0", e.LiveProcs())
		}
	})
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("sharded/workers=%d", workers), func(t *testing.T) {
			e := NewEnv()
			e.SetShardWorkers(workers)
			views := e.Partition(2)
			e.RegisterLookahead(10 * Microsecond)
			views[0].Go("bystander", func(p *Proc) { p.Sleep(5 * Microsecond) })
			views[1].Go("bad", body)
			if r := runPanic(func() { e.Run() }); r != want {
				t.Errorf("panic = %v, want %q", r, want)
			}
			e.Shutdown()
		})
	}
}

// TestDoneTriggersOnPanic: a process parked on Done() of one that panics is
// released like any other waiter once the run is resumed.
func TestDoneTriggersOnPanic(t *testing.T) {
	e := NewEnv()
	bad := e.Go("bad", func(p *Proc) {
		p.Sleep(Microsecond)
		panic("boom")
	})
	joined := false
	e.Go("watcher", func(p *Proc) {
		p.Wait(bad.Done())
		joined = true
	})
	if runPanic(func() { e.Run() }) == nil {
		t.Fatal("process panic did not propagate to Run")
	}
	e.Run()
	if !joined {
		t.Error("waiter on Done() of a panicked process was never released")
	}
}

// TestGoexitInProcessReachesResumer: runtime.Goexit in a body (what
// t.FailNow does) ends the goroutine that was running the scheduler instead
// of leaving it blocked forever on a goroutine that is gone.
func TestGoexitInProcessReachesResumer(t *testing.T) {
	e := NewEnv()
	cleaned := false
	e.Go("parked", func(p *Proc) { p.Wait(e.NewEvent()) })
	e.Go("quitter", func(p *Proc) {
		defer func() { cleaned = true }()
		p.Sleep(Microsecond)
		runtime.Goexit()
	})
	returned := false
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		e.Run()
		returned = true
	}()
	<-exited
	if returned {
		t.Error("Run returned normally; the Goexit was swallowed")
	}
	if !cleaned {
		t.Error("the exiting body's defers did not run")
	}
	if e.LiveProcs() != 1 {
		t.Errorf("LiveProcs = %d, want 1 (the exited process is off the live set)", e.LiveProcs())
	}
	e.Shutdown()
	if e.LiveProcs() != 0 {
		t.Errorf("LiveProcs = %d after Shutdown, want 0", e.LiveProcs())
	}
}

// TestSchedulerEntryPointsFromProcessPanic: Run, RunUntil, Step and
// Shutdown called from a process body fail loudly instead of re-entering
// the dispatch loop underneath the caller.
func TestSchedulerEntryPointsFromProcessPanic(t *testing.T) {
	calls := map[string]func(e *Env){
		"Run":      func(e *Env) { e.Run() },
		"RunUntil": func(e *Env) { e.RunUntil(Second) },
		"Step":     func(e *Env) { e.Step() },
		"Shutdown": func(e *Env) { e.Shutdown() },
	}
	for name, call := range calls {
		t.Run(name, func(t *testing.T) {
			e := NewEnv()
			e.At(Microsecond, func() {})
			e.Go("reentrant", func(p *Proc) { call(p.Env()) })
			r, _ := runPanic(func() { e.Run() }).(string)
			if !strings.HasPrefix(r, `sim: panic in process "reentrant": sim: Run, RunUntil, Step and Shutdown must be called from outside process context`) {
				t.Errorf("panic = %q", r)
			}
		})
	}
}

// idleCarrierSet snapshots the free list.
func idleCarrierSet() map[*carrier]bool {
	idleCarriers.Lock()
	defer idleCarriers.Unlock()
	set := make(map[*carrier]bool, len(idleCarriers.free))
	for _, c := range idleCarriers.free {
		set[c] = true
	}
	return set
}

// TestCarrierReuse: worlds built, run and shut down one after another run on
// the same carriers. The goroutine count stays where the first world left
// it, and a second batch leaves the free list holding exactly the carriers
// the first did — none was created, none lost.
func TestCarrierReuse(t *testing.T) {
	batch := func() {
		for w := 0; w < 1000; w++ {
			e := NewEnv()
			for i := 0; i < 16; i++ {
				if i%2 == 0 {
					e.Go("", func(p *Proc) { p.Sleep(Time(i) * Microsecond) })
				} else {
					e.Go("", func(p *Proc) { p.Wait(e.NewEvent()) })
				}
			}
			e.Run()
			e.Shutdown()
			if e.LiveProcs() != 0 {
				t.Fatalf("world %d: LiveProcs = %d after Shutdown", w, e.LiveProcs())
			}
		}
	}
	batch()
	goroutines, idle := runtime.NumGoroutine(), idleCarrierSet()
	if len(idle) < 16 {
		t.Fatalf("%d idle carriers after a batch of 16-process worlds, want >= 16", len(idle))
	}
	batch()
	// Not !=: a goroutine an earlier test left exiting may go in between.
	if n := runtime.NumGoroutine(); n > goroutines {
		t.Errorf("NumGoroutine = %d after the second batch, %d after the first", n, goroutines)
	}
	after := idleCarrierSet()
	if len(after) != len(idle) {
		t.Errorf("%d idle carriers after the second batch, %d after the first", len(after), len(idle))
	}
	for c := range after {
		if !idle[c] {
			t.Error("the second batch created a carrier")
			break
		}
	}
}

// TestCarrierPoolBounded: a world far larger than the pool returns at most
// maxIdleCarriers goroutines to it; the rest exit.
func TestCarrierPoolBounded(t *testing.T) {
	before := runtime.NumGoroutine() - len(idleCarrierSet())
	e := NewEnv()
	for i := 0; i < 3*maxIdleCarriers; i++ {
		e.Go("", func(p *Proc) { p.Wait(e.NewEvent()) })
	}
	e.Run()
	e.Shutdown()
	idle := len(idleCarrierSet())
	if idle != maxIdleCarriers {
		t.Errorf("%d idle carriers, want the bound %d", idle, maxIdleCarriers)
	}
	if n := runtime.NumGoroutine() - idle; n > before {
		t.Errorf("%d goroutines besides idle carriers, %d before", n, before)
	}
}

// echoWorld starts n processes on e, each of which goes `rounds` times
// around a loop of parking on an event of its own that a timer triggers
// with a value naming the process and the round, and checks that the value
// it wakes with is that one. Every third process spawns a child mid-run
// that does the same. It returns a function reporting how many wake-ups
// were checked.
func echoWorld(t *testing.T, e *Env, tag string, n, rounds int) func() int {
	checked := make([]int, 2*n)
	var body func(id int) func(p *Proc)
	body = func(id int) func(p *Proc) {
		return func(p *Proc) {
			env := p.Env()
			for r := 0; r < rounds; r++ {
				want := fmt.Sprintf("%s/%d/%d", tag, id, r)
				ev := env.NewEvent()
				env.At(Time(1+(id+r)%7)*Microsecond, func() { ev.Trigger(want) })
				if got := p.Wait(ev); got != want {
					t.Errorf("process %s/%d woke with %v, want %v", tag, id, got, want)
				}
				checked[id]++
				if r == 1 && id < n && id%3 == 0 {
					env.Go("", body(n+id))
				}
			}
		}
	}
	for id := 0; id < n; id++ {
		e.Go("", body(id))
	}
	return func() int {
		sum := 0
		for _, c := range checked {
			sum += c
		}
		return sum
	}
}

// TestConcurrentSpawn takes and returns carriers from many goroutines at
// once — eight building and running private environments (the -par shape)
// beside a partitioned world whose shard workers spawn mid-window — and
// checks that every process is woken with its own values and no other's.
// The race detector checks the rest.
func TestConcurrentSpawn(t *testing.T) {
	const procs, rounds = 12, 6
	perWorld := (procs + (procs+2)/3) * rounds
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for w := 0; w < 40; w++ {
				e := NewEnv()
				count := echoWorld(t, e, fmt.Sprintf("g%d.w%d", g, w), procs, rounds)
				e.Run()
				if got := count(); got != perWorld {
					t.Errorf("goroutine %d world %d: %d wake-ups checked, want %d", g, w, got, perWorld)
				}
				e.Shutdown()
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for w := 0; w < 10; w++ {
			e := NewEnv()
			e.SetShardWorkers(3)
			views := e.Partition(3)
			e.RegisterLookahead(20 * Microsecond)
			var counts []func() int
			for s, v := range views {
				counts = append(counts, echoWorld(t, v, fmt.Sprintf("w%d.s%d", w, s), procs, rounds))
			}
			e.Run()
			for s, count := range counts {
				if got := count(); got != perWorld {
					t.Errorf("world %d shard %d: %d wake-ups checked, want %d", w, s, got, perWorld)
				}
			}
			e.Shutdown()
		}
	}()
	wg.Wait()
}
