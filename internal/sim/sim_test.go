package sim

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

func TestClockStartsAtZero(t *testing.T) {
	e := NewEnv()
	if e.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", e.Now())
	}
}

func TestAtRunsCallbacksInTimeOrder(t *testing.T) {
	e := NewEnv()
	var order []int
	e.At(30*Microsecond, func() { order = append(order, 3) })
	e.At(10*Microsecond, func() { order = append(order, 1) })
	e.At(20*Microsecond, func() { order = append(order, 2) })
	end := e.Run()
	if end != 30*Microsecond {
		t.Errorf("Run() = %v, want 30us", end)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v, want [1 2 3]", order)
	}
}

func TestEqualTimesFIFO(t *testing.T) {
	e := NewEnv()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5*Microsecond, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d, want %d (FIFO at equal times)", i, v, i)
		}
	}
}

func TestNegativeDelayPanics(t *testing.T) {
	e := NewEnv()
	defer func() {
		if recover() == nil {
			t.Fatal("At(-1) did not panic")
		}
	}()
	e.At(-1, func() {})
}

func TestProcSleepAdvancesClock(t *testing.T) {
	e := NewEnv()
	var woke Time
	e.Go("sleeper", func(p *Proc) {
		p.Sleep(42 * Microsecond)
		woke = p.Now()
	})
	e.Run()
	if woke != 42*Microsecond {
		t.Errorf("woke at %v, want 42us", woke)
	}
}

func TestProcsInterleaveDeterministically(t *testing.T) {
	e := NewEnv()
	var trace []string
	e.Go("a", func(p *Proc) {
		trace = append(trace, "a0")
		p.Sleep(10)
		trace = append(trace, "a1")
		p.Sleep(20)
		trace = append(trace, "a2")
	})
	e.Go("b", func(p *Proc) {
		trace = append(trace, "b0")
		p.Sleep(15)
		trace = append(trace, "b1")
	})
	e.Run()
	want := []string{"a0", "b0", "a1", "b1", "a2"}
	if len(trace) != len(want) {
		t.Fatalf("trace = %v, want %v", trace, want)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
}

func TestEventDeliversValue(t *testing.T) {
	e := NewEnv()
	ev := e.NewEvent()
	var got any
	e.Go("waiter", func(p *Proc) { got = p.Wait(ev) })
	e.At(5*Microsecond, func() { ev.Trigger("hello") })
	e.Run()
	if got != "hello" {
		t.Errorf("Wait = %v, want hello", got)
	}
}

func TestWaitOnTriggeredEventReturnsImmediately(t *testing.T) {
	e := NewEnv()
	ev := e.NewEvent()
	ev.Trigger(7)
	var got any
	var at Time
	e.Go("w", func(p *Proc) {
		p.Sleep(3 * Microsecond)
		got = p.Wait(ev)
		at = p.Now()
	})
	e.Run()
	if got != 7 || at != 3*Microsecond {
		t.Errorf("got %v at %v, want 7 at 3us", got, at)
	}
}

func TestDoubleTriggerPanics(t *testing.T) {
	e := NewEnv()
	ev := e.NewEvent()
	ev.Trigger(nil)
	defer func() {
		if recover() == nil {
			t.Fatal("second Trigger did not panic")
		}
	}()
	ev.Trigger(nil)
}

func TestMultipleWaitersResumeInOrder(t *testing.T) {
	e := NewEnv()
	ev := e.NewEvent()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		e.Go("", func(p *Proc) {
			p.Wait(ev)
			order = append(order, i)
		})
	}
	e.At(time1us(), func() { ev.Trigger(nil) })
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v, want ascending", order)
		}
	}
}

func time1us() Time { return Microsecond }

func TestProcDoneEvent(t *testing.T) {
	e := NewEnv()
	p1 := e.Go("child", func(p *Proc) { p.Sleep(10 * Microsecond) })
	var joined Time
	e.Go("parent", func(p *Proc) {
		p.Wait(p1.Done())
		joined = p.Now()
	})
	e.Run()
	if joined != 10*Microsecond {
		t.Errorf("joined at %v, want 10us", joined)
	}
	if !p1.Finished() {
		t.Error("child not finished")
	}
}

func TestKillUnwindsDefers(t *testing.T) {
	e := NewEnv()
	cleaned := false
	p := e.Go("victim", func(p *Proc) {
		defer func() { cleaned = true }()
		p.Sleep(Second)
	})
	e.At(10*Microsecond, func() { p.Kill() })
	e.Run()
	if !cleaned {
		t.Error("deferred cleanup did not run on Kill")
	}
	if !p.Finished() {
		t.Error("killed process not finished")
	}
	if e.LiveProcs() != 0 {
		t.Errorf("LiveProcs = %d, want 0", e.LiveProcs())
	}
}

func TestShutdownKillsParkedProcs(t *testing.T) {
	e := NewEnv()
	for i := 0; i < 20; i++ {
		ev := e.NewEvent() // never triggered
		e.Go("", func(p *Proc) { p.Wait(ev) })
	}
	e.Run()
	if e.LiveProcs() != 20 {
		t.Fatalf("LiveProcs = %d, want 20", e.LiveProcs())
	}
	e.Shutdown()
	if e.LiveProcs() != 0 {
		t.Errorf("after Shutdown LiveProcs = %d, want 0", e.LiveProcs())
	}
}

func TestProcPanicPropagates(t *testing.T) {
	e := NewEnv()
	e.Go("bad", func(p *Proc) { panic("boom") })
	defer func() {
		if recover() == nil {
			t.Fatal("process panic did not propagate to Run")
		}
	}()
	e.Run()
}

func TestRunUntilHorizon(t *testing.T) {
	e := NewEnv()
	fired := false
	e.At(100*Microsecond, func() { fired = true })
	end := e.RunUntil(50 * Microsecond)
	if end != 50*Microsecond || fired {
		t.Fatalf("RunUntil = %v fired=%v, want 50us false", end, fired)
	}
	e.Run()
	if !fired {
		t.Fatal("entry lost after horizon resume")
	}
}

func TestStopHaltsRun(t *testing.T) {
	e := NewEnv()
	n := 0
	e.Go("ticker", func(p *Proc) {
		for {
			p.Sleep(Microsecond)
			n++
			if n == 5 {
				e.Stop()
			}
		}
	})
	e.Run()
	if n != 5 {
		t.Fatalf("n = %d, want 5", n)
	}
	e.Shutdown()
}

func TestQueueFIFO(t *testing.T) {
	e := NewEnv()
	q := NewQueue[int](e, 0)
	var got []int
	e.Go("consumer", func(p *Proc) {
		for i := 0; i < 5; i++ {
			got = append(got, q.Get(p))
		}
	})
	e.Go("producer", func(p *Proc) {
		for i := 0; i < 5; i++ {
			q.Put(p, i)
			p.Sleep(Microsecond)
		}
	})
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("got = %v, want [0 1 2 3 4]", got)
		}
	}
}

func TestBoundedQueueBlocksPutter(t *testing.T) {
	e := NewEnv()
	q := NewQueue[int](e, 2)
	var putDone Time
	e.Go("producer", func(p *Proc) {
		q.Put(p, 1)
		q.Put(p, 2)
		q.Put(p, 3) // blocks until a Get
		putDone = p.Now()
	})
	e.Go("consumer", func(p *Proc) {
		p.Sleep(10 * Microsecond)
		q.Get(p)
	})
	e.Run()
	if putDone != 10*Microsecond {
		t.Errorf("third Put completed at %v, want 10us", putDone)
	}
}

func TestQueueTryOps(t *testing.T) {
	e := NewEnv()
	q := NewQueue[string](e, 1)
	if _, ok := q.TryGet(); ok {
		t.Fatal("TryGet on empty queue succeeded")
	}
	if !q.TryPut("x") {
		t.Fatal("TryPut on empty bounded queue failed")
	}
	if q.TryPut("y") {
		t.Fatal("TryPut on full queue succeeded")
	}
	v, ok := q.TryGet()
	if !ok || v != "x" {
		t.Fatalf("TryGet = %q,%v, want x,true", v, ok)
	}
}

func TestResourceSerializes(t *testing.T) {
	e := NewEnv()
	r := NewResource(e, 1)
	var finish []Time
	for i := 0; i < 3; i++ {
		e.Go("", func(p *Proc) {
			r.Use(p, 10*Microsecond)
			finish = append(finish, p.Now())
		})
	}
	e.Run()
	want := []Time{10 * Microsecond, 20 * Microsecond, 30 * Microsecond}
	for i := range want {
		if finish[i] != want[i] {
			t.Fatalf("finish = %v, want %v", finish, want)
		}
	}
}

func TestResourceParallelSlots(t *testing.T) {
	e := NewEnv()
	r := NewResource(e, 2)
	var finish []Time
	for i := 0; i < 4; i++ {
		e.Go("", func(p *Proc) {
			r.Use(p, 10*Microsecond)
			finish = append(finish, p.Now())
		})
	}
	e.Run()
	want := []Time{10 * Microsecond, 10 * Microsecond, 20 * Microsecond, 20 * Microsecond}
	for i := range want {
		if finish[i] != want[i] {
			t.Fatalf("finish = %v, want %v", finish, want)
		}
	}
}

// TestResourceReleaserReacquiresFirst pins the semaphore's one departure
// from FIFO: a holder that releases and acquires again in the same dispatch
// takes the slot before the waiter its release woke, which queues again at
// the tail. Two processes that each hold a one-slot resource three times in
// a row therefore run A's three turns, then B's.
func TestResourceReleaserReacquiresFirst(t *testing.T) {
	e := NewEnv()
	r := NewResource(e, 1)
	var log []string
	for _, name := range []string{"A", "B"} {
		e.Go(name, func(p *Proc) {
			for i := 0; i < 3; i++ {
				r.Use(p, 10)
				log = append(log, fmt.Sprintf("%s%d@%d", name, i, p.Now()))
			}
		})
	}
	e.Run()
	if got, want := strings.Join(log, " "), "A0@10 A1@20 A2@30 B0@40 B1@50 B2@60"; got != want {
		t.Errorf("turns %s, want %s", got, want)
	}
}

func TestReleaseWithoutAcquirePanics(t *testing.T) {
	e := NewEnv()
	r := NewResource(e, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("Release without Acquire did not panic")
		}
	}()
	r.Release()
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500, "500ns"},
		{12500, "12.50us"},
		{3200 * Microsecond, "3.200ms"},
		{2 * Second, "2.000s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

// Property: for any set of non-negative delays, callbacks fire in
// nondecreasing time order and the final clock equals the max delay.
func TestPropCallbackOrdering(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEnv()
		var fired []Time
		var max Time
		for _, d := range delays {
			d := Time(d) * Microsecond
			if d > max {
				max = d
			}
			e.At(d, func() { fired = append(fired, e.Now()) })
		}
		end := e.Run()
		if len(delays) > 0 && end != max {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(fired) == len(delays)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: queue preserves exact FIFO contents for any input sequence.
func TestPropQueueFIFO(t *testing.T) {
	f := func(vals []int32) bool {
		e := NewEnv()
		q := NewQueue[int32](e, 0)
		var got []int32
		e.Go("c", func(p *Proc) {
			for range vals {
				got = append(got, q.Get(p))
			}
		})
		e.Go("p", func(p *Proc) {
			for _, v := range vals {
				q.Put(p, v)
			}
		})
		e.Run()
		if len(got) != len(vals) {
			return false
		}
		for i := range vals {
			if got[i] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Determinism: the same program produces the identical trace twice.
func TestDeterminism(t *testing.T) {
	run := func() []Time {
		e := NewEnv()
		var trace []Time
		q := NewQueue[int](e, 3)
		for i := 0; i < 4; i++ {
			i := i
			e.Go("", func(p *Proc) {
				for j := 0; j < 5; j++ {
					p.Sleep(Time(i+1) * Microsecond)
					q.Put(p, i)
					trace = append(trace, p.Now())
				}
			})
		}
		e.Go("drain", func(p *Proc) {
			for k := 0; k < 20; k++ {
				q.Get(p)
				p.Sleep(2 * Microsecond)
				trace = append(trace, p.Now())
			}
		})
		e.Run()
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestExecutedCountsDispatchedEntries(t *testing.T) {
	env := NewEnv()
	if env.Executed() != 0 {
		t.Fatalf("fresh env executed %d entries", env.Executed())
	}
	for i := 0; i < 5; i++ {
		env.At(Time(i), func() {})
	}
	env.Step()
	if env.Executed() != 1 {
		t.Errorf("after one Step: executed = %d, want 1", env.Executed())
	}
	env.Run()
	if env.Executed() != 5 {
		t.Errorf("after Run: executed = %d, want 5", env.Executed())
	}
	// Entries scheduled beyond the horizon stay pending and uncounted.
	env.At(100, func() {})
	env.RunUntil(env.Now() + 1)
	if env.Executed() != 5 || env.Pending() != 1 {
		t.Errorf("horizon run: executed = %d pending = %d", env.Executed(), env.Pending())
	}
}
