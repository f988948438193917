package sim

import (
	"fmt"
	"strings"
	"testing"
)

// busy loads e with a world mid-run: pipes deep with entries, processes
// asleep and parked on events others hold, a timer armed, pooled events out
// and back. It returns the pipe program, whose handlers Stop now and then.
func busy(e *Env, seed int64) *pipeProgram {
	p := newPipeProgramOn(e, seed, true)
	p.budget = 400
	for i := 0; i < 200; i++ {
		p.schedule()
	}
	for i := 0; i < 8; i++ {
		e.Go("", func(pr *Proc) {
			for {
				pr.Sleep(Time(3 + i))
			}
		})
		e.Go("", func(pr *Proc) { pr.Wait(e.NewEvent()) })
		e.Go("", func(pr *Proc) { pr.Sleep(Time(1 + i)) }) // done before the stop: its event is free
	}
	tm := e.NewTimer(func(any) {}, nil)
	tm.Reset(Second)
	return p
}

// strand builds a busy world on e and abandons it mid-run, with warm lists.
// It returns the pipes, for looking at once the world is gone.
func strand(e *Env, seed int64) []Pipe {
	p := busy(e, seed)
	for e.Now() < 30 {
		e.RunUntil(30)
	}
	if e.Pending() < 50 || e.nodes.Len() == 0 || e.evFree.Len() == 0 {
		t := fmt.Sprintf("pending %d, free pipe nodes %d, free events %d", e.Pending(), e.nodes.Len(), e.evFree.Len())
		panic("strand: the world is not mid-run with warm freelists: " + t)
	}
	e.Shutdown()
	return p.pipes
}

// TestArenaWorldMatchesFresh: a world on an arena that other worlds were
// stranded on runs exactly as on sim.NewEnv — same dispatch log, clock,
// Executed() and Pending() at every slice.
func TestArenaWorldMatchesFresh(t *testing.T) {
	a := NewArena()
	for seed := int64(1); seed <= 20; seed++ {
		dead := a.NewEnv()
		strand(dead, seed)
		a.Reclaim(dead)

		ref, got := newPipeProgram(seed, true), newPipeProgramOn(a.NewEnv(), seed, true)
		ref.run()
		got.run()
		if fmt.Sprint(ref.log) != fmt.Sprint(got.log) {
			t.Fatalf("seed %d: the world on the arena diverges from the fresh one", seed)
		}
		a.Reclaim(got.env)
	}
}

// crossRun runs a pipe program on each view of root, partitioned into two
// shards on one worker, whose handlers also hop to the other view now and
// then, in three bursts like pipeProgram.run, and returns the dispatch log.
func crossRun(root *Env, seed int64) string {
	views := root.Partition(2)
	root.RegisterLookahead(5)
	progs := make([]*pipeProgram, len(views))
	for i, v := range views {
		progs[i] = newPipeProgramOn(v, seed+int64(i), true)
	}
	cross(progs)
	var log []string
	for burst := 0; burst < 3; burst++ {
		for _, p := range progs {
			p.budget = 400
			for i := 0; i < 50; i++ {
				p.schedule()
			}
		}
		for root.Pending() > 0 {
			root.RunUntil(root.Now() + Time(1+progs[0].rng.Intn(25)))
			log = append(log, fmt.Sprintf("now=%d executed=%d pending=%d", root.Now(), root.Executed(), root.Pending()))
		}
	}
	for _, p := range progs {
		log = append(log, p.log...)
	}
	return fmt.Sprint(log)
}

// cross makes the handler of each view's pipe program send one in eight of
// its firings on to the next view's program, and never Stop: a Stop leaves a
// partitioned world's shards at clocks its input does not fix (ROADMAP 6(a)).
func cross(progs []*pipeProgram) {
	for i, p := range progs {
		p.noStop = true
		next, fire := progs[(i+1)%len(progs)], p.fire
		p.fire = func(v any) {
			fire(v)
			if p.rng.Intn(8) == 0 {
				p.env.AtArgOn(next.env, 5+Time(p.rng.Intn(20)), next.fire, v)
			}
		}
	}
}

// TestArenaReclaimsAfterPanic: a world whose kernel a panic stopped
// mid-dispatch — in a pipe's handler or in a process, with pipes deep,
// timers armed and processes parked, on one shard or on one of two shards
// running the window in parallel — is reclaimed like any other: the next
// worlds on its arena, on one shard and on two, run exactly as on NewEnv.
func TestArenaReclaimsAfterPanic(t *testing.T) {
	boom := func(any) { panic("boom") }
	for _, shards := range []int{1, 2} {
		for _, in := range []string{"callback", "process"} {
			t.Run(fmt.Sprintf("shards=%d/%s", shards, in), func(t *testing.T) {
				a := NewArena()
				for seed := int64(1); seed <= 4; seed++ {
					root := a.NewEnv()
					root.SetShardWorkers(2)
					views := root.Partition(shards)
					progs := make([]*pipeProgram, len(views))
					for i, v := range views {
						progs[i] = busy(v, seed+int64(i))
					}
					if shards > 1 {
						root.RegisterLookahead(5)
						cross(progs)
						for _, p := range progs {
							for i := 0; i < 50; i++ {
								p.schedule()
							}
						}
					}
					victim := views[len(views)-1]
					if in == "callback" {
						p := victim.NewPipe()
						p.AtArg(20, boom, nil)
						p.AtArg(25, func(any) {}, nil)
					} else {
						victim.Go("", func(pr *Proc) { pr.Sleep(20); boom(nil) })
					}
					r := func() (r any) {
						defer func() { r = recover() }()
						for root.Now() < 40 {
							root.RunUntil(40)
						}
						return nil
					}()
					if !strings.Contains(fmt.Sprint(r), "boom") {
						t.Fatalf("seed %d: the world ran on without the panic (recovered %v)", seed, r)
					}
					if root.Pending() < 50 || root.LiveProcs() == 0 {
						t.Fatalf("seed %d: the panic left %d entries pending, %d processes: not mid-run", seed, root.Pending(), root.LiveProcs())
					}
					root.Shutdown()
					a.Reclaim(root)
					if a.Records() == 0 {
						t.Fatalf("seed %d: the failed world gave its arena nothing back", seed)
					}

					ref, got := newPipeProgram(seed, true), newPipeProgramOn(a.NewEnv(), seed, true)
					ref.run()
					got.run()
					if fmt.Sprint(ref.log) != fmt.Sprint(got.log) {
						t.Fatalf("seed %d: the world on the arena diverges from the fresh one", seed)
					}
					a.Reclaim(got.env)
					next := a.NewEnv()
					if crossRun(NewEnv(), seed) != crossRun(next, seed) {
						t.Fatalf("seed %d: the two-shard world on the arena diverges from the fresh one", seed)
					}
					next.Shutdown()
					a.Reclaim(next)
				}
			})
		}
	}
}

// TestArenaKeepsNothingOfTheWorld: what Reclaim keeps is memory, not state.
// Every kept object is as released — zeroed, the nodes still waiting in the
// dead world's pipes among them — and the environment it served holds none
// of it any more, so a dead world does not live on through its arena.
func TestArenaKeepsNothingOfTheWorld(t *testing.T) {
	a := NewArena()
	e := a.NewEnv()
	pipes := strand(e, 7)
	waiting, free := 0, e.nodes.Len()
	for _, p := range pipes {
		for n := p.head; n != nil; n = n.next {
			waiting++
		}
	}
	a.Reclaim(e)

	if e.Pending() != 0 || e.queue.s != nil || e.evFree.free != nil || e.nodes.free != nil {
		t.Errorf("the reclaimed world still holds recycled memory (Pending() = %d)", e.Pending())
	}
	m := &a.shards[0]
	if len(m.heap) != 0 || cap(m.heap) == 0 {
		t.Fatalf("kept heap has len %d cap %d, want an empty backing array", len(m.heap), cap(m.heap))
	}
	for i, ent := range m.heap[:cap(m.heap)] {
		if ent != (entry{}) {
			t.Fatalf("kept heap slot %d still holds an entry of the dead world", i)
		}
	}
	if waiting == 0 || m.nodes.Len() != free+waiting {
		t.Errorf("%d pipe nodes kept, %d free and %d waiting in pipes at the stop: the waiting ones did not come back", m.nodes.Len(), free, waiting)
	}
	for i, n := range m.nodes.free {
		if n.fn != nil || n.val != nil || n.at != 0 || n.seq != 0 || n.next != nil {
			t.Fatalf("kept pipe node %d still holds a dead world's entry", i)
		}
	}
	evs := m.evFree.free
	if len(evs) == 0 {
		t.Fatal("no pooled event kept")
	}
	for _, ev := range evs[len(evs):cap(evs)] {
		if ev != nil {
			t.Fatal("the event list's array still names, past its end, an event the dead world took")
		}
	}
	for _, ev := range evs {
		if ev.env != nil || ev.triggered || ev.val != nil {
			t.Fatal("a kept event still belongs to the dead world")
		}
		for _, w := range ev.waiters[:cap(ev.waiters)] {
			if w != nil {
				t.Fatal("a kept event's waiter array still names a dead process")
			}
		}
	}

	// The next world starts with it.
	next := a.NewEnv()
	if next.nodes.Len() == 0 || next.evFree.Len() == 0 || cap(next.queue.s) == 0 {
		t.Fatal("the next world did not receive the arena's memory")
	}
	ev := next.AcquireEvent()
	if ev.env != next {
		t.Error("a pooled event from the arena is still bound to the environment that released it")
	}
}

// TestArenaServesOneWorldAtATime: while an arena's memory is out, NewEnv is
// sim.NewEnv; only the borrower gives anything back; a nil arena is no arena.
func TestArenaServesOneWorldAtATime(t *testing.T) {
	a := NewArena()
	first := a.NewEnv()
	strand(first, 3)
	second := a.NewEnv()
	strand(second, 4)
	a.Reclaim(second) // not the borrower: nothing to take
	if len(a.shards) != 0 || !a.lent {
		t.Fatal("an environment that did not borrow from the arena was reclaimed into it")
	}
	a.Reclaim(first)
	if a.lent || a.shards[0].nodes.Len() == 0 {
		t.Fatal("the borrower's memory did not come back")
	}
	kept := a.shards[0].nodes.free
	a.Reclaim(first) // again: already given back
	if got := a.shards[0].nodes.free; len(got) != len(kept) || &got[0] != &kept[0] {
		t.Fatal("reclaiming twice disturbed the arena")
	}
	var none *Arena
	e := none.NewEnv()
	strand(e, 5)
	none.Reclaim(e)
}

// TestArenaPerShardIndex: a partitioned world returns each view's memory
// under its shard index and the next one gets it back at the same index —
// also the layers' freelists — while a classic world in between uses index 0
// alone.
func TestArenaPerShardIndex(t *testing.T) {
	type mark struct{ i int }
	keep := func(*mark) {} // a reset that keeps the mark, to tell records apart
	a := NewArena()
	root := a.NewEnv()
	views := root.Partition(3)
	root.RegisterLookahead(Millisecond)
	marks := make([]*mark, len(views))
	for i, v := range views {
		marks[i] = FreeOf(v, keep).Get()
		marks[i].i = 100 + i
		FreeOf(v, keep).Put(marks[i])
		ev := v.AcquireEvent()
		v.ReleaseEvent(ev)
		p := v.NewPipe()
		p.AtArg(Second, func(any) {}, nil) // stranded
		v.AtArgOn(views[(i+1)%3], Millisecond, func(any) {}, nil)
	}
	root.RunUntil(2 * Millisecond)
	root.Shutdown()
	a.Reclaim(root)
	if len(a.shards) != 3 {
		t.Fatalf("arena holds %d shard sets after a 3-shard world, want 3", len(a.shards))
	}

	classic := a.NewEnv()
	if got := FreeOf(classic, keep).Get(); got != marks[0] {
		t.Error("the classic world did not get shard 0's layer memory")
	} else {
		FreeOf(classic, keep).Put(got)
	}
	a.Reclaim(classic)
	if len(a.shards) != 3 || a.shards[1].nodes.Len() == 0 {
		t.Fatal("a classic world in between lost the other shards' memory")
	}

	again := a.NewEnv().Partition(3)
	for i, v := range again {
		got := FreeOf(v, keep).Get()
		if got != marks[i] || got.i != 100+i {
			t.Errorf("view %d got another index's layer memory", i)
		}
		if v.nodes.Len() == 0 || v.evFree.Len() == 0 {
			t.Errorf("view %d did not get its index's kernel memory", i)
		}
	}
}

// TestArenaKeepsEmptiedMailboxes: a partitioned world stopped with a deposit
// and returns still on its lanes leaves its arena the lanes' arrays, its
// pipes and its window scratch, none of it naming the world; the next world
// partitioned into as many shards builds on them and runs as a fresh one
// does, while one of another shard count starts afresh.
func TestArenaKeepsEmptiedMailboxes(t *testing.T) {
	const n = 3
	// run passes a message round the shards' ring, every hop also sending
	// a value home over a return lane, and stops at the fortieth hop with
	// its deposit and returns on the lanes; it returns the dispatch log.
	run := func(root *Env) []string {
		views := root.Partition(n)
		root.RegisterLookahead(10 * Microsecond)
		var log []string
		var hop func(any)
		hop = func(v any) {
			k := v.(int)
			from := views[k%n]
			log = append(log, fmt.Sprint(k, from.Now()))
			if k == 40 {
				from.Stop()
			}
			from.AtArgOn(views[(k+1)%n], 10*Microsecond, hop, k+1)
			from.ReturnTo(views[(k+2)%n], func(any) {}, &log)
		}
		views[0].AtArg(0, hop, 0)
		root.Run()
		return log
	}
	want := run(NewEnv())

	a := NewArena()
	root := a.NewEnv()
	if got := run(root); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatal("a world on an empty arena diverges from a fresh one")
	}
	lanes := root.world.lanes
	stranded := 0
	for _, ln := range lanes {
		stranded += len(ln.entries) + len(ln.rets)
	}
	if stranded == 0 {
		t.Fatal("the world stopped with nothing on its lanes")
	}
	root.Shutdown()
	a.Reclaim(root)
	m := a.mail
	if len(m.lanes) != n*n || &m.lanes[0] != &lanes[0] {
		t.Fatal("the arena did not keep the world's lanes")
	}
	kept := 0
	for i, ln := range m.lanes {
		kept += cap(ln.entries) + cap(ln.rets)
		if len(ln.entries) != 0 || len(ln.rets) != 0 || ln.head != 0 || ln.last != 0 || ln.shuffled {
			t.Fatalf("kept lane %d is not empty", i)
		}
		for _, x := range ln.entries[:cap(ln.entries)] {
			if x.fnv != nil || x.val != nil || x.at != 0 || x.srcSeq != 0 {
				t.Fatalf("kept lane %d still holds a deposit of the dead world", i)
			}
		}
		for _, r := range ln.rets[:cap(ln.rets)] {
			if r.sink != nil || r.val != nil {
				t.Fatalf("kept lane %d still holds a return of the dead world", i)
			}
		}
	}
	if kept == 0 {
		t.Fatal("the kept lanes kept no memory")
	}
	for i, p := range m.pipes {
		if p != (Pipe{}) {
			t.Fatalf("kept pipe %d still names the dead world", i)
		}
	}

	next := a.NewEnv()
	if got := run(next); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatal("a world on kept mailboxes diverges from a fresh one")
	}
	if &next.world.lanes[0] != &lanes[0] || a.mail.lanes != nil {
		t.Fatal("the next world of as many shards did not take the kept mailboxes")
	}
	next.Shutdown()
	a.Reclaim(next)
	other := a.NewEnv()
	other.Partition(2)
	if len(other.world.lanes) != 4 || len(a.mail.lanes) != n*n {
		t.Fatal("a world of another shard count took the kept mailboxes")
	}
}
