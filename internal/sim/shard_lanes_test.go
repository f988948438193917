package sim

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"
)

// TestMailboxPipeOrderAfterDelayDrop: a mailbox lane is delivered through a
// pipe, and a pipe is only a FIFO while times do not decrease. When a lane's
// delay drops — inside one window (the lane is re-sorted before the merge)
// or between two (the new entry is earlier than the pipe's tail, already
// delivered) — the destination must still dispatch in (time, source shard,
// source sequence) order, at every worker count.
func TestMailboxPipeOrderAfterDelayDrop(t *testing.T) {
	type deposit struct {
		src        int
		sendAt, in Time // deposited at sendAt, to land sendAt+in
	}
	plan := []deposit{
		// Window one: lane 1→0 goes out of order, and ties lane 2→0 at 110.
		{1, 1, 109}, {1, 2, 110}, {1, 3, 50},
		{2, 1, 109}, {2, 2, 120},
		// A long-delay entry, delivered to the pipes at the next barrier ...
		{1, 150, 400}, {2, 150, 400},
		// ... then both lanes' delays drop below their pipe tails.
		{1, 300, 20}, {1, 301, 20}, {2, 300, 21}, {2, 302, 30},
	}
	run := func(workers int) []string {
		env := NewEnv()
		env.SetShardWorkers(workers)
		views := env.Partition(3)
		env.RegisterLookahead(20 * Microsecond)
		var got []string
		seq := make([]int, len(views))
		for _, d := range plan {
			d := d
			views[d.src].At(d.sendAt*Microsecond, func() {
				seq[d.src]++
				label := fmt.Sprintf("%d/s%d#%d", int64(d.sendAt+d.in), d.src, seq[d.src])
				views[d.src].AtArgOn(views[0], d.in*Microsecond, func(any) {
					got = append(got, fmt.Sprintf("%s@%d", label, int64(views[0].Now()/Microsecond)))
				}, nil)
			})
		}
		env.Run()
		return got
	}
	var want []string
	order := make([]int, len(plan))
	nth := make([]int, len(plan))
	seq := map[int]int{}
	for i, d := range plan {
		order[i] = i
		seq[d.src]++
		nth[i] = seq[d.src]
	}
	sort.SliceStable(order, func(a, b int) bool {
		da, db := plan[order[a]], plan[order[b]]
		if ta, tb := da.sendAt+da.in, db.sendAt+db.in; ta != tb {
			return ta < tb
		}
		return da.src < db.src
	})
	for _, i := range order {
		at := int64(plan[i].sendAt + plan[i].in)
		want = append(want, fmt.Sprintf("%d/s%d#%d@%d", at, plan[i].src, nth[i], at))
	}
	for _, workers := range []int{1, 2, 3} {
		if got := run(workers); strings.Join(got, " ") != strings.Join(want, " ") {
			t.Errorf("workers=%d: dispatched\n  %v\nwant\n  %v", workers, got, want)
		}
	}
}

// TestReturnToGoesHomeAtTheBarrier: an object returned from a foreign shard
// reaches its home's sink between windows, in the order returned, without
// becoming an event; returned on its own shard it arrives at once.
func TestReturnToGoesHomeAtTheBarrier(t *testing.T) {
	env := NewEnv()
	env.SetShardWorkers(2)
	views := env.Partition(2)
	env.RegisterLookahead(10 * Microsecond)
	var home []int
	sink := func(v any) { home = append(home, v.(int)) }
	views[0].ReturnTo(views[0], sink, 0)
	if len(home) != 1 {
		t.Fatalf("a same-shard return must be immediate, home holds %v", home)
	}
	for i := 1; i <= 5; i++ {
		i := i
		// Both shards run in every window, so the returns cross while shard
		// 0 is executing; its own events read home, the sink writes it.
		views[0].At(Time(i)*Microsecond, func() { _ = len(home) })
		views[1].At(Time(i)*Microsecond, func() { views[1].ReturnTo(views[0], sink, i) })
	}
	env.Run()
	if fmt.Sprint(home) != "[0 1 2 3 4 5]" {
		t.Fatalf("returned objects arrived as %v", home)
	}
	if n := env.Executed(); n != 10 {
		t.Fatalf("returns must not count as events: executed %d, want 10", n)
	}
}

// TestShardWorkerGoexitFailsTheRun: a runtime.Goexit inside a process — what
// t.FailNow does — on a shard run by a pool worker used to end that worker
// without its barrier arrival, and the coordinator waited forever. The run
// must end with a panic naming the cause.
func TestShardWorkerGoexitFailsTheRun(t *testing.T) {
	done := make(chan any, 1)
	go func() {
		defer func() { done <- recover() }()
		env := NewEnv()
		env.SetShardWorkers(2)
		views := env.Partition(2)
		env.RegisterLookahead(100 * Microsecond)
		// Two active shards in one window: shard 0 stays with the
		// coordinator, shard 1 goes to the pool's worker.
		views[0].At(Microsecond, func() {})
		views[1].Go("exits", func(p *Proc) {
			p.Sleep(Microsecond)
			runtime.Goexit()
		})
		env.Run()
	}()
	select {
	case r := <-done:
		if r == nil || !strings.Contains(fmt.Sprint(r), "shard worker exited") {
			t.Fatalf("run ended with %v, want the shard-worker-exited panic", r)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("the coordinator is still waiting for the exited worker's arrival")
	}
}
