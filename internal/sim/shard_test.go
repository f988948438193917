package sim

import (
	"fmt"
	"strings"
	"testing"
)

// TestPartitionBasics checks the shard-view plumbing: view 0 is the root,
// views share the world, and Sharded/ShardWorkers report correctly.
func TestPartitionBasics(t *testing.T) {
	env := NewEnv()
	env.SetShardWorkers(4)
	views := env.Partition(3)
	if views[0] != env {
		t.Fatal("view 0 must be the receiver")
	}
	if !env.Sharded() {
		t.Fatal("root not sharded after Partition")
	}
	for i, v := range views {
		if !v.Sharded() {
			t.Fatalf("view %d not sharded", i)
		}
		if v.ShardWorkers() != 4 {
			t.Fatalf("view %d workers = %d, want 4", i, v.ShardWorkers())
		}
	}
	if env.Lookahead() != 0 {
		t.Fatalf("lookahead before registration = %v, want 0", env.Lookahead())
	}
	env.RegisterLookahead(5 * Microsecond)
	env.RegisterLookahead(3 * Microsecond)
	env.RegisterLookahead(9 * Microsecond)
	if env.Lookahead() != 3*Microsecond {
		t.Fatalf("lookahead = %v, want the minimum 3us", env.Lookahead())
	}
}

func TestPartitionTwicePanics(t *testing.T) {
	env := NewEnv()
	env.Partition(2)
	defer func() {
		if recover() == nil {
			t.Fatal("second Partition did not panic")
		}
	}()
	env.Partition(2)
}

// shardedPingPong builds a 3-shard world where every shard bounces an
// event to the next shard with the given lookahead delay, and returns each
// shard's delivery log. The logs are kept per shard — each is written only
// by the shard executing the delivery, so the collection is race-free under
// parallel workers, and per-shard execution order (plus the deterministic
// cross-shard merge feeding it) is exactly what the protocol guarantees;
// the interleaving *between* shards inside one window is scheduling noise.
func shardedPingPong(workers int, rounds int) []string {
	env := NewEnv()
	env.SetShardWorkers(workers)
	views := env.Partition(3)
	env.RegisterLookahead(10 * Microsecond)
	order := make([][]string, len(views))
	var send func(from int, round int) func(any)
	send = func(from, round int) func(any) {
		return func(any) {
			order[from] = append(order[from], fmt.Sprintf("r%d:s%d@%v", round, from, views[from].Now()))
			if round < rounds {
				next := (from + 1) % len(views)
				views[from].AtArgOn(views[next], 10*Microsecond, send(next, round+1), nil)
			}
		}
	}
	// Seed one event per shard locally: three concurrent cascades chasing
	// each other around the ring.
	for i, v := range views {
		i, v := i, v
		v.At(Microsecond, func() {
			next := (i + 1) % len(views)
			v.AtArgOn(views[next], 10*Microsecond, send(next, 0), nil)
		})
	}
	env.Run()
	var flat []string
	for i, o := range order {
		flat = append(flat, fmt.Sprintf("shard%d{%s}", i, strings.Join(o, ",")))
	}
	return flat
}

// TestCrossShardDeterminism runs the same cross-shard event cascades
// sequentially and with parallel workers; every shard's executed order
// (and clocks) must be identical.
func TestCrossShardDeterminism(t *testing.T) {
	seq := shardedPingPong(1, 40)
	if len(strings.Join(seq, "")) < 100 {
		t.Fatal("no deliveries executed")
	}
	par := shardedPingPong(4, 40)
	if strings.Join(seq, ",") != strings.Join(par, ",") {
		t.Fatalf("delivery order diverges:\nseq: %v\npar: %v", seq, par)
	}
}

// TestLookaheadViolationPanics checks that a cross-shard deposit below the
// registered bound is rejected loudly rather than corrupting the schedule.
func TestLookaheadViolationPanics(t *testing.T) {
	env := NewEnv()
	views := env.Partition(2)
	env.RegisterLookahead(10 * Microsecond)
	defer func() {
		if recover() == nil {
			t.Fatal("sub-lookahead AtArgOn did not panic")
		}
	}()
	views[0].AtArgOn(views[1], Microsecond, func(any) {}, nil)
}

// TestRegisterNonPositiveLookaheadPanics guards the protocol's soundness
// precondition.
func TestRegisterNonPositiveLookaheadPanics(t *testing.T) {
	env := NewEnv()
	env.Partition(2)
	defer func() {
		if recover() == nil {
			t.Fatal("zero lookahead did not panic")
		}
	}()
	env.RegisterLookahead(0)
}

// TestAtArgOnSameShard is the degenerate case: target == source must behave
// exactly like AtArg, with no lookahead requirement.
func TestAtArgOnSameShard(t *testing.T) {
	env := NewEnv()
	env.Partition(2)
	env.RegisterLookahead(10 * Microsecond)
	ran := false
	env.AtArgOn(env, Microsecond, func(any) { ran = true }, nil)
	env.Run()
	if !ran {
		t.Fatal("same-shard AtArgOn event never ran")
	}
}

// TestShardPanicDeterminism arranges panics on two shards in the same
// window and checks the earliest (time, shard) one surfaces regardless of
// worker count.
func TestShardPanicDeterminism(t *testing.T) {
	for _, workers := range []int{1, 4} {
		func() {
			env := NewEnv()
			env.SetShardWorkers(workers)
			views := env.Partition(2)
			env.RegisterLookahead(100 * Microsecond)
			// Keep both shards inside one window: both panic times are under
			// first-event + lookahead.
			views[1].At(2*Microsecond, func() { panic("late loser") })
			views[0].At(Microsecond, func() { panic("early winner") })
			defer func() {
				r := recover()
				if r == nil {
					t.Errorf("workers=%d: no panic surfaced", workers)
					return
				}
				if fmt.Sprint(r) != "early winner" {
					t.Errorf("workers=%d: surfaced %q, want the earliest panic", workers, r)
				}
			}()
			env.Run()
		}()
	}
}

// TestWindowStats checks the scheduler's progress counters: windows tick,
// per-shard executed counts land on the right shard, and a shard with no
// work in a window records a stall.
func TestWindowStats(t *testing.T) {
	env := NewEnv()
	env.SetShardWorkers(2)
	views := env.Partition(2)
	env.RegisterLookahead(10 * Microsecond)
	// Shard 0 works every window; shard 1 only gets one cross-shard event.
	for i := 0; i < 5; i++ {
		d := Time(i) * 20 * Microsecond
		views[0].At(d+Microsecond, func() {})
	}
	views[0].At(Microsecond, func() {
		views[0].AtArgOn(views[1], 10*Microsecond, func(any) {}, nil)
	})
	env.Run()
	d := env.TakeWindowStats() // the first take since Partition: the whole run
	windows, shards := d.Windows, d.Shards
	if windows <= 0 {
		t.Fatalf("windows = %d, want > 0", windows)
	}
	if len(shards) != 2 {
		t.Fatalf("got %d shard stats, want 2", len(shards))
	}
	if shards[0].Executed < 5 {
		t.Errorf("shard 0 executed %d, want >= 5", shards[0].Executed)
	}
	if shards[1].Executed != 1 {
		t.Errorf("shard 1 executed %d, want 1", shards[1].Executed)
	}
	if shards[1].Stalls == 0 {
		t.Error("shard 1 never stalled despite having work in only one window")
	}
	if s := NewEnv().TakeWindowStats().Shards; s != nil {
		t.Error("unpartitioned TakeWindowStats must return nil shard stats")
	}
}

// TestSingleShardWorldMatchesClassic runs the same workload on a plain Env
// and on a Partition(1) world; clocks and executed counts must agree (the
// single-shard world is the classic path behind the window loop).
func TestSingleShardWorldMatchesClassic(t *testing.T) {
	build := func(env *Env) {
		for i := 1; i <= 10; i++ {
			d := Time(i) * Microsecond
			env.At(d, func() {})
		}
	}
	classic := NewEnv()
	build(classic)
	classicEnd := classic.Run()

	env := NewEnv()
	env.Partition(1)
	build(env)
	// A 1-shard world has no cross-shard edges, so no lookahead: it must
	// still drain (the protocol only needs a bound when events are pending
	// across windows — with one shard the first window covers everything).
	env.RegisterLookahead(Microsecond)
	end := env.Run()
	if end != classicEnd {
		t.Fatalf("1-shard world ended at %v, classic at %v", end, classicEnd)
	}
	if env.Executed() != classic.Executed() {
		t.Fatalf("1-shard world executed %d, classic %d", env.Executed(), classic.Executed())
	}
}
