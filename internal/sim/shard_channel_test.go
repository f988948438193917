package sim

import (
	"math"
	"testing"
)

// TestRunUntilMaxHorizonNoOverflow is the regression test for the window
// limit overflow: a horizon at MaxInt64 (or a huge registered bound) used
// to wrap `limit` negative, so the window executed nothing and the loop
// never terminated. The arithmetic must saturate instead.
func TestRunUntilMaxHorizonNoOverflow(t *testing.T) {
	for _, la := range []Time{10 * Microsecond, Time(math.MaxInt64 - 1)} {
		env := NewEnv()
		views := env.Partition(2)
		env.RegisterLookahead(la)
		ran := 0
		views[0].At(Microsecond, func() { ran++ })
		views[1].At(2*Microsecond, func() { ran++ })
		end := env.RunUntil(Time(math.MaxInt64))
		if ran != 2 {
			t.Fatalf("lookahead %v: executed %d events, want 2", la, ran)
		}
		if end < 2*Microsecond {
			t.Fatalf("lookahead %v: RunUntil returned %v, want >= 2us", la, end)
		}
	}
}

// channelLookahead returns the registered bound of the directed channel
// from e's shard to target's shard, or 0 when the environments are
// unpartitioned, unrelated, co-sharded, or the channel is unregistered.
func channelLookahead(e, target *Env) Time {
	w := e.world
	if target.world != w || target.shard == e.shard {
		return 0
	}
	if b := w.bounds[int(e.shard)*len(w.shards)+int(target.shard)]; b != noBound {
		return b
	}
	return 0
}

// TestChannelLookaheadRegistration checks the directed-channel bound API:
// bounds are per (src,dst) direction, lower later wins, the global
// RegisterLookahead is shorthand for all pairs, and Lookahead reports the
// world minimum.
func TestChannelLookaheadRegistration(t *testing.T) {
	env := NewEnv()
	views := env.Partition(3)
	views[0].RegisterLookaheadBetween(views[1], 5*Microsecond)
	views[1].RegisterLookaheadBetween(views[0], 7*Microsecond)
	if got := channelLookahead(views[0], views[1]); got != 5*Microsecond {
		t.Fatalf("channel 0->1 = %v, want 5us", got)
	}
	if got := channelLookahead(views[1], views[0]); got != 7*Microsecond {
		t.Fatalf("channel 1->0 = %v, want 7us", got)
	}
	if got := channelLookahead(views[0], views[2]); got != 0 {
		t.Fatalf("unregistered channel 0->2 = %v, want 0", got)
	}
	// Re-registering only lowers.
	views[0].RegisterLookaheadBetween(views[1], 9*Microsecond)
	if got := channelLookahead(views[0], views[1]); got != 5*Microsecond {
		t.Fatalf("channel 0->1 after higher re-register = %v, want 5us", got)
	}
	views[0].RegisterLookaheadBetween(views[1], 3*Microsecond)
	if got := channelLookahead(views[0], views[1]); got != 3*Microsecond {
		t.Fatalf("channel 0->1 after lower re-register = %v, want 3us", got)
	}
	if got := env.Lookahead(); got != 3*Microsecond {
		t.Fatalf("world lookahead = %v, want the 3us minimum", got)
	}
	// The all-pairs shorthand fills in the remaining channels.
	env.RegisterLookahead(4 * Microsecond)
	if got := channelLookahead(views[0], views[2]); got != 4*Microsecond {
		t.Fatalf("channel 0->2 after global register = %v, want 4us", got)
	}
	if got := channelLookahead(views[0], views[1]); got != 3*Microsecond {
		t.Fatalf("channel 0->1 after global register = %v, want to keep 3us", got)
	}
	// Same-shard and unpartitioned environments have no channels.
	if got := channelLookahead(views[0], views[0]); got != 0 {
		t.Fatalf("self channel = %v, want 0", got)
	}
	if got := channelLookahead(NewEnv(), views[0]); got != 0 {
		t.Fatalf("unpartitioned channelLookahead = %v, want 0", got)
	}
}

// TestAtArgOnUnregisteredChannelPanics: a cross-shard deposit on a channel
// with no registered bound is unsound (the scheduler cannot account for it
// in any shard's horizon) and must be rejected loudly.
func TestAtArgOnUnregisteredChannelPanics(t *testing.T) {
	env := NewEnv()
	views := env.Partition(3)
	views[0].RegisterLookaheadBetween(views[1], 10*Microsecond)
	views[0].AtArgOn(views[1], 10*Microsecond, func(any) {}, nil) // registered: fine
	defer func() {
		if recover() == nil {
			t.Fatal("deposit on unregistered channel did not panic")
		}
	}()
	views[0].AtArgOn(views[2], 10*Microsecond, func(any) {}, nil)
}

// TestCrossShardWaitPanics: a process parked on another shard's event
// would be resumed by that shard's dispatcher — racing its home heap and
// deadlocking the window barrier — so Wait must reject it immediately
// with a pointer at the supported mechanism (mailbox lanes).
func TestCrossShardWaitPanics(t *testing.T) {
	env := NewEnv()
	env.SetShardWorkers(2)
	views := env.Partition(2)
	env.RegisterLookahead(Millisecond)
	remote := views[1].NewEvent()
	views[0].Go("waiter", func(p *Proc) {
		p.Wait(remote)
	})
	defer func() {
		if recover() == nil {
			t.Fatal("cross-shard Wait did not panic")
		}
	}()
	env.Run()
}

// TestTakeWindowStatsDeltas: consecutive takes must report independent
// per-interval counts that sum to the run's totals.
func TestTakeWindowStatsDeltas(t *testing.T) {
	env := NewEnv()
	views := env.Partition(2)
	env.RegisterLookahead(10 * Microsecond)
	phase := func(base Time, n int) {
		for i := 0; i < n; i++ {
			views[0].At(base+Time(i)*20*Microsecond-env.Now(), func() {})
		}
	}
	phase(Microsecond, 3)
	env.Run()
	d1 := env.TakeWindowStats()
	if d1.Windows <= 0 || d1.Shards[0].Executed != 3 {
		t.Fatalf("first delta = %+v, want >0 windows and 3 events on shard 0", d1)
	}
	phase(env.Now()+Microsecond, 5)
	env.Run()
	d2 := env.TakeWindowStats()
	if d2.Shards[0].Executed != 5 {
		t.Fatalf("second delta executed = %d, want 5 (independent of the first interval)", d2.Shards[0].Executed)
	}
	if d2.Windows <= 0 {
		t.Fatalf("second delta windows = %d, want > 0", d2.Windows)
	}
	if sum := d1.Shards[0].Executed + d2.Shards[0].Executed; sum != 8 {
		t.Fatalf("deltas executed %d in all, want 8", sum)
	}
	d3 := env.TakeWindowStats()
	if d3.Windows != 0 || d3.Shards[0].Executed != 0 {
		t.Fatalf("idle delta = %+v, want zeros", d3)
	}
	if d := NewEnv().TakeWindowStats(); d.Shards != nil {
		t.Fatal("unpartitioned TakeWindowStats must return nil shard stats")
	}
}

// starWindows runs a heterogeneous-delay star workload — a hub bouncing
// with two satellites over 10ms channels while each arrival triggers a
// dense burst of 1ms-spaced local events, plus an idle shard reachable
// over a 1ms channel — and returns (windows, horizon, executed). With
// perChannel the links register their own bounds; otherwise a uniform 1ms
// bound stands in for the old global-lookahead scheduler (its window width
// was the world minimum, so the uniform registration is a faithful — in
// fact slightly generous — baseline).
func starWindows(t *testing.T, workers int, perChannel bool) (int64, Time, int64) {
	t.Helper()
	const (
		short  = Millisecond
		long   = 10 * Millisecond
		rounds = 20
		burst  = 9
	)
	env := NewEnv()
	env.SetShardWorkers(workers)
	views := env.Partition(4) // 0 hub, 1 metro satellite (idle), 2 and 3 busy
	if perChannel {
		for i := 1; i < 4; i++ {
			d := long
			if i == 1 {
				d = short
			}
			views[0].RegisterLookaheadBetween(views[i], d)
			views[i].RegisterLookaheadBetween(views[0], d)
		}
	} else {
		env.RegisterLookahead(short)
	}
	var bounce func(peer int, round int) func(any)
	bounce = func(peer, round int) func(any) {
		return func(any) {
			v := views[peer]
			for k := 0; k < burst; k++ {
				v.At(Time(k+1)*Millisecond, func() {})
			}
			if round < rounds {
				v.AtArgOn(views[0], long, func(any) {
					views[0].AtArgOn(views[peer], long, bounce(peer, round+1), nil)
				}, nil)
			}
		}
	}
	views[1].At(Microsecond, func() {}) // the metro shard: one event, then idle
	views[0].At(Microsecond, func() {
		views[0].AtArgOn(views[2], long, bounce(2, 0), nil)
		views[0].AtArgOn(views[3], long, bounce(3, 0), nil)
	})
	env.Run()
	d := env.TakeWindowStats() // the first take since Partition: the whole run
	return d.Windows, d.Horizon, env.Executed()
}

// TestPerChannelWindowsDrop: on a heterogeneous star whose short link is
// idle, per-channel horizons must run the same workload in at least 2x
// fewer windows than a uniform world-minimum bound (it is the short link's
// bound that chops the busy satellites' bursts under the uniform rule),
// with a correspondingly larger cumulative horizon per window, and execute
// exactly the same events at any worker count.
func TestPerChannelWindowsDrop(t *testing.T) {
	globalWins, _, globalEvents := starWindows(t, 1, false)
	for _, workers := range []int{1, 4} {
		chanWins, chanHorizon, chanEvents := starWindows(t, workers, true)
		if chanEvents != globalEvents {
			t.Fatalf("workers=%d: per-channel executed %d events, uniform %d", workers, chanEvents, globalEvents)
		}
		if chanWins*2 > globalWins {
			t.Fatalf("workers=%d: per-channel ran %d windows, uniform %d — want at least a 2x drop", workers, chanWins, globalWins)
		}
		if chanWins > 0 && chanHorizon/Time(chanWins) < Millisecond {
			t.Fatalf("workers=%d: mean horizon advance %v per window, want >= 1ms", workers, chanHorizon/Time(chanWins))
		}
	}
}
