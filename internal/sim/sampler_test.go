package sim

import (
	"fmt"
	"reflect"
	"testing"
)

// sampleLog records each sampler firing as "t=<time>,c=<events so far>".
type sampleLog struct {
	rows []string
}

func (l *sampleLog) hook(count *int) func(at Time) {
	return func(at Time) {
		l.rows = append(l.rows, fmt.Sprintf("t=%d,c=%d", at, *count))
	}
}

// TestSamplerClassicFireTimes checks the single-heap contract: a sample at
// S sees every event with at <= S and none after, and quiet sample times
// still fire in order.
func TestSamplerClassicFireTimes(t *testing.T) {
	env := NewEnv()
	var log sampleLog
	var count int
	env.SetSampler(10, log.hook(&count))
	for _, at := range []Time{5, 10, 15, 47} { // 10 is exactly on a sample time
		env.At(at, func() { count++ })
	}
	env.Run()
	// t=10 must include the event at exactly 10; t=20..40 are quiet but
	// still fire before the event at 47 runs.
	want := []string{"t=10,c=2", "t=20,c=3", "t=30,c=3", "t=40,c=3"}
	if !reflect.DeepEqual(log.rows, want) {
		t.Errorf("samples = %v, want %v", log.rows, want)
	}
}

// TestSamplerDrainFiresTail checks that when the heap drains, pending
// sample times up to the final clock fire (and none past it).
func TestSamplerDrainFiresTail(t *testing.T) {
	env := NewEnv()
	var log sampleLog
	var count int
	env.SetSampler(10, log.hook(&count))
	env.At(30, func() { count++ })
	env.Run()
	want := []string{"t=10,c=0", "t=20,c=0", "t=30,c=1"}
	if !reflect.DeepEqual(log.rows, want) {
		t.Errorf("samples = %v, want %v", log.rows, want)
	}
}

// TestSamplerHorizonSplit checks that chopping one Run into many RunUntil
// windows does not change which samples fire or what they see.
func TestSamplerHorizonSplit(t *testing.T) {
	build := func() (*Env, *sampleLog) {
		env := NewEnv()
		var log sampleLog
		count := new(int)
		env.SetSampler(7, log.hook(count))
		for at := Time(1); at <= 100; at += 9 {
			env.At(at, func() { *count++ })
		}
		return env, &log
	}
	one, oneLog := build()
	one.Run()
	split, splitLog := build()
	for h := Time(13); split.Pending() > 0; h += 13 {
		split.RunUntil(h)
	}
	if !reflect.DeepEqual(splitLog.rows, oneLog.rows) {
		t.Errorf("split-horizon samples differ:\n one run: %v\n split:   %v", splitLog.rows, oneLog.rows)
	}
	if len(oneLog.rows) == 0 {
		t.Fatal("no samples fired")
	}
}

// TestSamplerStopSkipsTail checks that a Stop leaves the tail unsampled:
// samples strictly before the stopping event's time have fired, none after,
// and none at it — a Stop on a sample time leaves that sample unfired, since
// the events that share its time may not have run.
func TestSamplerStopSkipsTail(t *testing.T) {
	for _, stopAt := range []Time{25, 30} {
		env := NewEnv()
		var log sampleLog
		var count int
		env.SetSampler(10, log.hook(&count))
		env.At(5, func() { count++ })
		env.At(stopAt, func() { count++; env.Stop() })
		env.At(30, func() { count++ }) // never runs
		env.At(50, func() { count++ }) // never runs
		env.Run()
		want := []string{"t=10,c=1", "t=20,c=1"}
		if !reflect.DeepEqual(log.rows, want) {
			t.Errorf("stop at %d: samples = %v, want %v", stopAt, log.rows, want)
		}
	}
}

// TestSamplerRemoval checks that SetSampler with a zero interval or nil
// hook disarms sampling.
func TestSamplerRemoval(t *testing.T) {
	env := NewEnv()
	var log sampleLog
	var count int
	env.SetSampler(10, log.hook(&count))
	env.SetSampler(0, nil)
	env.At(30, func() { count++ })
	env.Run()
	if len(log.rows) != 0 {
		t.Errorf("disarmed sampler fired: %v", log.rows)
	}
}

// shardedSampleRun builds a 2-shard world exchanging cross-shard events and
// returns the sample log. With workers=0 the world is not partitioned at
// all (classic single-heap baseline).
func shardedSampleRun(t *testing.T, workers int) []string {
	t.Helper()
	env := NewEnv()
	var views []*Env
	if workers > 0 {
		env.SetShardWorkers(workers)
		views = env.Partition(2)
		env.RegisterLookahead(10 * Microsecond)
	} else {
		views = []*Env{env, env}
	}
	var log sampleLog
	count := new(int)
	env.SetSampler(5*Microsecond, log.hook(count))
	// Ping-pong between the two views at the lookahead delay, counting
	// deliveries; both versions execute the identical event set.
	var bounce func(to int, round int) func(any)
	bounce = func(to, round int) func(any) {
		return func(any) {
			*count++
			if round < 20 {
				next := 1 - to
				views[to].AtArgOn(views[next], 10*Microsecond, bounce(next, round+1), nil)
			}
		}
	}
	views[0].At(Microsecond, func() {
		views[0].AtArgOn(views[1], 10*Microsecond, bounce(1, 0), nil)
	})
	env.Run()
	return log.rows
}

// TestSamplerShardedMatchesClassic is the kernel-level determinism check:
// the sharded scheduler fires the same samples, at the same times, seeing
// the same event counts, as the classic single-heap run — at any worker
// count.
func TestSamplerShardedMatchesClassic(t *testing.T) {
	classic := shardedSampleRun(t, 0)
	if len(classic) == 0 {
		t.Fatal("classic run fired no samples")
	}
	for _, workers := range []int{1, 2, 4} {
		sharded := shardedSampleRun(t, workers)
		if !reflect.DeepEqual(sharded, classic) {
			t.Errorf("workers=%d samples differ:\n classic: %v\n sharded: %v", workers, classic, sharded)
		}
	}
}
