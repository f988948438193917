package sim

import "testing"

// TestDigestSeesTieOrder swaps two same-time events of different kinds: the
// count cannot tell the two runs apart, the digest must.
func TestDigestSeesTieOrder(t *testing.T) {
	run := func(fnFirst bool) *Env {
		e := NewEnv()
		fn, arg := func() {}, func(any) {}
		if fnFirst {
			e.At(5, fn)
			e.AtArg(5, arg, nil)
		} else {
			e.AtArg(5, arg, nil)
			e.At(5, fn)
		}
		e.Run()
		return e
	}
	a, b := run(true), run(false)
	if a.Executed() != 2 || b.Executed() != 2 {
		t.Fatalf("executed %d and %d, want 2 and 2", a.Executed(), b.Executed())
	}
	if a.Digest() == b.Digest() {
		t.Fatalf("swapped tie left the digest at %016x", a.Digest())
	}
	if again := run(true); again.Digest() != a.Digest() {
		t.Fatalf("same program, digests %016x and %016x", a.Digest(), again.Digest())
	}
}

// TestDigestIgnoresSampler runs one program of every entry kind with and
// without a sampler: sampling is not an event, so neither the count nor the
// digest may move.
func TestDigestIgnoresSampler(t *testing.T) {
	run := func(every Time) *Env {
		e := NewEnv()
		samples := 0
		e.SetSampler(every, func(Time) { samples++ })
		p := e.NewPipe()
		tm := e.NewTimer(func(any) {}, nil)
		for i := Time(1); i <= 20; i++ {
			p.AtArg(3*i, func(any) {}, nil)
			e.At(2*i, func() { tm.Reset(7) })
		}
		ev := e.NewEvent()
		e.Go("waiter", func(pr *Proc) {
			pr.Sleep(4)
			pr.Wait(ev)
		})
		e.At(33, func() { ev.Trigger(nil) })
		for h := Time(9); e.Pending() > 0; h += 9 {
			e.RunUntil(h)
		}
		if every > 0 && samples == 0 {
			t.Fatal("sampler never fired")
		}
		return e
	}
	off, on := run(0), run(5)
	if off.Executed() != on.Executed() || off.Digest() != on.Digest() {
		t.Fatalf("sampler off: %d events, digest %016x; on: %d, %016x",
			off.Executed(), off.Digest(), on.Executed(), on.Digest())
	}
}
