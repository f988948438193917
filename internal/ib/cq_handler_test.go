package ib

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/sim"
)

// cqProgram is a seeded random workload over two back-to-back HCAs joined by
// two RC connections, all four QPs of a side sharing that side's CQ, so each
// CQ sees send and receive completions of both connections interleaved. A
// producer process per side posts bursts of sends of mixed sizes between
// idle gaps long enough for the CQs to go quiet; each CQ's consumer logs a
// completion, sometimes spends time on it (a quarter of those spend none),
// then reposts a receive for an arrival and sometimes answers with a send
// of its own. With handled false the consumers are processes looping on
// Poll and sleeping mid-body — the reference a completion handler that
// holds must be indistinguishable from.
type cqProgram struct {
	env    *sim.Env
	rng    *rand.Rand
	qps    [2][]*QP // per side
	budget int      // sends the program may still post
	log    []string
	// What the holds met, so the test can tell the seeds covered it.
	zeroHolds, heldLast, heldWithPosts, backToBack int
}

func newCQProgram(t *testing.T, seed int64, handled bool) *cqProgram {
	env, _, a, b, _ := backToBack(t)
	p := &cqProgram{env: env, rng: rand.New(rand.NewSource(seed))}
	cqs := [2]*CQ{NewCQ(env), NewCQ(env)}
	for i := 0; i < 2; i++ {
		qa, qb := CreateRCPair(a, b, cqs[0], cqs[1], QPConfig{})
		p.qps[0], p.qps[1] = append(p.qps[0], qa), append(p.qps[1], qb)
		for k := 0; k < 64; k++ {
			qa.PostRecv(RecvWR{})
			qb.PostRecv(RecvWR{})
		}
	}
	for side := range cqs {
		cq := cqs[side]
		var queued int    // completions behind the one a hold began on
		var justHeld bool // the previous completion was held
		// arrive is the consumer's body up to where it may spend time.
		arrive := func(c Completion) (sim.Time, bool) {
			p.log = append(p.log, fmt.Sprintf("%d:side%d:%v:qp%d:%dB", env.Now(), side, c.Op, c.QPN, c.Bytes))
			if p.rng.Intn(4) != 0 {
				justHeld = false
				return 0, false
			}
			d := sim.Time(p.rng.Intn(4)) * sim.Time(p.rng.Intn(3000))
			if d == 0 {
				p.zeroHolds++
			}
			if queued = cq.Len(); queued == 0 {
				p.heldLast++
			}
			if justHeld {
				p.backToBack++
			}
			justHeld = true
			return d, true
		}
		// finish is the rest of the body.
		finish := func(c Completion, held bool) {
			if held && cq.Len() > queued {
				p.heldWithPosts++
			}
			if c.Op != OpRecv {
				return
			}
			for _, qp := range p.qps[side] {
				if qp.QPN() == c.QPN {
					qp.PostRecv(RecvWR{})
				}
			}
			if p.rng.Intn(3) == 0 {
				p.send(side)
			}
		}
		if handled {
			var held Completion
			then := func() { finish(held, true) }
			cq.SetHandler(func(c Completion) {
				if d, hold := arrive(c); hold {
					held = c
					cq.Hold(d, then)
					return
				}
				finish(c, false)
			})
		} else {
			env.Go("", func(pr *sim.Proc) {
				for {
					c := cq.Poll(pr)
					d, hold := arrive(c)
					if hold {
						pr.Sleep(d)
					}
					finish(c, hold)
				}
			})
		}
		env.Go("producer", func(pr *sim.Proc) {
			for {
				pr.Sleep(sim.Time(p.rng.Intn(40)) * sim.Microsecond)
				for n := p.rng.Intn(5); n > 0; n-- {
					p.send(side)
				}
			}
		})
	}
	return p
}

// send posts one send of a random size (sub-packet to several packets) on a
// random connection of the side, if the budget allows.
func (p *cqProgram) send(side int) {
	if p.budget == 0 {
		return
	}
	p.budget--
	qp := p.qps[side][p.rng.Intn(len(p.qps[side]))]
	qp.PostSend(SendWR{Op: OpSend, Len: 1 + p.rng.Intn(3*MTU)})
}

// run executes the program in RunUntil slices until the budget is spent and
// the fabric has gone quiet, logging the kernel's counters at every stop.
func (p *cqProgram) run() {
	p.budget = 600
	for quiet := 0; quiet < 3; {
		before := p.env.Executed()
		p.env.RunUntil(p.env.Now() + sim.Time(1+p.rng.Intn(8000)))
		p.log = append(p.log, fmt.Sprintf("now=%d executed=%d pending=%d",
			p.env.Now(), p.env.Executed(), p.env.Pending()))
		if p.budget == 0 && p.env.Executed() == before {
			quiet++
		} else {
			quiet = 0
		}
	}
	p.env.Shutdown()
}

func TestCQHandlerMatchesPollLoop(t *testing.T) {
	var zeroHolds, heldLast, heldWithPosts, backToBack int
	for seed := int64(1); seed <= 40; seed++ {
		ref, got := newCQProgram(t, seed, false), newCQProgram(t, seed, true)
		ref.run()
		got.run()
		if len(ref.log) < 1000 {
			t.Fatalf("seed %d: program too small to mean anything (%d log lines)", seed, len(ref.log))
		}
		for i := range ref.log {
			if i >= len(got.log) || ref.log[i] != got.log[i] {
				t.Fatalf("seed %d: line %d: handled run diverges from the poll loop\n poll:    %v\n handler: %v",
					seed, i, ref.log[i], append(got.log, "<end>")[i])
			}
		}
		if len(got.log) != len(ref.log) {
			t.Fatalf("seed %d: handled run logged %d lines, poll loop %d", seed, len(got.log), len(ref.log))
		}
		zeroHolds += got.zeroHolds
		heldLast += got.heldLast
		heldWithPosts += got.heldWithPosts
		backToBack += got.backToBack
	}
	for name, n := range map[string]int{
		"zero-length holds": zeroHolds, "holds on the last queued completion": heldLast,
		"holds with posts landing meanwhile": heldWithPosts, "back-to-back holds": backToBack,
	} {
		if n < 40 {
			t.Errorf("the 40 seeds ran %d %s between them, want at least 40", n, name)
		}
	}
}

// heldConsumer is a consumer written the way Hold asks: what then needs sits
// in the consumer, and then is a function value made once.
type heldConsumer struct {
	cq   *CQ
	held Completion
	then func()
	done int
}

func (h *heldConsumer) handle(c Completion) {
	h.held = c
	h.cq.Hold(sim.Microsecond, h.then)
}

func TestWarmHoldAllocatesNothing(t *testing.T) {
	env := sim.NewEnv()
	defer env.Shutdown()
	h := &heldConsumer{cq: NewCQ(env)}
	h.then = func() { h.done += h.held.Bytes }
	h.cq.SetHandler(h.handle)
	cycle := func() {
		h.cq.post(Completion{Bytes: 1})
		env.Run()
	}
	cycle() // warm the CQ ring and the event heap
	before := h.done
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("a warm Hold -> then cycle allocates %v times, want 0", allocs)
	}
	if h.done-before != 101 {
		t.Fatalf("then ran for %d of 101 held completions", h.done-before)
	}
}

// A CQ has one consumer discipline. Mixing them, or arming a handler twice,
// is a programming error that must say so rather than lose completions.
func TestCQMisusePanics(t *testing.T) {
	nop := func(Completion) {}
	cases := []struct {
		name, want string
		misuse     func(env *sim.Env, cq *CQ)
	}{
		{"Poll on a handled CQ", "ib: CQ.Poll on a CQ with a completion handler", func(env *sim.Env, cq *CQ) {
			cq.SetHandler(nop)
			env.Go("poller", func(p *sim.Proc) { cq.Poll(p) })
			env.Run()
		}},
		{"SetHandler with a parked poller", "ib: CQ.SetHandler on a CQ with a parked poller", func(env *sim.Env, cq *CQ) {
			env.Go("poller", func(p *sim.Proc) { cq.Poll(p) })
			env.Run()
			cq.SetHandler(nop)
		}},
		{"SetHandler twice", "ib: CQ.SetHandler called twice", func(env *sim.Env, cq *CQ) {
			cq.SetHandler(nop)
			cq.SetHandler(nop)
		}},
		{"Hold outside the handler", "ib: CQ.Hold outside the completion handler", func(env *sim.Env, cq *CQ) {
			cq.SetHandler(nop)
			env.Run()
			cq.Hold(0, func() {})
		}},
		{"Hold twice for one completion", "ib: CQ.Hold called twice for one completion", func(env *sim.Env, cq *CQ) {
			cq.SetHandler(func(Completion) {
				cq.Hold(0, func() {})
				cq.Hold(0, func() {})
			})
			cq.post(Completion{})
			env.Run()
		}},
		{"Hold for a negative time", "ib: CQ.Hold for a negative time", func(env *sim.Env, cq *CQ) {
			cq.SetHandler(func(Completion) { cq.Hold(-1, func() {}) })
			cq.post(Completion{})
			env.Run()
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			env := sim.NewEnv()
			defer env.Shutdown()
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, tc.want) {
					t.Fatalf("panic %q, want one containing %q", msg, tc.want)
				}
			}()
			tc.misuse(env, NewCQ(env))
		})
	}
}
