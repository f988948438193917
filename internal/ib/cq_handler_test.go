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
// idle gaps long enough for the CQs to go quiet; each CQ's consumer reposts
// a receive for every arrival and sometimes answers with a send of its own.
// With handled false the consumers are processes looping on Poll — the
// reference a completion handler must be indistinguishable from.
type cqProgram struct {
	env    *sim.Env
	rng    *rand.Rand
	qps    [2][]*QP // per side
	budget int      // sends the program may still post
	log    []string
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
		consume := func(c Completion) {
			p.log = append(p.log, fmt.Sprintf("%d:side%d:%v:qp%d:%dB", env.Now(), side, c.Op, c.QPN, c.Bytes))
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
			cqs[side].SetHandler(consume)
		} else {
			env.Go("", func(pr *sim.Proc) {
				for {
					consume(cqs[side].Poll(pr))
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
