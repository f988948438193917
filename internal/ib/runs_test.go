package ib

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/sim"
)

// recvModel is a QP's receive side as it was stored before runs: one entry
// per posted WQE, and the RNR-buffered sends waiting for one. got records
// which WQE each message consumed.
type recvModel struct {
	wqes        sim.Ring[RecvWR]
	pending     sim.Ring[int]
	rnr, drops  int
	got         map[int]RecvWR
	tagsHandled int // tagged WQEs consumed
}

func (m *recvModel) post(wr RecvWR) {
	m.wqes.Push(wr)
	for m.pending.Len() > 0 && m.wqes.Len() > 0 {
		m.consume(m.pending.Pop())
	}
}

func (m *recvModel) arrive(msg int, ud bool) {
	switch {
	case m.wqes.Len() > 0:
		m.consume(msg)
	case ud:
		m.drops++
	default:
		m.rnr++
		m.pending.Push(msg)
	}
}

func (m *recvModel) consume(msg int) {
	wr := m.wqes.Pop()
	if wr.Ctx != nil {
		m.tagsHandled++
	}
	m.got[msg] = wr
}

// recvProgram drives one receiving QP through a seeded interleaving of
// receive posts (bursts of blank WQEs, WQEs with a buffer and a context),
// sends from the peer and single kernel steps, and after every action holds
// the QP to the model: same posted count, same RNR-buffered and dropped
// counts. A step delivers at most one message, so the model learns of each
// arrival in the step it happens in and decides it on its own.
func recvProgram(t *testing.T, tr Transport, seed int64) (m *recvModel, merged int) {
	env, _, a, b, _ := backToBack(t)
	defer env.Shutdown()
	rng := rand.New(rand.NewSource(seed))
	cqb := NewCQ(env)
	var qa, qb *QP
	if tr == RC {
		qa, qb = CreateRCPair(a, b, nil, cqb, QPConfig{})
	} else {
		qa, qb = a.CreateQP(NewCQ(env), QPConfig{Transport: UD}), b.CreateQP(cqb, QPConfig{Transport: UD})
	}
	m = &recvModel{got: map[int]RecvWR{}}
	var data [][]byte
	arrived, tags := 0, 0
	check := func(what string) {
		t.Helper()
		if qb.recvQ.Len() != m.wqes.Len() || qb.pending.Len() != m.pending.Len() ||
			qb.stats.RNRBuffered != int64(m.rnr) || qb.stats.RecvDrops != int64(m.drops) {
			t.Fatalf("%v seed %d, after %s: QP posted=%d pending=%d rnr=%d drops=%d, model %d %d %d %d",
				tr, seed, what, qb.recvQ.Len(), qb.pending.Len(), qb.stats.RNRBuffered, qb.stats.RecvDrops,
				m.wqes.Len(), m.pending.Len(), m.rnr, m.drops)
		}
		merged = max(merged, tailRun(&qb.recvQ))
	}
	step := func() bool {
		if !env.Step() {
			return false
		}
		now := int(qb.stats.MsgsRecv + qb.stats.RecvDrops)
		if now-arrived > 1 {
			t.Fatalf("%v seed %d: one step delivered %d messages", tr, seed, now-arrived)
		}
		for ; arrived < now; arrived++ {
			m.arrive(arrived, tr == UD)
		}
		check("a step")
		return true
	}
	for sends := 0; sends < 300; {
		switch r := rng.Intn(10); {
		case r < 2:
			blank := rng.Intn(3) != 0
			for n := 1 + rng.Intn(8); n > 0; n-- {
				wr := RecvWR{}
				if !blank {
					tags++
					wr = RecvWR{Buf: make([]byte, 3*MTU), Ctx: tags}
				}
				m.post(wr)
				qb.PostRecv(wr)
				check("a receive post")
			}
		case r < 4:
			for n := 1 + rng.Intn(4); n > 0; n-- {
				size := 1 + rng.Intn(MaxUDPayload)
				if tr == RC {
					size = 1 + rng.Intn(3*MTU)
				}
				d := make([]byte, size)
				rng.Read(d)
				wr := SendWR{Op: OpSend, Data: d, Meta: len(data)}
				if tr == UD {
					wr.DestLID, wr.DestQPN = b.LID(), qb.QPN()
				}
				data = append(data, d)
				qa.PostSend(wr)
				sends++
			}
		default:
			step()
		}
	}
	for step() {
	}
	// Every receive completion names its message (Meta) and carries the WQE
	// the model gave that message: its context, and its buffer holding the
	// message's bytes.
	delivered := 0
	for {
		c, ok := cqb.TryPoll()
		if !ok {
			break
		}
		msg := c.Meta.(int)
		want, ok := m.got[msg]
		if !ok || c.Ctx != want.Ctx || c.Bytes != len(data[msg]) {
			t.Fatalf("%v seed %d: message %d completed with ctx %v, %d bytes; model: consumed=%v ctx %v, %d bytes",
				tr, seed, msg, c.Ctx, c.Bytes, ok, want.Ctx, len(data[msg]))
		}
		if want.Buf != nil && !bytes.Equal(want.Buf[:c.Bytes], data[msg]) {
			t.Fatalf("%v seed %d: message %d did not land in the buffer of WQE %v", tr, seed, msg, want.Ctx)
		}
		delivered++
	}
	if delivered != len(m.got) {
		t.Fatalf("%v seed %d: %d receive completions, model consumed %d WQEs", tr, seed, delivered, len(m.got))
	}
	return m, merged
}

// TestRecvQueueMatchesItemModel: a receive queue that keeps blank WQEs as a
// run hands every message the WQE an entry-per-WQE queue would, for RC
// (with sends buffered until a receive is posted) and UD (with datagrams
// dropped on an empty queue).
func TestRecvQueueMatchesItemModel(t *testing.T) {
	for _, tr := range []Transport{RC, UD} {
		var rnr, drops, tagged, merged int
		for seed := int64(1); seed <= 30; seed++ {
			m, mg := recvProgram(t, tr, seed)
			rnr, drops, tagged, merged = rnr+m.rnr, drops+m.drops, tagged+m.tagsHandled, max(merged, mg)
		}
		if tagged == 0 || merged < 2 || (tr == RC && rnr == 0) || (tr == UD && drops == 0) {
			t.Errorf("%v: the seeds consumed %d tagged WQEs, buffered %d sends, dropped %d datagrams, merged at most %d blank WQEs: not a test of runs",
				tr, tagged, rnr, drops, merged)
		}
	}
}

// refCQ is the completion queue as it was before runs: one ring entry per
// completion. Everything else is CQ's code.
type refCQ struct {
	env      *sim.Env
	items    sim.Ring[Completion]
	waiters  sim.Ring[*sim.Event]
	drain    func(any)
	armed    bool
	handling bool
	then     func()
}

func (c *refCQ) post(comp Completion) {
	c.items.Push(comp)
	if c.armed {
		c.armed = false
		c.env.AtArg(0, c.drain, nil)
	} else if c.waiters.Len() > 0 {
		c.waiters.Pop().Trigger(nil)
	}
}

func (c *refCQ) SetHandler(fn func(Completion)) {
	c.drain = func(any) {
		for c.items.Len() > 0 {
			c.handling = true
			fn(c.items.Pop())
			c.handling = false
			if c.then != nil {
				return
			}
		}
		c.armed = true
	}
	c.env.AtArg(0, c.drain, nil)
}

func (c *refCQ) Hold(d sim.Time, then func()) {
	c.then = then
	c.env.AtArg(d, func(any) {
		c.env.AtArg(0, func(any) {
			then := c.then
			c.then = nil
			then()
			c.drain(nil)
		}, nil)
	}, nil)
}

func (c *refCQ) Poll(p *sim.Proc) Completion {
	for c.items.Len() == 0 {
		ev := c.env.AcquireEvent()
		c.waiters.Push(ev)
		p.Wait(ev)
		c.env.ReleaseEvent(ev)
	}
	return c.items.Pop()
}

func (c *refCQ) TryPoll() (Completion, bool) {
	if c.items.Len() == 0 {
		return Completion{}, false
	}
	return c.items.Pop(), true
}

func (c *refCQ) Len() int { return c.items.Len() }

// completionQueue is what the CQ program drives: a CQ or the reference.
type completionQueue interface {
	post(Completion)
	SetHandler(func(Completion))
	Hold(sim.Time, func())
	Poll(*sim.Proc) Completion
	TryPoll() (Completion, bool)
	Len() int
}

// cqRunProgram posts seeded bursts of completions — most of them identical
// with no Ctx or Meta, the rest differing in one field, carrying a Ctx or a
// Meta, or carrying one of a type == cannot compare — and reads them back
// through a Poll loop that sleeps mid-body plus timed TryPoll and Len probes,
// or through a handler that holds on some completions and probes Len. The
// log is every value read with its instant, and the kernel's counters at
// every RunUntil slice.
func cqRunProgram(seed int64, handled bool, cq func(*sim.Env) completionQueue) []string {
	env := sim.NewEnv()
	defer env.Shutdown()
	rng := rand.New(rand.NewSource(seed))
	c := cq(env)
	var log []string
	read := func(how string, comp Completion) {
		log = append(log, fmt.Sprintf("%d %s %+v len=%d", env.Now(), how, comp, c.Len()))
	}
	same := Completion{Op: OpSend, Status: StatusOK, Bytes: 64, QPN: 7}
	next := func() Completion {
		comp := same
		switch rng.Intn(12) {
		case 0:
			comp.Bytes = rng.Intn(4)
		case 1:
			comp.Ctx = rng.Intn(3)
		case 2:
			comp.Meta = "meta"
		case 3:
			comp.Ctx = []byte{1} // an uncomparable tail must not panic the next post
		case 4:
			comp.ECN = true
		}
		return comp
	}
	budget := 2000
	var produce func()
	produce = func() {
		for n := 1 + rng.Intn(12); n > 0 && budget > 0; n-- {
			budget--
			c.post(next())
		}
		if budget > 0 {
			env.At(sim.Time(rng.Intn(3000)), produce)
		}
	}
	env.At(0, produce)
	if handled {
		then := func() { log = append(log, fmt.Sprintf("%d then len=%d", env.Now(), c.Len())) }
		c.SetHandler(func(comp Completion) {
			read("handler", comp)
			if rng.Intn(3) == 0 {
				c.Hold(sim.Time(rng.Intn(2))*sim.Time(rng.Intn(5000)), then)
			}
		})
	} else {
		env.Go("poller", func(p *sim.Proc) {
			for {
				read("poll", c.Poll(p))
				if rng.Intn(3) == 0 {
					p.Sleep(sim.Time(rng.Intn(4000)))
				}
			}
		})
		var probe func()
		probe = func() {
			if comp, ok := c.TryPoll(); ok {
				read("trypoll", comp)
			} else {
				log = append(log, fmt.Sprintf("%d trypoll empty", env.Now()))
			}
			if budget > 0 {
				env.At(sim.Time(rng.Intn(5000)), probe)
			}
		}
		env.At(0, probe)
	}
	for quiet := 0; quiet < 3; {
		before := env.Executed()
		env.RunUntil(env.Now() + sim.Time(1+rng.Intn(8000)))
		log = append(log, fmt.Sprintf("now=%d executed=%d pending=%d len=%d",
			env.Now(), env.Executed(), env.Pending(), c.Len()))
		if budget == 0 && env.Executed() == before {
			quiet++
		} else {
			quiet = 0
		}
	}
	return log
}

// TestCQMatchesItemQueue: a CQ that keeps identical identity-free
// completions as a run is, through Poll, TryPoll, Len and a handler that
// holds, indistinguishable from an entry-per-completion queue — same values,
// same instants, same kernel counters.
func TestCQMatchesItemQueue(t *testing.T) {
	merged := 0
	for _, handled := range []bool{false, true} {
		for seed := int64(1); seed <= 20; seed++ {
			ref := cqRunProgram(seed, handled, func(env *sim.Env) completionQueue { return &refCQ{env: env} })
			got := cqRunProgram(seed, handled, func(env *sim.Env) completionQueue {
				return cqProbe{NewCQ(env), &merged}
			})
			if len(ref) < 500 {
				t.Fatalf("seed %d: program too small to mean anything (%d log lines)", seed, len(ref))
			}
			for i := range ref {
				if i >= len(got) || ref[i] != got[i] {
					t.Fatalf("handled=%v seed %d: line %d: run storage diverges from the item queue\n items: %v\n runs:  %v",
						handled, seed, i, ref[i], append(got, "<end>")[i])
				}
			}
			if len(got) != len(ref) {
				t.Fatalf("handled=%v seed %d: %d log lines, item queue %d", handled, seed, len(got), len(ref))
			}
		}
	}
	if merged < 2 {
		t.Errorf("no run ever held more than %d completions: not a test of runs", merged)
	}
}

// cqProbe is a CQ that notes the most completions one run held.
type cqProbe struct {
	*CQ
	merged *int
}

func (p cqProbe) post(c Completion) {
	p.CQ.post(c)
	*p.merged = max(*p.merged, tailRun(&p.items))
}

// tailRun is how many entries the newest run holds.
func tailRun[T any](r *runs[T]) int {
	if k := r.q.Len(); k > 0 {
		return r.q.At(k - 1).n
	}
	return 0
}
