package sim

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// job is what the test servers serve: the service time is fixed when the job
// is made, so both runs of a program charge the same cost whatever order
// they call the cost function in.
type job struct {
	id   int
	cost Time
}

// newStation starts one serial service context and returns its put: a
// Server, or the reference a Server must be indistinguishable from — the
// process loop over a Queue that every converted site used to be.
func newStation(env *Env, served bool, cost func(job) Time, done func(job)) (put func(job)) {
	if served {
		return NewServer(env, cost, done).Put
	}
	q := NewQueue[job](env, 0)
	env.Go("", func(p *Proc) {
		for {
			j := q.Get(p)
			p.Sleep(cost(j))
			done(j)
		}
	})
	return func(j job) { q.TryPut(j) }
}

// serverProgram is a seeded random workload over one environment: a few
// stations fed in bursts from scheduler context (At events), from a producer
// process that idles between bursts, and from inside done. Service times are
// mostly one of a few fixed values — so service ends tie with each other and
// with unrelated At events scheduled at the same delays — and sometimes
// zero. Handlers occasionally Stop the run.
type serverProgram struct {
	env      *Env
	rng      *rand.Rand
	stations []func(job) // each station's put
	nextID   int
	budget   int // jobs the handlers may still spawn
	fire     func(any)
	log      []string
}

var serverCosts = []Time{0, 0, 3, 3, 3, 7, 7, 20}

func newServerProgram(seed int64, served bool) *serverProgram {
	p := &serverProgram{env: NewEnv(), rng: rand.New(rand.NewSource(seed))}
	cost := func(j job) Time {
		p.log = append(p.log, fmt.Sprintf("%d:start:%d", p.env.Now(), j.id))
		return j.cost
	}
	done := func(j job) {
		p.log = append(p.log, fmt.Sprintf("%d:done:%d", p.env.Now(), j.id))
		p.spawn(2)
		if p.rng.Intn(97) == 0 {
			p.env.Stop()
		}
	}
	p.fire = func(v any) {
		p.log = append(p.log, fmt.Sprintf("%d:fire:%d", p.env.Now(), v.(int)))
		p.spawn(3)
	}
	// One station exists before anything is queued, one is created with
	// jobs already waiting at its first activation (below), one mid-run.
	p.stations = append(p.stations, newStation(p.env, served, cost, done))
	p.env.At(50, func() { p.stations = append(p.stations, newStation(p.env, served, cost, done)) })
	late := newStation(p.env, served, cost, done)
	p.stations = append(p.stations, late)
	for i := 0; i < 3; i++ {
		late(p.newJob())
	}
	p.env.Go("producer", func(pr *Proc) {
		for {
			pr.Sleep(Time(p.rng.Intn(120))) // often long enough for every station to go idle
			for n := p.rng.Intn(6); n > 0 && p.budget > 0; n-- {
				p.budget--
				p.put()
			}
		}
	})
	return p
}

func (p *serverProgram) newJob() job {
	p.nextID++
	return job{id: p.nextID, cost: serverCosts[p.rng.Intn(len(serverCosts))]}
}

func (p *serverProgram) put() {
	p.stations[p.rng.Intn(len(p.stations))](p.newJob())
}

// spawn issues up to max random actions: a put, or an unrelated At event at
// one of the service times (a tie with whatever service ends then).
func (p *serverProgram) spawn(max int) {
	for n := p.rng.Intn(max); n > 0 && p.budget > 0; n-- {
		p.budget--
		if p.rng.Intn(3) == 0 {
			p.nextID++
			p.env.AtArg(serverCosts[p.rng.Intn(len(serverCosts))], p.fire, p.nextID)
		} else {
			p.put()
		}
	}
}

// run executes the program in three bursts, each in RunUntil slices until
// its budget is spent and the world has gone quiet, and appends the kernel's
// own counters to the log at every stop.
func (p *serverProgram) run() {
	for burst := 0; burst < 3; burst++ {
		p.budget = 400
		for i := 0; i < 30; i++ {
			p.put()
		}
		for quiet := 0; quiet < 3; {
			before := p.env.Executed()
			p.env.RunUntil(p.env.Now() + Time(1+p.rng.Intn(25)))
			p.log = append(p.log, fmt.Sprintf("now=%d executed=%d pending=%d",
				p.env.Now(), p.env.Executed(), p.env.Pending()))
			if p.budget == 0 && p.env.Executed() == before {
				quiet++
			} else {
				quiet = 0
			}
		}
	}
	p.env.Shutdown()
}

func TestServerMatchesProcessLoop(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		ref, got := newServerProgram(seed, false), newServerProgram(seed, true)
		ref.run()
		got.run()
		if len(ref.log) < 1000 {
			t.Fatalf("seed %d: program too small to mean anything (%d log lines)", seed, len(ref.log))
		}
		for i := range ref.log {
			if i >= len(got.log) || ref.log[i] != got.log[i] {
				t.Fatalf("seed %d: line %d: served run diverges from the process loop\n process: %v\n server:  %v",
					seed, i, ref.log[i], append(got.log, "<end>")[i])
			}
		}
		if len(got.log) != len(ref.log) {
			t.Fatalf("seed %d: served run logged %d lines, process loop %d", seed, len(got.log), len(ref.log))
		}
	}
}

// The point of a server: no process stands behind it.
func TestServerIsNotAProcess(t *testing.T) {
	e := NewEnv()
	served := 0
	s := NewServer(e, func(job) Time { return 5 }, func(job) { served++ })
	for i := 0; i < 10; i++ {
		s.Put(job{id: i})
	}
	if end := e.Run(); end != 50 || served != 10 {
		t.Fatalf("10 jobs of 5 ns served serially: %d done at %v, want 10 at 50ns", served, end)
	}
	if n := e.LiveProcs(); n != 0 {
		t.Fatalf("%d live processes behind a server, want 0", n)
	}
}

// A warm server allocates nothing per item, whatever the item type: the item
// in service rides in the server, not in the heap entry.
func TestServerSteadyStateAllocs(t *testing.T) {
	e := NewEnv()
	s := NewServer(e, func(j job) Time { return j.cost }, func(job) {})
	cycle := func() {
		for i := 0; i < 100; i++ {
			s.Put(job{id: i, cost: Time(i % 4)})
		}
		e.Run()
	}
	cycle()
	if a := testing.AllocsPerRun(20, cycle); a != 0 {
		t.Fatalf("a warm server allocates %.1f times per 100-job cycle, want 0", a)
	}
}

func TestServerNegativeCostPanics(t *testing.T) {
	e := NewEnv()
	s := NewServer(e, func(job) Time { return -1 }, func(job) {})
	s.Put(job{})
	defer func() {
		msg := fmt.Sprint(recover())
		if !strings.HasPrefix(msg, "sim: ") || !strings.Contains(msg, "negative service time") {
			t.Fatalf("negative cost: panic %q, want a sim: message naming the negative service time", msg)
		}
	}()
	e.Run()
}
