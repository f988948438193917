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
// Server, or the process loop over a Queue that every converted site used to
// be, which the instants of a server's items are held against.
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

var serverCosts = []Time{0, 0, 3, 3, 3, 7, 7, 20}

// service is one item's life at a station: when it was put, started and done.
type service struct {
	put, start, end, cost Time
}

// serviceLog records item lives by id and each station's items in put and in
// done order.
type serviceLog struct {
	env   *Env
	items map[int]*service
	puts  [][]int // per station, ids in put order
	dones [][]int // per station, ids in done order
	ended int     // items done
	after func()  // if set, runs at the end of every done
}

func newServiceLog(env *Env) *serviceLog {
	return &serviceLog{env: env, items: map[int]*service{}}
}

// station adds a station to the log and returns its recording put.
func (l *serviceLog) station(served bool) func(job) {
	k := len(l.puts)
	l.puts, l.dones = append(l.puts, nil), append(l.dones, nil)
	put := newStation(l.env, served,
		func(j job) Time { l.items[j.id].start = l.env.Now(); return j.cost },
		func(j job) {
			l.items[j.id].end = l.env.Now()
			l.dones[k] = append(l.dones[k], j.id)
			l.ended++
			if l.after != nil {
				l.after()
			}
		})
	return func(j job) {
		l.items[j.id] = &service{put: l.env.Now(), start: -1, end: -1, cost: j.cost}
		l.puts[k] = append(l.puts[k], j.id)
		put(j)
	}
}

// checkFIFO holds every station's items to the server's contract: done
// order is put order (so every item put was served), start_i = max(put_i,
// done_{i-1}) and done_i = start_i + cost_i.
func (l *serviceLog) checkFIFO(t *testing.T, what string) {
	t.Helper()
	for k, ids := range l.puts {
		if fmt.Sprint(ids) != fmt.Sprint(l.dones[k]) {
			t.Fatalf("%s: station %d finished %v, put %v: done order is not put order", what, k, l.dones[k], ids)
		}
		prev := Time(-1)
		for _, id := range ids {
			it := l.items[id]
			if want := max(it.put, prev); it.start != want || it.end != it.start+it.cost {
				t.Fatalf("%s: station %d item %d put at %d (previous done %d), cost %d: started %d, done %d; want %d and %d",
					what, k, id, it.put, prev, it.cost, it.start, it.end, want, want+it.cost)
			}
			prev = it.end
		}
	}
}

// A feedback-free program — puts at pre-drawn instants, many of them ties,
// many items of zero cost — starts and finishes every item at the instants
// the process loop does, and both keep the FIFO recurrence.
func TestServerMatchesProcessLoopInstants(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		run := func(served bool) *serviceLog {
			env := NewEnv()
			l := newServiceLog(env)
			rng := rand.New(rand.NewSource(seed))
			stations := []func(job){l.station(served), l.station(served), l.station(served)}
			for id := 1; id <= 600; id++ {
				j := job{id: id, cost: serverCosts[rng.Intn(len(serverCosts))]}
				put := stations[rng.Intn(len(stations))]
				if id%50 == 0 {
					put(j) // before the run starts
				} else {
					env.At(Time(rng.Intn(400)), func() { put(j) })
				}
			}
			env.Run()
			env.Shutdown()
			return l
		}
		ref, got := run(false), run(true)
		ref.checkFIFO(t, fmt.Sprintf("seed %d, process loop", seed))
		got.checkFIFO(t, fmt.Sprintf("seed %d, server", seed))
		queued := 0
		for id, want := range ref.items {
			it := got.items[id]
			if it.start != want.start || it.end != want.end {
				t.Fatalf("seed %d: item %d served at [%d, %d], the process loop served it at [%d, %d]",
					seed, id, it.start, it.end, want.start, want.end)
			}
			if want.start > want.put {
				queued++
			}
		}
		if queued < 100 {
			t.Fatalf("seed %d: only %d items queued behind another: not a test of the recurrence", seed, queued)
		}
	}
}

// serverProgram is a seeded random workload over one environment whose puts
// feed back on service: a few stations fed in bursts from scheduler context
// (At events), from a producer process that idles between bursts, and from
// inside done. Service times are mostly one of a few fixed values — so
// service ends tie with each other and with unrelated At events scheduled at
// the same delays — and sometimes zero. Handlers occasionally Stop the run.
type serverProgram struct {
	env      *Env
	rng      *rand.Rand
	log      *serviceLog
	stations []func(job) // each station's put
	nextID   int
	budget   int // jobs the handlers may still spawn
	fire     func(any)
}

func newServerProgram(seed int64) *serverProgram {
	env := NewEnv()
	p := &serverProgram{env: env, rng: rand.New(rand.NewSource(seed)), log: newServiceLog(env)}
	p.log.after = func() {
		p.spawn(2)
		if p.rng.Intn(97) == 0 {
			p.env.Stop()
		}
	}
	p.fire = func(any) { p.spawn(3) }
	// One station exists before anything is queued, one is created with
	// jobs already waiting, one mid-run.
	p.stations = append(p.stations, p.log.station(true))
	p.env.At(50, func() { p.stations = append(p.stations, p.log.station(true)) })
	late := p.log.station(true)
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
			p.env.AtArg(serverCosts[p.rng.Intn(len(serverCosts))], p.fire, nil)
		} else {
			p.put()
		}
	}
}

// run executes the program in three bursts, each in RunUntil slices until
// its budget is spent and every item put has been served.
func (p *serverProgram) run() {
	for burst := 0; burst < 3; burst++ {
		p.budget = 400
		for i := 0; i < 30; i++ {
			p.put()
		}
		for p.budget > 0 || p.log.ended < len(p.log.items) {
			p.env.RunUntil(p.env.Now() + Time(1+p.rng.Intn(25)))
		}
	}
	p.env.Shutdown()
}

// With feedback — puts from done, from At handlers at the service times and
// from a process, Stops mid-instant, stations made mid-run — every run keeps
// the FIFO recurrence over its own put log, and finishes in put order.
func TestServerKeepsFIFORecurrence(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		p := newServerProgram(seed)
		p.run()
		if len(p.log.items) < 500 {
			t.Fatalf("seed %d: program too small to mean anything (%d items)", seed, len(p.log.items))
		}
		p.log.checkFIFO(t, fmt.Sprintf("seed %d", seed))
	}
}

// The point of a server: no process stands behind it, nothing is scheduled
// until there is work, and an item costs one dispatch — its service end.
func TestServerIsNotAProcess(t *testing.T) {
	e := NewEnv()
	served := 0
	s := NewServer(e, func(job) Time { return 5 }, func(job) { served++ })
	if n := e.Pending(); n != 0 {
		t.Fatalf("a new server scheduled %d entries, want 0", n)
	}
	for i := 0; i < 10; i++ {
		s.Put(job{id: i})
	}
	if end := e.Run(); end != 50 || served != 10 {
		t.Fatalf("10 jobs of 5 ns served serially: %d done at %v, want 10 at 50ns", served, end)
	}
	if n := e.Executed(); n != 10 {
		t.Fatalf("10 jobs took %d dispatches, want 10", n)
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

// An idle server starts service inside Put, so that is where a negative
// cost panics.
func TestServerNegativeCostPanics(t *testing.T) {
	e := NewEnv()
	s := NewServer(e, func(job) Time { return -1 }, func(job) {})
	defer func() {
		msg := fmt.Sprint(recover())
		if !strings.HasPrefix(msg, "sim: ") || !strings.Contains(msg, "negative service time") {
			t.Fatalf("negative cost: panic %q, want a sim: message naming the negative service time", msg)
		}
	}()
	s.Put(job{})
	e.Run()
}
