package sim

import (
	"fmt"
	"math/rand"
	"testing"
	"unsafe"
)

func TestEntryIs56Bytes(t *testing.T) {
	if n := unsafe.Sizeof(entry{}); n > 56 {
		t.Fatalf("heap entry is %d bytes, want <= 56: every sift moves whole entries", n)
	}
}

// pipeProgram is a seeded random workload over one environment: direct
// AtArg schedules mixed with schedules through a few pipes whose delays are
// mostly constant (the FIFO case), sometimes zero (same-instant ties) and
// sometimes retuned up or down (the non-monotone case). Handlers schedule
// more work and occasionally Stop the run. With piped false every pipe call
// goes to Env.AtArg instead — the reference a pipe must be indistinguishable
// from.
type pipeProgram struct {
	env    *Env
	piped  bool
	rng    *rand.Rand
	pipes  []Pipe
	delay  []Time // each pipe's current delay
	nextID int
	budget int  // events the handlers may still spawn
	noStop bool // the handlers never Stop the run
	fire   func(any)
	log    []string
}

func newPipeProgram(seed int64, piped bool) *pipeProgram {
	return newPipeProgramOn(NewEnv(), seed, piped)
}

func newPipeProgramOn(env *Env, seed int64, piped bool) *pipeProgram {
	p := &pipeProgram{env: env, piped: piped, rng: rand.New(rand.NewSource(seed))}
	for i := 0; i < 4; i++ {
		p.pipes = append(p.pipes, p.env.NewPipe())
		p.delay = append(p.delay, Time(1+p.rng.Intn(40)))
	}
	p.fire = func(v any) {
		p.log = append(p.log, fmt.Sprintf("%d:%d", p.env.Now(), v.(int)))
		for n := p.rng.Intn(3); n > 0 && p.budget > 0; n-- {
			p.budget--
			p.schedule()
		}
		if p.rng.Intn(97) == 0 && !p.noStop {
			p.env.Stop()
		}
	}
	return p
}

// schedule issues one random schedule call.
func (p *pipeProgram) schedule() {
	id := p.nextID
	p.nextID++
	if p.rng.Intn(4) == 0 {
		p.env.AtArg(Time(p.rng.Intn(60)), p.fire, id)
		return
	}
	k := p.rng.Intn(len(p.pipes))
	d := p.delay[k]
	switch p.rng.Intn(12) {
	case 0:
		d = 0
	case 1:
		d = Time(1 + p.rng.Intn(40)) // retune: later entries may undercut queued ones
		p.delay[k] = d
	}
	if p.piped {
		p.pipes[k].AtArg(d, p.fire, id)
	} else {
		p.env.AtArg(d, p.fire, id)
	}
}

// run executes the program in three bursts separated by a full drain (so
// every pipe empties and refills), each burst in RunUntil slices, and
// appends the kernel's own counters to the log at every stop.
func (p *pipeProgram) run() {
	for burst := 0; burst < 3; burst++ {
		p.budget = 400
		for i := 0; i < 50; i++ {
			p.schedule()
		}
		for p.env.Pending() > 0 {
			p.env.RunUntil(p.env.Now() + Time(1+p.rng.Intn(25)))
			p.log = append(p.log, fmt.Sprintf("now=%d executed=%d pending=%d",
				p.env.Now(), p.env.Executed(), p.env.Pending()))
		}
	}
}

func TestPipeMatchesDirectScheduling(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		ref, got := newPipeProgram(seed, false), newPipeProgram(seed, true)
		ref.run()
		got.run()
		if len(ref.log) < 1000 {
			t.Fatalf("seed %d: program too small to mean anything (%d log lines)", seed, len(ref.log))
		}
		for i := range ref.log {
			if i >= len(got.log) || ref.log[i] != got.log[i] {
				t.Fatalf("seed %d: line %d: piped run diverges from direct scheduling\n direct: %v\n piped:  %v",
					seed, i, ref.log[i], append(got.log, "<end>")[i])
			}
		}
		if len(got.log) != len(ref.log) {
			t.Fatalf("seed %d: piped run logged %d lines, direct %d", seed, len(got.log), len(ref.log))
		}
	}
}

// A deep monotone pipe is the case pipes exist for: however many entries
// wait in it, the heap holds one.
func TestPipeKeepsHeapShallow(t *testing.T) {
	const n = 10000
	e := NewEnv()
	p := e.NewPipe()
	var got []int
	fire := func(v any) { got = append(got, v.(int)) }
	for i := 0; i < n; i++ {
		p.AtArg(Millisecond, fire, i)
		if i%100 == 0 {
			e.RunUntil(e.Now() + 1) // let the clock creep: times differ, order holds
		}
	}
	if len(e.queue.s) != 1 {
		t.Fatalf("%d entries in one pipe stand as %d heap entries, want 1", n, len(e.queue.s))
	}
	if e.Pending() != n {
		t.Fatalf("Pending() = %d, want %d", e.Pending(), n)
	}
	e.Run()
	if len(got) != n || e.Executed() != n || e.Pending() != 0 {
		t.Fatalf("dispatched %d, Executed() %d, Pending() %d; want %d, %d, 0", len(got), e.Executed(), e.Pending(), n, n)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("entry %d dispatched at position %d", v, i)
		}
	}
}

func TestPipeAtRunsClosures(t *testing.T) {
	e := NewEnv()
	p := e.NewPipe()
	var order []string
	p.At(5, func() { order = append(order, "pipe@5") })
	e.At(5, func() { order = append(order, "direct@5") })
	p.At(3, func() { order = append(order, "pipe@3") }) // undercuts the queued entry
	e.Run()
	if got := fmt.Sprint(order); got != "[pipe@3 pipe@5 direct@5]" {
		t.Fatalf("order %v", got)
	}
}

// Pipe storage comes from the environment's node freelist: once warm, a
// pipe that fills and drains allocates nothing.
func TestPipeSteadyStateAllocs(t *testing.T) {
	e := NewEnv()
	p := e.NewPipe()
	fire := func(any) {}
	cycle := func() {
		for i := 0; i < 100; i++ {
			p.AtArg(Time(10), fire, nil)
		}
		e.Run()
	}
	cycle()
	if a := testing.AllocsPerRun(20, cycle); a != 0 {
		t.Fatalf("a warm pipe allocates %.1f times per 100-entry cycle, want 0", a)
	}
}
