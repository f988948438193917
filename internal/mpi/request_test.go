package mpi

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/topo"
)

// TestRequestMisusePanics: a request completes exactly once and is dead
// after Wait. With recycling, a second completion or a late Wait would
// otherwise act silently on whichever operation reused the object.
func TestRequestMisusePanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		want string
		body func(r *Rank, p *sim.Proc)
	}{
		{"complete twice", "mpi: request completed twice", func(r *Rank, p *sim.Proc) {
			q := r.newRequest(1, 0, 8, nil)
			q.complete()
			q.complete()
		}},
		{"Wait after Wait", "mpi: request used after Wait freed it", func(r *Rank, p *sim.Proc) {
			q := r.Isend(p, 1, 0, nil, 8)
			q.Wait(p)
			q.Wait(p)
		}},
		{"Done after Wait", "mpi: request used after Wait freed it", func(r *Rank, p *sim.Proc) {
			q := r.Isend(p, 1, 0, nil, 8)
			q.Wait(p)
			q.Done()
		}},
		{"complete after Wait", "mpi: request used after Wait freed it", func(r *Rank, p *sim.Proc) {
			q := r.newRequest(1, 0, 8, nil)
			q.complete()
			q.Wait(p)
			q.complete()
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := crossWorld(0, Config{})
			defer w.Shutdown()
			defer func() {
				if got := fmt.Sprint(recover()); !strings.Contains(got, tc.want) {
					t.Errorf("panicked with %q, want %q", got, tc.want)
				}
			}()
			w.Run(func(r *Rank, p *sim.Proc) {
				if r.ID() == 0 {
					tc.body(r, p)
				} else {
					r.Recv(p, 0, 0, nil, 8)
				}
			})
			t.Error("no panic")
		})
	}
}

// TestWarmMPIRoundTripAllocs is the allocation budget of a warm round trip
// between two ranks, across a 1 ms WAN or over shared memory: nothing.
// Requests and their events come from the rank's lists and Wait frees them;
// an eager header comes from the sender's list and deliverEager frees it,
// also when it waited in the unexpected queue; a rendezvous header is its
// request's hdr and a landing region its receive's landing. The
// per-iteration figure is the difference of a 2 000- and a 1 000-iteration
// run, so building and warming a world cancels out; each run is the least of
// three, so a garbage collection's own objects do not count, and the figure
// is rounded: an object or two per run (a ring doubling once more in the
// longer run) is not an object per round trip.
func TestWarmMPIRoundTripAllocs(t *testing.T) {
	const delay = sim.Millisecond
	for _, tc := range []struct {
		name string
		size int
		shm  bool
		// late posts each receive 3 ms after the peer could send, so every
		// message arrives unexpected.
		late bool
	}{
		{"eager 1KB", 1 << 10, false, false},
		{"rendezvous 64KB", 64 << 10, false, false},
		{"eager 1KB unexpected", 1 << 10, false, true},
		{"eager 1KB shared memory", 1 << 10, true, false},
		{"rendezvous 64KB shared memory", 64 << 10, true, false},
	} {
		run := func(iters int) int64 {
			env := sim.NewEnv()
			tb := cluster.New(env, cluster.Config{NodesA: 1, NodesB: 1, Delay: delay})
			placement := []*cluster.Node{tb.A[0], tb.B[0]}
			if tc.shm {
				placement[1] = tb.A[0]
			}
			w := NewWorld(env, placement, Config{})
			defer w.Shutdown()
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			w.Run(func(r *Rank, p *sim.Proc) {
				recv := func(src int) {
					if tc.late {
						p.Sleep(3 * delay)
					}
					r.Recv(p, src, 0, nil, tc.size)
				}
				for i := 0; i < iters; i++ {
					if r.ID() == 0 {
						r.Send(p, 1, 0, nil, tc.size)
						recv(1)
					} else {
						recv(0)
						r.Send(p, 0, 0, nil, tc.size)
					}
				}
			})
			runtime.ReadMemStats(&after)
			return int64(after.Mallocs - before.Mallocs)
		}
		mallocs := func(iters int) int64 { return min(run(iters), run(iters), run(iters)) }
		per := float64(mallocs(2000)-mallocs(1000)) / 1000
		t.Logf("%s: %.2f objects per round trip", tc.name, per)
		if math.Round(per) > 0 {
			t.Errorf("%s round trip allocated %.2f objects, want 0", tc.name, per)
		}
	}
}

// releaseProgram is contextProgram — eager and rendezvous, matched and
// unexpected, AnySource, over the wire and over shared memory — followed by
// a Sendrecv ring in both protocols, so the requests Send, Recv, Sendrecv
// and WaitAll make for themselves are freed too. The ring starts once
// contextProgram is over everywhere (it ends at 32 ms), so that no ring
// message meets contextProgram's last AnySource, AnyTag receive. Each rank
// writes what its ring steps received into its slot of out.
func releaseProgram(t *testing.T, out *[4]string) func(r *Rank, p *sim.Proc) {
	const ringStart = 50 * sim.Millisecond
	program := contextProgram(t)
	return func(r *Rank, p *sim.Proc) {
		program(r, p)
		if p.Now() > ringStart {
			t.Errorf("rank %d: contextProgram ended at %d ns, after the ring's start", r.ID(), int64(p.Now()))
		} else {
			p.Sleep(ringStart - p.Now())
		}
		n, id := r.Size(), r.ID()
		for _, size := range []int{1 << 10, 64 << 10} {
			got, from := r.Sendrecv(p, (id+1)%n, 50, nil, size, (id+n-1)%n, 50, nil, size)
			out[id] += fmt.Sprintf(" %dB from %d at %d;", got, from, p.Now())
		}
	}
}

// releaseWorlds build the four ranks of contextProgram (0, 1 on one node, 2,
// 3 on another across a 1 ms WAN) on env: a classic world, and a two-site
// topology split into one shard per site.
var releaseWorlds = []struct {
	name  string
	build func(t *testing.T, env *sim.Env) *World
}{
	{"classic", func(t *testing.T, env *sim.Env) *World {
		tb := cluster.New(env, cluster.Config{NodesA: 1, NodesB: 1, Delay: sim.Millisecond})
		return NewWorld(env, BlockPlacement([]*cluster.Node{tb.A[0], tb.B[0]}, 2), Config{})
	}},
	{"sharded", func(t *testing.T, env *sim.Env) *World {
		env.SetShardWorkers(2)
		nw, err := topo.Build(env, topo.Topology{
			Sites: []topo.Site{{Name: "A", Nodes: 1}, {Name: "B", Nodes: 1}},
			Links: []topo.Link{{A: "A", B: "B", Delay: sim.Millisecond}},
		})
		if err != nil {
			t.Fatal(err)
		}
		if !env.Sharded() {
			t.Fatal("the two-site world was not partitioned")
		}
		return NewWorld(nw.Env, BlockPlacement(nw.Nodes(), 2), Config{})
	}},
}

// homeLists is one home environment's free requests and eager headers.
type homeLists struct {
	reqs *sim.Free[Request]
	msgs *sim.Free[mpiMsg]
}

// homePools returns the request lists of the world's home environments, in
// rank order: one per environment, shared by the ranks on it.
func homePools(t *testing.T, w *World) []homeLists {
	var pools []homeLists
	byEnv := map[*sim.Env]homeLists{}
	for _, r := range w.ranks {
		l := homeLists{r.reqs, r.msgs}
		pool, ok := byEnv[r.env()]
		switch {
		case !ok:
			byEnv[r.env()] = l
			pools = append(pools, l)
		case pool != l:
			t.Fatalf("rank %d does not share its environment's request list", r.id)
		}
	}
	if len(pools) != len(byEnv) {
		t.Fatal("two environments share a request list")
	}
	return pools
}

// runRelease runs releaseProgram on w and returns what it printed.
func runRelease(t *testing.T, w *World) string {
	var out [4]string
	finish := w.Run(releaseProgram(t, &out))
	return fmt.Sprintf("%s\nfinish %d ns, %d events", strings.Join(out[:], "\n"), int64(finish), w.env.Executed())
}

// checkFreed requires f, a home's list of freed records of one kind, to
// hold each of want exactly once, zeroed as the release path left it, and
// nothing else.
func checkFreed[T any](t *testing.T, what string, home int, f *sim.Free[T], want map[*T]bool) {
	t.Helper()
	seen := map[*T]bool{}
	free := pooled(f, func(q *T) {
		switch {
		case seen[q]:
			t.Errorf("home %d, %s list: a record was freed twice", home, what)
		case !want[q]:
			t.Errorf("home %d, %s list: it holds a record that is not its own", home, what)
		case !reflect.ValueOf(q).Elem().IsZero():
			t.Errorf("home %d, %s list: a freed record was not zeroed: %+v", home, what, *q)
		}
		seen[q] = true
	})
	if len(free) != len(want) {
		t.Errorf("home %d, %s list: %d records back, want %d", home, what, len(free), len(want))
	}
}

// pooled returns the records on f, the last put first, and leaves f holding
// them again. Putting them back resets them, so check, if not nil, sees each
// one first, as the list held it.
func pooled[T any](f *sim.Free[T], check func(*T)) []*T {
	var all []*T
	for f.Len() > 0 {
		v := f.Get()
		if check != nil {
			check(v)
		}
		all = append(all, v)
	}
	for i := len(all) - 1; i >= 0; i-- {
		f.Put(all[i])
	}
	return all
}

// setOf returns the records of a list as a set.
func setOf[T any](free []*T) map[*T]bool {
	set := map[*T]bool{}
	for _, q := range free {
		set[q] = true
	}
	return set
}

// TestRequestsReleasedAtHome: every request is freed exactly once, onto the
// list of its own rank's environment, and every eager header exactly once
// onto its sender's — also on a world whose sites run on two shards, where
// the receiver frees a header over the return lane — and an arena carries
// the lists to the next world, which prints what a world on fresh memory
// prints and takes no new request or header.
func TestRequestsReleasedAtHome(t *testing.T) {
	const seed = 64 // per home: more than the program ever has outstanding there
	for _, arm := range releaseWorlds {
		t.Run(arm.name, func(t *testing.T) {
			// Fresh memory, every home's lists seeded: at the end each holds
			// exactly its own seeds again.
			w := arm.build(t, sim.NewEnv())
			pools := homePools(t, w)
			reqSeeds := make([]map[*Request]bool, len(pools))
			msgSeeds := make([]map[*mpiMsg]bool, len(pools))
			for i, pool := range pools {
				for j := 0; j < seed; j++ {
					pool.reqs.Put(&Request{})
					pool.msgs.Put(&mpiMsg{})
				}
				reqSeeds[i], msgSeeds[i] = setOf(pooled(pool.reqs, nil)), setOf(pooled(pool.msgs, nil))
			}
			want := runRelease(t, w)
			w.Shutdown()
			for i, pool := range pools {
				checkFreed(t, "request", i, pool.reqs, reqSeeds[i])
				checkFreed(t, "eager header", i, pool.msgs, msgSeeds[i])
			}

			// Two worlds on one arena: the second finds the first's lists and,
			// running the same program, takes nothing new and loses nothing.
			a := sim.NewArena()
			var prev []homeLists
			var keptReqs []map[*Request]bool
			var keptMsgs []map[*mpiMsg]bool
			for round := 0; round < 2; round++ {
				env := a.NewEnv()
				w := arm.build(t, env)
				pools := homePools(t, w)
				if got := runRelease(t, w); got != want {
					t.Errorf("world %d on the arena printed\n%s\nwant (fresh memory)\n%s", round+1, got, want)
				}
				w.Shutdown()
				a.Reclaim(env)
				if round == 0 {
					for i, pool := range pools {
						keptReqs = append(keptReqs, setOf(pooled(pool.reqs, nil)))
						keptMsgs = append(keptMsgs, setOf(pooled(pool.msgs, nil)))
						checkFreed(t, "request", i, pool.reqs, keptReqs[i])
						checkFreed(t, "eager header", i, pool.msgs, keptMsgs[i])
					}
					prev = pools
					continue
				}
				for i, pool := range pools {
					if pool != prev[i] {
						t.Errorf("home %d: the second world did not get the first's lists", i)
					}
					checkFreed(t, "request", i, pool.reqs, keptReqs[i])
					checkFreed(t, "eager header", i, pool.msgs, keptMsgs[i])
				}
			}
		})
	}
}

// TestRanksReleasedAtHome: a world and its ranks are records of their
// environments' lists. Arena.Reclaim takes each rank back blank — its maps
// and queues emptied, keeping only memory: their capacity, its collective
// scratch and the function values made with the record — and the next world
// on the arena is the same world record, built of the same rank records,
// each at its own home, one rank to a record; it prints what a world on
// fresh memory prints.
func TestRanksReleasedAtHome(t *testing.T) {
	collectives := func(r *Rank, p *sim.Proc) {
		r.Allreduce(p, []float64{float64(r.ID()), 1, 2})
		r.HierAllreduce(p, []float64{float64(r.ID())})
		r.AlltoallSynthetic(p, 1<<10)
	}
	for _, arm := range releaseWorlds {
		t.Run(arm.name, func(t *testing.T) {
			w := arm.build(t, sim.NewEnv())
			want := runRelease(t, w)
			w.Run(collectives)
			w.Shutdown()

			a := sim.NewArena()
			var prevWorld *World
			var prev []map[*Rank]bool // round 1's records by home, in rank order
			for round := 0; round < 2; round++ {
				env := a.NewEnv()
				w := arm.build(t, env)
				homes := ranksByHome(t, w)
				if got := runRelease(t, w); got != want {
					t.Errorf("world %d on the arena printed\n%s\nwant (fresh memory)\n%s", round+1, got, want)
				}
				w.Run(collectives)
				w.Shutdown()
				a.Reclaim(env)
				for _, r := range w.ranks {
					checkBlank(t, r)
				}
				if round == 0 {
					prevWorld, prev = w, homes
					continue
				}
				if w != prevWorld {
					t.Error("the second world is not the first's record")
				}
				if !reflect.DeepEqual(homes, prev) {
					t.Error("the second world's ranks are not the first's records, each at its own home")
				}
			}
		})
	}
}

// ranksByHome returns the world's rank records grouped by home environment,
// the homes in the order of their first rank.
func ranksByHome(t *testing.T, w *World) []map[*Rank]bool {
	var homes []map[*Rank]bool
	index := map[*sim.Env]int{}
	for _, r := range w.ranks {
		i, ok := index[r.env()]
		if !ok {
			i = len(homes)
			index[r.env()] = i
			homes = append(homes, map[*Rank]bool{})
		}
		if homes[i][r] {
			t.Fatalf("rank %d shares its record with another rank", r.id)
		}
		homes[i][r] = true
	}
	return homes
}

// checkBlank requires r, a rank record Arena.Reclaim took back, to keep
// nothing of its world: empty maps, queues at length 0 with their arrays
// cleared, and nothing else set but its scratch and the function values.
func checkBlank(t *testing.T, r *Rank) {
	t.Helper()
	if len(r.qps) != 0 || len(r.byQPN) != 0 {
		t.Errorf("a reclaimed rank keeps %d QPs by peer and %d by QPN", len(r.qps), len(r.byQPN))
	}
	if r.copied == nil || r.runShm == nil || r.runProgress == nil || r.run == nil {
		t.Error("a reclaimed rank lost a function value made with its record")
	}
	for _, q := range r.postedRecvs[:cap(r.postedRecvs)] {
		if q != nil {
			t.Error("a reclaimed rank's posted receives still name a request")
		}
	}
	for _, m := range r.unexpected[:cap(r.unexpected)] {
		if m != nil {
			t.Error("a reclaimed rank's unexpected queue still names a header")
		}
	}
	for _, it := range r.shm[:cap(r.shm)] {
		if it != (shmItem{}) {
			t.Error("a reclaimed rank's shared-memory queue still holds an event")
		}
	}
	for _, q := range r.batch[:cap(r.batch)] {
		if q != nil {
			t.Error("a reclaimed rank's alltoall requests still name a request")
		}
	}
	if cap(r.acc) == 0 || cap(r.wire) == 0 || cap(r.land) == 0 {
		t.Error("a reclaimed rank dropped its collective scratch")
	}
	v := *r
	if n := len(v.postedRecvs) + len(v.unexpected) + len(v.shm) + len(v.acc) + len(v.wire) + len(v.land) + len(v.batch); n != 0 {
		t.Errorf("a reclaimed rank's queues and scratch hold %d entries", n)
	}
	v.qps, v.byQPN, v.copied, v.runShm, v.runProgress, v.run = nil, nil, nil, nil, nil, nil
	v.postedRecvs, v.unexpected, v.shm, v.acc, v.wire, v.land, v.batch = nil, nil, nil, nil, nil, nil, nil
	if !reflect.ValueOf(v).IsZero() {
		t.Errorf("a reclaimed rank keeps state of its world: %+v", v)
	}
}
