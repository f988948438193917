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
// between two nodes across a 1 ms WAN. Requests, their events and the
// rendezvous headers are recycled; what is left is the two eager headers of
// an eager round trip and the two virtual landing regions of a rendezvous
// one. The per-iteration figure is the difference of a 2 000- and a
// 1 000-iteration run, so building and warming a world cancels out; each run
// is the least of three, so a garbage collection's own objects do not count,
// and the figure is rounded: an object or two per run (a ring doubling once
// more in the longer run) is not an object per round trip.
func TestWarmMPIRoundTripAllocs(t *testing.T) {
	for _, tc := range []struct {
		name string
		size int
	}{{"eager 1KB", 1 << 10}, {"rendezvous 64KB", 64 << 10}} {
		run := func(iters int) int64 {
			w := crossWorld(sim.Millisecond, Config{})
			defer w.Shutdown()
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			w.Run(func(r *Rank, p *sim.Proc) {
				for i := 0; i < iters; i++ {
					if r.ID() == 0 {
						r.Send(p, 1, 0, nil, tc.size)
						r.Recv(p, 1, 0, nil, tc.size)
					} else {
						r.Recv(p, 0, 0, nil, tc.size)
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
		if math.Round(per) > 2 {
			t.Errorf("%s round trip allocated %.2f objects, want <= 2", tc.name, per)
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

// homePools returns the request lists of the world's home environments, in
// rank order: one per environment, shared by the ranks on it.
func homePools(t *testing.T, w *World) []*reqPool {
	var pools []*reqPool
	byEnv := map[*sim.Env]*reqPool{}
	for _, r := range w.ranks {
		pool, ok := byEnv[r.env()]
		switch {
		case !ok:
			byEnv[r.env()] = r.reqs
			pools = append(pools, r.reqs)
		case pool != r.reqs:
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

// checkFreed requires pool to hold each of want exactly once, zeroed, and
// nothing else.
func checkFreed(t *testing.T, home int, pool *reqPool, want map[*Request]bool) {
	t.Helper()
	seen := map[*Request]bool{}
	for _, q := range pool.free {
		switch {
		case seen[q]:
			t.Errorf("home %d: a request was freed twice", home)
		case !want[q]:
			t.Errorf("home %d: the list holds a request that is not its own", home)
		case !reflect.ValueOf(q).Elem().IsZero():
			t.Errorf("home %d: a freed request was not zeroed: %+v", home, *q)
		}
		seen[q] = true
	}
	if len(pool.free) != len(want) {
		t.Errorf("home %d: %d requests back on the list, want %d", home, len(pool.free), len(want))
	}
}

// TestRequestsReleasedAtHome: every request is freed exactly once, onto the
// list of its own rank's environment — also on a world whose sites run on
// two shards — and an arena carries the lists to the next world, which
// prints what a world on fresh memory prints.
func TestRequestsReleasedAtHome(t *testing.T) {
	const seed = 64 // per home: more than the program ever has outstanding there
	for _, arm := range releaseWorlds {
		t.Run(arm.name, func(t *testing.T) {
			// Fresh memory, every home's list seeded: at the end each holds
			// exactly its own seeds again.
			w := arm.build(t, sim.NewEnv())
			pools := homePools(t, w)
			seeds := make([]map[*Request]bool, len(pools))
			for i, pool := range pools {
				seeds[i] = map[*Request]bool{}
				for j := 0; j < seed; j++ {
					q := &Request{}
					seeds[i][q] = true
					pool.free = append(pool.free, q)
				}
			}
			want := runRelease(t, w)
			w.Shutdown()
			for i, pool := range pools {
				checkFreed(t, i, pool, seeds[i])
			}

			// Two worlds on one arena: the second finds the first's lists and,
			// running the same program, takes nothing new and loses nothing.
			a := sim.NewArena()
			var prev []*reqPool
			var kept []map[*Request]bool
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
						set := map[*Request]bool{}
						for _, q := range pool.free {
							set[q] = true
						}
						checkFreed(t, i, pool, set)
						kept = append(kept, set)
					}
					prev = pools
					continue
				}
				for i, pool := range pools {
					if pool != prev[i] {
						t.Errorf("home %d: the second world did not get the first's request list", i)
					}
					checkFreed(t, i, pool, kept[i])
				}
			}
		})
	}
}
