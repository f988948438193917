package core

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/ib"
	"repro/internal/ipoib"
	"repro/internal/mpi"
	"repro/internal/nfs"
	"repro/internal/perftest"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// arenaPoint is one cell of the arena tests' plans.
type arenaPoint struct {
	label string
	fn    func(m *Meter) float64
}

// arenaDirtyPoints leave a worker's arena in the worst state a point can:
// worlds carrying real payloads, dropping packets, stopped with segments,
// packets, transfers, retry timers and mailbox deposits in flight, one of
// them observed, so its devices cached telemetry tracks — and one that fails
// outright. Their values are never looked at.
func arenaDirtyPoints(opt Options) []arenaPoint {
	content := make([]byte, 1<<20)
	rand.New(rand.NewSource(3)).Read(content)
	// readLoop reads the file round and round into a real buffer until the
	// world stops under it.
	readLoop := func(cl *nfs.Client) func(p *sim.Proc) {
		return func(p *sim.Proc) {
			fh, _, err := cl.Lookup(p, "data")
			buf := make([]byte, 256<<10)
			for off := 0; err == nil; off = (off + len(buf)) % len(content) {
				_, err = cl.Read(p, fh, int64(off), len(buf), buf)
			}
		}
	}
	return []arenaPoint{
		{"dirty/observed", func(m *Meter) float64 {
			env, tb := observedPair(m, 29)
			qa, qb := ib.CreateRCPair(tb.A[0].HCA, tb.B[0].HCA, nil, nil, lossQPCfg())
			for i := 0; i < 64; i++ {
				qb.PostRecv(ib.RecvWR{})
				qa.PostSend(ib.SendWR{Op: ib.OpSend, Len: 64 << 10})
			}
			env.RunUntil(3 * sim.Millisecond)
			return 0
		}},
		{"dirty/nfs-tcp-lossy", func(m *Meter) float64 {
			m.WithFault(&fault.Plan{Seed: 11, WANLoss: 0.02})
			env, tb := m.pair(sim.Millisecond)
			srv, cl, err := nfs.MountTCP(env, tb.B[0], tb.A[0], ipoib.Connected)
			m.Check(err)
			srv.AddFile("data", content)
			for i := 0; i < 4; i++ {
				env.Go("reader", readLoop(cl))
			}
			env.RunUntil(env.Now() + 4*sim.Millisecond)
			return 0
		}},
		{"dirty/multisite-nfs-rdma", func(m *Meter) float64 {
			nw := m.multisite(opt, sim.Millisecond)
			srvNode := nw.Sites()[0].Nodes[0]
			for _, site := range nw.Sites()[1:] {
				clNode := site.Nodes[0]
				srv, cl := nfs.MountRDMA(srvNode, clNode)
				srv.AddFile("data", content)
				clNode.HCA.Env().Go("reader", readLoop(cl))
			}
			nw.Env.RunUntil(5 * sim.Millisecond)
			return 0
		}},
		{"dirty/dead-wan", func(m *Meter) float64 {
			m.WithFault(&fault.Plan{Seed: 5, WANDown: true})
			env, tb := m.pair(0)
			return perftest.StreamRC(env, tb.A[0].HCA, tb.B[0].HCA, 64<<10, 8,
				ib.QPConfig{RetryLimit: 2, RetryTimeout: sim.Millisecond})
		}},
	}
}

// arenaCleanPoints are ordinary measurements through every layer that draws
// on recycled memory, one of them with telemetry attached, whose value sums
// up what it recorded. stops marks the ones that end by Env.Stop across
// shards, whose Executed() and final clock are not a function of the input
// on a partitioned world whatever the arena holds (ROADMAP 6a).
func arenaCleanPoints(opt Options) (pts []arenaPoint, stops map[string]bool) {
	return []arenaPoint{
		{"clean/rc-observed", func(m *Meter) float64 {
			env, tb := observedPair(m, 23)
			bw := perftest.StreamRC(env, tb.A[0].HCA, tb.B[0].HCA, 64<<10, 16, lossQPCfg())
			return observed(bw, m.tel)
		}},
		{"clean/nfs-tcp", func(m *Meter) float64 {
			return nfsPoint(m, "tcp-rc", false, sim.Micros(100),
				nfs.IOzoneConfig{FileSize: 4 << 20, RecordSize: 256 << 10, Threads: 2})
		}},
		{"clean/rc-lossy", func(m *Meter) float64 {
			m.WithFault(&fault.Plan{Seed: 17, WANLoss: 0.01})
			env, tb := m.pair(sim.Millisecond)
			return perftest.StreamRC(env, tb.A[0].HCA, tb.B[0].HCA, 64<<10, 32, lossQPCfg())
		}},
		{"clean/multisite-bcast", func(m *Meter) float64 {
			nw := m.multisite(opt, sim.Millisecond)
			w := mpi.NewWorld(nw.Env, nw.Nodes(), mpi.Config{})
			defer w.Shutdown()
			return mpi.BcastLatency(w, 16<<10, 2, true).Microseconds()
		}},
		{"clean/multisite-nfs", func(m *Meter) float64 {
			nw := m.multisite(opt, sim.Millisecond)
			srv, cl := nfs.MountRDMA(nw.Sites()[0].Nodes[0], nw.Sites()[2].Nodes[0])
			srv.AddSyntheticFile("f", 4<<20)
			return nfs.IOzone(nw.Env, cl, "f", nfs.IOzoneConfig{FileSize: 4 << 20, RecordSize: 256 << 10, Threads: 2})
		}},
	}, map[string]bool{"clean/nfs-tcp": true, "clean/multisite-nfs": true}
}

// observedPair builds the paper's testbed at 1 ms, lossy with the given seed,
// with metrics and spans of the point's own attached. It keeps the world on
// one shard: a span recorder has one writer.
func observedPair(m *Meter, seed uint64) (*sim.Env, *cluster.Testbed) {
	m.shardWorkers = 1
	m.tel = &telemetry.Telemetry{Metrics: telemetry.NewRegistry(), Spans: telemetry.NewRecorder(1<<16, 4)}
	m.WithFault(&fault.Plan{Seed: seed, WANLoss: 0.01})
	return m.pair(sim.Millisecond)
}

// observed folds a measurement and everything its telemetry recorded — every
// metric, every span and instant with the track it landed on — into one
// exact float: a device's stale track or a fabric's stale observer changes it.
func observed(y float64, tel *telemetry.Telemetry) float64 {
	h := fnv.New64a()
	tracks := tel.Spans.Tracks()
	fmt.Fprint(h, y, tel.Metrics.Snapshot())
	for _, in := range tel.Spans.Instants() {
		fmt.Fprint(h, tracks[in.Track], in)
	}
	for _, sp := range tel.Spans.Spans() {
		fmt.Fprint(h, tracks[sp.Track], sp)
	}
	return float64(h.Sum64() >> 11)
}

// arenaOutcome is what a point's world came to.
type arenaOutcome struct {
	y       float64
	events  int64
	simTime sim.Time
}

// TestArenaIsolation: a worker's arena carries memory from one world to the
// next and nothing else. Each clean point, run right behind the dirty ones
// on the arena they left, must come to exactly what it comes to on a Meter
// with no arena at all — value, Executed() and final clock — on one worker,
// on four, and with the worlds partitioned. That holds behind a point that
// fails too: the dead WAN's, whose sender panics with RETRY_EXCEEDED inside
// its process, hands its arena back like any other point.
func TestArenaIsolation(t *testing.T) {
	opt := Options{Quick: true, Topo: "ring4"}
	opt = opt.filled()
	dirty := arenaDirtyPoints(opt)
	clean, stops := arenaCleanPoints(opt)
	for _, mode := range []RunnerOptions{{Workers: 1}, {Workers: 4}, {Workers: 1, ShardWorkers: 2}} {
		t.Run(fmt.Sprintf("par=%d,shards=%d", mode.Workers, mode.ShardWorkers), func(t *testing.T) {
			want := make(map[string]arenaOutcome)
			for _, pt := range clean {
				m := &Meter{shardWorkers: mode.ShardWorkers}
				y, err := runPoint(&Point{Fn: pt.fn}, m)
				if err != nil {
					t.Fatalf("%s on a Meter without an arena: %v", pt.label, err)
				}
				m.close()
				want[pt.label] = arenaOutcome{y, m.Events(), m.SimTime()}
			}

			// Two rounds of dirty, clean, dirty, clean...: at one worker every
			// clean point inherits a dirty world's arena; at four the pairing
			// is the scheduler's, and any of it must do. In the first round
			// the observed clean point follows the observed dirty one.
			var mu sync.Mutex
			values := make(map[string][]float64)
			// deadAt holds, for an arena whose last point was the dead WAN's,
			// the records it held before that point; the next point on the
			// arena finds them there, and more.
			deadAt := make(map[*sim.Arena]int)
			behindDead := 0
			onArena := func(label string, m *Meter) {
				mu.Lock()
				defer mu.Unlock()
				if before, ok := deadAt[m.arena]; ok {
					delete(deadAt, m.arena)
					behindDead++
					if r := m.arena.Records(); r == 0 || r < before {
						t.Errorf("%s: the arena holds %d records behind the dead WAN's point, %d before it", label, r, before)
					}
				}
				if label == "dirty/dead-wan" {
					deadAt[m.arena] = m.arena.Records()
				}
			}
			spec := Spec{ID: "arena", Build: func(Options) *Plan {
				tb := stats.NewTable("arena", "x", "y")
				pl := &Plan{Tables: []*stats.Table{tb}}
				for round := 0; round < 2; round++ {
					for i, c := range clean {
						d := dirty[(i+round)%len(dirty)]
						pl.point(tb.AddSeries(d.label), 0, d.label, func(m *Meter) float64 {
							onArena(d.label, m)
							return d.fn(m)
						})
						pl.point(tb.AddSeries(c.label), 0, c.label, func(m *Meter) float64 {
							onArena(c.label, m)
							y := c.fn(m)
							mu.Lock()
							values[c.label] = append(values[c.label], y)
							mu.Unlock()
							return y
						})
					}
				}
				return pl
			}}
			ropt := mode
			metrics := make(map[string][]PointMetrics)
			ropt.OnPoint = func(pm PointMetrics) { metrics[pm.Label] = append(metrics[pm.Label], pm) }
			res := RunSpec(spec, opt, ropt)
			for _, e := range res.Errors {
				if !strings.HasPrefix(e.Label, "dirty/dead-wan") {
					t.Errorf("unexpected failed point %s: %s", e.Label, e.Err)
				}
			}
			if len(res.Errors) == 0 {
				t.Error("the dead-WAN point did not fail: nothing exercised a failed point's arena")
			}
			if mode.Workers == 1 && behindDead == 0 {
				t.Error("no point ran on the arena the dead-WAN point left: it was not handed back")
			}
			for _, pt := range clean {
				w := want[pt.label]
				if len(values[pt.label]) != 2 || len(metrics[pt.label]) != 2 {
					t.Fatalf("%s ran %d times, want 2", pt.label, len(values[pt.label]))
				}
				for _, y := range values[pt.label] {
					if y != w.y || math.IsNaN(y) {
						t.Errorf("%s = %v behind a dirty point, %v without an arena", pt.label, y, w.y)
					}
				}
				if mode.ShardWorkers > 1 && stops[pt.label] {
					continue
				}
				for _, pm := range metrics[pt.label] {
					if pm.Events != w.events || pm.SimTime != w.simTime {
						t.Errorf("%s: Executed() %d, clock %v behind a dirty point; %d, %v without an arena",
							pt.label, pm.Events, pm.SimTime, w.events, w.simTime)
					}
				}
			}
		})
	}
}

// TestArenaPinsNoDeadWorld: an arena outlives every world it served and must
// keep none of them from the collector — not through a kept object (all
// reset), not through a slab a kept object sits in, not through the slots of
// a freelist's array past its end. Every environment of a run over dirty and
// clean points is finalized once the run is over, while the arenas that
// served them idle on the list.
func TestArenaPinsNoDeadWorld(t *testing.T) {
	opt := Options{Quick: true, Topo: "ring4"}
	opt = opt.filled()
	dirty := arenaDirtyPoints(opt)
	clean, _ := arenaCleanPoints(opt)
	for _, mode := range []RunnerOptions{{Workers: 1}, {Workers: 1, ShardWorkers: 2}} {
		t.Run(fmt.Sprintf("shards=%d", mode.ShardWorkers), func(t *testing.T) {
			collected := make(chan struct{}, 64) // one slot per environment built below, with room to spare
			built := 0
			spec := Spec{ID: "arena-gc", Build: func(Options) *Plan {
				tb := stats.NewTable("arena-gc", "x", "y")
				pl := &Plan{Tables: []*stats.Table{tb}}
				for _, pt := range append(append([]arenaPoint{}, dirty...), clean...) {
					pl.point(tb.AddSeries(pt.label), 0, pt.label, func(m *Meter) float64 {
						defer func() {
							// Workers is 1: built needs no lock. Also on the way
							// out of a point that fails.
							for _, env := range m.envs {
								// A leaf hung on the environment, which nearly
								// everything in a world points back to: the
								// environment itself sits in cycles, where a
								// finalizer need not run.
								leaf := new([64]byte)
								env.SetTelemetry(leaf)
								built++
								runtime.SetFinalizer(leaf, func(*[64]byte) { collected <- struct{}{} })
							}
						}()
						return pt.fn(m)
					})
				}
				return pl
			}}
			RunSpec(spec, opt, mode)
			if built < len(dirty)+len(clean) {
				t.Fatalf("%d environments built by %d points", built, len(dirty)+len(clean))
			}
			deadline := time.After(5 * time.Second)
			for got := 0; got < built; {
				runtime.GC()
				select {
				case <-collected:
					got++
				case <-deadline:
					t.Fatalf("%d of %d dead worlds are still reachable with the run over", built-got, built)
				case <-time.After(10 * time.Millisecond):
					// finalizers run after the cycle that found the object; collect again
				}
			}
		})
	}
}

// TestArenaReclaimsStrandedRecords: a TCP stream world over IPoIB-UD, shaped
// like fig6(b)'s and stopped as they are — mid-window, with segments unacked
// and on the wire, packets on links and transfers unfinished — hands every
// record back to its arena all the same, so the same world run again on the
// arena makes no fresh segment, packet, transfer or event. The census is
// counted, not the allocator, so the test is exact under -race.
func TestArenaReclaimsStrandedRecords(t *testing.T) {
	opt := Options{Quick: true}
	opt = opt.filled()
	a := sim.NewArena()
	var records []int
	for run := 0; run < 2; run++ {
		m := &Meter{arena: a}
		if bw := tcpPoint(m, ipoib.Datagram, 0, 0, 4, sim.Millisecond, opt); !(bw > 0) {
			t.Fatalf("run %d: throughput %v", run, bw)
		}
		m.close()
		m.recycle()
		records = append(records, a.Records())
	}
	if records[0] == 0 || records[1] != records[0] {
		t.Fatalf("the arena's lists made %d records in the first world and %d by the end of the second, want the same, > 0",
			records[0], records[1])
	}
}

// TestArenaRebuildsTheFabricFromRecords: a ring4 multisite world — its
// switches, links, Longbow pairs and HCAs, an MPI world's QPs and CQs, and
// partitioned, its mailbox lanes — run twice on one arena builds the second
// time from what the first left: Arena.Records() does not grow, so no fresh
// record is made. The census is counted, not the allocator, so the test is
// exact under -race; the lanes are TestArenaKeepsEmptiedMailboxes' (sim).
func TestArenaRebuildsTheFabricFromRecords(t *testing.T) {
	opt := Options{Quick: true, Topo: "ring4"}
	opt = opt.filled()
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			a := sim.NewArena()
			var records []int
			for run := 0; run < 2; run++ {
				m := &Meter{arena: a, shardWorkers: shards}
				nw := m.multisite(opt, sim.Millisecond)
				if nw.Env.Sharded() != (shards > 1) {
					t.Fatalf("run %d: partitioned %v at %d shard workers", run, nw.Env.Sharded(), shards)
				}
				w := mpi.NewWorld(nw.Env, nw.Nodes(), mpi.Config{})
				if lat := mpi.BcastLatency(w, 16<<10, 2, true); !(lat > 0) {
					t.Fatalf("run %d: broadcast latency %v", run, lat)
				}
				w.Shutdown()
				m.close()
				m.recycle()
				records = append(records, a.Records())
			}
			if records[0] == 0 || records[1] != records[0] {
				t.Fatalf("the arena's lists made %d records in the first world and %d by the end of the second, want the same, > 0",
					records[0], records[1])
			}
		})
	}
}
