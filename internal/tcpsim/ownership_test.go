package tcpsim

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/ib"
	"repro/internal/ipoib"
	"repro/internal/sim"
)

// shardedStacks builds a partitioned world of n sites in a line — one switch
// per shard, neighbours joined by links of the given delay — with a TCP stack
// over an IPoIB-UD interface at each end. The world draws on arena (nil:
// none).
func shardedStacks(arena *sim.Arena, n int, delay sim.Time) (*sim.Env, *Stack, *Stack) {
	env := arena.NewEnv()
	env.SetShardWorkers(n)
	views := env.Partition(n)
	f := ib.NewFabric(env)
	sws := make([]*ib.Switch, n)
	for i, v := range views {
		f.UseEnv(v)
		sws[i] = f.AddSwitch(fmt.Sprintf("sw%d", i), ib.SwitchDelay)
		if i > 0 {
			f.Connect(sws[i-1], sws[i], ib.SDR, delay)
			views[i-1].RegisterLookaheadBetween(v, delay)
			v.RegisterLookaheadBetween(views[i-1], delay)
		}
	}
	f.UseEnv(views[0])
	a := f.AddHCA("a")
	f.Connect(a, sws[0], ib.SDR, ib.DefaultCableDelay)
	f.UseEnv(views[n-1])
	b := f.AddHCA("b")
	f.Connect(b, sws[n-1], ib.SDR, ib.DefaultCableDelay)
	f.Finalize()
	net := ipoib.NewNetwork()
	return env, NewStack(net.Attach(a, ipoib.Datagram, 0), Config{}), NewStack(net.Attach(b, ipoib.Datagram, 0), Config{})
}

// TestOwnershipOneWayStream streams TCP one way across a partitioned world.
// A data segment is created by the sender and is last touched by whichever
// comes second, the receiver finishing its flight or the sender taking it
// off the retransmission queue; an ack is created by the receiver and
// consumed on the sender's shard. Each must go back to the stack that made
// it: after tens of thousands of segments both pools hold what was in
// flight at once, not a share of the stream.
func TestOwnershipOneWayStream(t *testing.T) {
	for _, shards := range []int{2, 4} {
		// The same counts whatever the lists are made of: the world's own
		// memory, an arena's, an arena's that an earlier world filled.
		arena := sim.NewArena()
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			for _, on := range []struct {
				name  string
				arena *sim.Arena
			}{{"plain", nil}, {"arena", arena}, {"arena-again", arena}} {
				t.Run(on.name, func(t *testing.T) {
					env, sa, sb := shardedStacks(on.arena, shards, 100*sim.Microsecond)
					ln := sb.Listen(7000)
					sb.Env().Go("srv", func(p *sim.Proc) { ln.Accept(p) })
					sa.Env().Go("cli", func(p *sim.Proc) {
						c, err := sa.Dial(p, sb.Addr(), 7000)
						if err != nil {
							panic(err)
						}
						for i := 0; i < 24; i++ {
							c.WriteSynthetic(p, 1<<20)
						}
					})
					env.Run() // to quiescence: everything acknowledged, nothing in flight
					env.Shutdown()
					defer on.arena.Reclaim(env)
					segs := sb.Stats().RxSegments
					if segs < 10000 {
						t.Fatalf("only %d segments crossed", segs)
					}
					// One window of data (768 KB of 2 KB segments) and its acks.
					const bound = 2 * DefaultWindow / 2000
					for _, s := range []*Stack{sa, sb} {
						n := s.segs.Len()
						t.Logf("stack at LID %d: %d segments pooled, %d crossed", s.Addr(), n, segs)
						if n == 0 || n > bound {
							t.Errorf("stack at LID %d holds %d pooled segments after %d crossed, want 1..%d", s.Addr(), n, segs, bound)
						}
					}
				})
			}
		})
	}
}

// TestFreshSegmentIsOneObject: a data segment made fresh, as every segment
// of a fresh world's first window is, costs one object, its one span riding
// in the segment (segment.one). The window is pumped out of an established
// connection whose environment has no free segment left; the figure is the
// difference of a 128- and a 64-segment window, so the connection and the
// rings it fills cancel out, each window the least of three runs, rounded.
func TestFreshSegmentIsOneObject(t *testing.T) {
	run := func(segs int) int64 {
		env, cli, _ := readPair(t)
		defer env.Shutdown()
		mss := cli.stack.MSS()
		cli.cwnd = segs * mss
		for cli.stack.segs.Len() > 0 { // as in a fresh world: every segment is new
			cli.stack.segs.Get()
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		pushSpan(&cli.sendQ, span{length: segs * mss})
		cli.sendQBytes += segs * mss
		cli.pump()
		runtime.ReadMemStats(&after)
		if got := cli.unacked.Len(); got != segs {
			t.Fatalf("the window sent %d segments, want %d", got, segs)
		}
		return int64(after.Mallocs - before.Mallocs)
	}
	mallocs := func(segs int) int64 { return min(run(segs), run(segs), run(segs)) }
	per := float64(mallocs(128)-mallocs(64)) / 64
	t.Logf("%.2f objects per fresh one-span segment", per)
	if math.Round(per) != 1 {
		t.Errorf("a fresh one-span segment cost %.2f objects, want 1", per)
	}
}
