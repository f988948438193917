package repro

// End-to-end checks for the channel-clock sharded scheduler on the
// heterogeneous-delay star preset: per-link channel bounds must run the
// same workload in far fewer barrier windows than a uniform world-minimum
// bound, with identical simulation results, and the lock-free mailbox
// lanes must hold the sharded scheduler's allocation overhead down.

import (
	"testing"

	"repro/internal/ib"
	"repro/internal/sim"
	"repro/internal/topo"
)

// heteroStarStream builds the star3-hetero preset (hub–s1 at 1ms, hub–s2
// and hub–s3 at 10ms), streams RC traffic from the hub to a satellite
// behind a 10ms link while the metro satellite sits idle, and returns the
// scheduler's window count, the stream's goodput and the events executed.
// With collapse set, a uniform 1ms bound is registered on every shard pair
// before running — the old global-lookahead scheduler's window rule (its
// windows were sized by the world-minimum link delay; the uniform
// registration reproduces that width), making the two runs a before/after
// comparison on one binary.
//
// Unlike perftest.StreamRC (which drives both endpoints from one
// environment and so only runs single-heap), each endpoint's process lives
// on its own site's shard view and polls only its local CQ — the sharded
// discipline that Proc.Wait enforces. No cross-shard stop signal is
// needed: both sides retire a fixed message count and the world runs to
// quiescence.
func heteroStarStream(t *testing.T, collapse bool) (windows int64, mbps float64, events int64) {
	t.Helper()
	env := sim.NewEnv()
	env.SetShardWorkers(2)
	spec, err := topo.Preset("star3-hetero", 1, sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := topo.Build(env, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !env.Sharded() {
		t.Fatal("star3-hetero world did not partition")
	}
	if collapse {
		env.RegisterLookahead(sim.Millisecond)
	}
	src := nw.Site("hub").Nodes[0].HCA
	dst := nw.Site("s2").Nodes[0].HCA
	size, count := 64<<10, 512
	qa, qb := ib.CreateRCPair(src, dst, nil, nil, ib.QPConfig{})
	var elapsed sim.Time
	dst.Env().Go("bw-recv", func(p *sim.Proc) {
		for i := 0; i < count; i++ {
			qb.PostRecv(ib.RecvWR{})
		}
		for i := 0; i < count; i++ {
			for qb.CQ().Poll(p).Op != ib.OpRecv {
			}
		}
		elapsed = p.Now()
	})
	src.Env().Go("bw-send", func(p *sim.Proc) {
		for i := 0; i < count; i++ {
			qa.PostSend(ib.SendWR{Op: ib.OpSend, Len: size})
		}
		for i := 0; i < count; i++ {
			for qa.CQ().Poll(p).Op != ib.OpSend {
			}
		}
	})
	env.Run()
	env.Shutdown()
	if elapsed <= 0 {
		t.Fatal("stream did not complete")
	}
	mbps = float64(size) * float64(count) / elapsed.Seconds() / 1e6
	windows = env.TakeWindowStats().Windows // the first take: the whole run
	return windows, mbps, env.Executed()
}

// TestShardedHeteroStarWindowsDrop: the end-to-end form of the tentpole
// property (satellite 3's matrix assertion). On the heterogeneous star a
// real RC stream across a 10ms link must run strictly fewer barrier
// windows under per-channel bounds than under the uniform world-minimum
// rule, with byte-identical simulation results. The drop here is modest
// by design: a stream keeps the hub shard densely busy, and the idle
// metro link's est-reflection caps the hub's window at ~2ms in both
// modes, so only the satellite-side phases widen. The isolated >= 2x
// windows-per-event drop is asserted at the kernel level by
// TestPerChannelWindowsDrop (internal/sim), where the dense work sits
// behind the 10ms channels.
func TestShardedHeteroStarWindowsDrop(t *testing.T) {
	uniWins, uniMbps, uniEvents := heteroStarStream(t, true)
	chWins, chMbps, chEvents := heteroStarStream(t, false)
	if chMbps != uniMbps || chEvents != uniEvents {
		t.Fatalf("results diverge: per-channel (%.3f MB/s, %d events) vs uniform (%.3f MB/s, %d events)",
			chMbps, chEvents, uniMbps, uniEvents)
	}
	if chWins <= 0 || uniWins <= 0 {
		t.Fatalf("windows not counted: per-channel %d, uniform %d", chWins, uniWins)
	}
	if chWins >= uniWins {
		t.Fatalf("per-channel ran %d windows, uniform bound %d — want strictly fewer", chWins, uniWins)
	}
	t.Logf("windows: per-channel %d vs uniform %d (%.2fx), %d events, %.1f MB/s", chWins, uniWins,
		float64(uniWins)/float64(chWins), chEvents, chMbps)
}

// TestShardedAllocsBound pins the sharded scheduler's allocation overhead:
// the mesh4 collective workload at shards=4 must not allocate more than the
// single-heap run plus a fixed budget for the world's standing structures.
// The window loop itself must be allocation-free — nothing from the worker
// pool, the mailbox deposits, the k-way merge or the return lanes — and
// packets, transfers and segments are pooled per shard exactly as on the
// classic path, so what is left is world-construction scale: the MPI layer
// connecting cross-shard rank pairs up front instead of on first use (QPs
// and their receive rings, about 600), lane and per-shard freelist warm-up
// (about 250), the shard views themselves. None of that scales with window
// count; per-window churn (the old mutex-mailbox scheduler cost ~3300
// allocs/op here) or an unpooled wire path (+1200) blows the budget.
func TestShardedAllocsBound(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation calibration skipped in -short mode")
	}
	// Measured gap is 882, and it repeats exactly.
	const budget = 1000
	measure := func(shards int) float64 {
		return testing.AllocsPerRun(3, func() {
			shardedMultisiteWorkload(t, shards)
		})
	}
	a1 := measure(1)
	a4 := measure(4)
	t.Logf("allocs/op: shards=1 %.0f, shards=4 %.0f (gap %.0f, budget %d)", a1, a4, a4-a1, budget)
	if a4 > a1+budget {
		t.Fatalf("sharded run allocates %.0f/op, single-heap %.0f/op: gap %.0f exceeds the %d budget (per-window churn is back)",
			a4, a1, a4-a1, budget)
	}
}
