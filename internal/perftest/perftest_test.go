package perftest

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/ib"
	"repro/internal/sim"
	"repro/internal/topo"
)

func pair(delay sim.Time) (*sim.Env, *ib.HCA, *ib.HCA) {
	env := sim.NewEnv()
	tb := cluster.New(env, cluster.Config{NodesA: 1, NodesB: 1, Delay: delay})
	return env, tb.A[0].HCA, tb.B[0].HCA
}

func TestFig3LatencyOrdering(t *testing.T) {
	// Paper Fig. 3: RDMA write < RC send/recv ~ UD send/recv over the
	// Longbow pair, and all well under 10 us at zero delay.
	env1, a1, b1 := pair(0)
	rcLat := SendLatency(env1, a1, b1, ib.RC, 8, 50)
	env2, a2, b2 := pair(0)
	udLat := SendLatency(env2, a2, b2, ib.UD, 8, 50)
	env3, a3, b3 := pair(0)
	wrLat := WriteLatency(env3, a3, b3, 8, 50)
	if wrLat >= rcLat {
		t.Errorf("RDMA write latency (%v) not below RC send/recv (%v)", wrLat, rcLat)
	}
	// The gap is a few hundred nanoseconds of receive-side processing —
	// the write still traverses the full WAN path. Guard against
	// accidentally measuring local completions (which would look ~1us).
	if wrLat < 5*sim.Microsecond {
		t.Errorf("RDMA write latency %v implausibly low; did the ping-pong measure local completions?", wrLat)
	}
	if rcLat < 5*sim.Microsecond || rcLat > 10*sim.Microsecond {
		t.Errorf("RC send/recv latency over Longbows = %v, want ~6-7us", rcLat)
	}
	if udLat < 5*sim.Microsecond || udLat > 10*sim.Microsecond {
		t.Errorf("UD send/recv latency over Longbows = %v, want ~6-7us", udLat)
	}
}

func TestLatencyTracksWANDelay(t *testing.T) {
	env1, a1, b1 := pair(sim.Micros(1000))
	lat := SendLatency(env1, a1, b1, ib.RC, 8, 10)
	if lat < sim.Micros(1000) || lat > sim.Micros(1015) {
		t.Errorf("latency at 1ms delay = %v, want just above 1000us", lat)
	}
}

func TestRCBandwidthWindowAblation(t *testing.T) {
	// A wider in-flight window rescues medium messages at high delay —
	// the mechanism behind the paper's Fig. 5 explanation.
	env1, a1, b1 := pair(sim.Micros(1000))
	narrow := BandwidthRC(env1, a1, b1, 64<<10, 64, 4)
	env2, a2, b2 := pair(sim.Micros(1000))
	wide := BandwidthRC(env2, a2, b2, 64<<10, 64, 32)
	if wide < narrow*3 {
		t.Errorf("window ablation: narrow=%.1f wide=%.1f, want ~8x", narrow, wide)
	}
}

func TestBidirectionalRoughlyDoubles(t *testing.T) {
	env1, a1, b1 := pair(0)
	uni := BandwidthRC(env1, a1, b1, 1<<20, 16, 8)
	env2, a2, b2 := pair(0)
	bi := BiBandwidthRC(env2, a2, b2, 1<<20, 16, 8)
	if bi < 1.7*uni {
		t.Errorf("bidirectional bw %.1f not ~2x unidirectional %.1f", bi, uni)
	}
}

func TestUDBandwidthPeak(t *testing.T) {
	env, a, b := pair(0)
	bw := BandwidthUD(env, a, b, ib.MaxUDPayload, 1000)
	if bw < 930 || bw > 1010 {
		t.Errorf("UD peak = %.1f, want ~967", bw)
	}
}

func TestUDBiBandwidthPeak(t *testing.T) {
	env, a, b := pair(0)
	bw := BiBandwidthUD(env, a, b, ib.MaxUDPayload, 1000)
	if bw < 1800 || bw > 2020 {
		t.Errorf("UD bidirectional peak = %.1f, want ~1940", bw)
	}
}

// TestShardedDriversMatchOneShard runs every driver on the paper preset split
// into one shard per site and compares it with the one-shard run. Each side's
// process and each QP's CQ live on that side's HCA environment, so nothing a
// driver touches crosses a shard but the wire; run it under -race.
func TestShardedDriversMatchOneShard(t *testing.T) {
	const mtu = ib.MaxUDPayload
	drivers := []struct {
		name string
		run  func(env *sim.Env, a, b *ib.HCA) float64
	}{
		{"SendLatency/RC", func(env *sim.Env, a, b *ib.HCA) float64 {
			return float64(SendLatency(env, a, b, ib.RC, 8, 10))
		}},
		{"SendLatency/UD", func(env *sim.Env, a, b *ib.HCA) float64 {
			return float64(SendLatency(env, a, b, ib.UD, 8, 10))
		}},
		{"WriteLatency", func(env *sim.Env, a, b *ib.HCA) float64 {
			return float64(WriteLatency(env, a, b, 8, 10))
		}},
		{"BandwidthRC", func(env *sim.Env, a, b *ib.HCA) float64 {
			return BandwidthRC(env, a, b, 64<<10, 32, 8)
		}},
		{"BiBandwidthRC", func(env *sim.Env, a, b *ib.HCA) float64 {
			return BiBandwidthRC(env, a, b, 64<<10, 32, 8)
		}},
		{"BandwidthUD", func(env *sim.Env, a, b *ib.HCA) float64 {
			return BandwidthUD(env, a, b, mtu, 200)
		}},
		{"BiBandwidthUD", func(env *sim.Env, a, b *ib.HCA) float64 {
			return BiBandwidthUD(env, a, b, mtu, 200)
		}},
	}
	for _, d := range drivers {
		t.Run(d.name, func(t *testing.T) {
			measure := func(shardWorkers int) float64 {
				env := sim.NewEnv()
				env.SetShardWorkers(shardWorkers)
				spec, err := topo.Preset("paper", 1, 100*sim.Microsecond)
				if err != nil {
					t.Fatal(err)
				}
				nw, err := topo.Build(env, spec)
				if err != nil {
					t.Fatal(err)
				}
				if env.Sharded() != (shardWorkers > 1) {
					t.Fatalf("shardWorkers=%d: partitioned=%v", shardWorkers, env.Sharded())
				}
				return d.run(env, nw.Sites()[0].Nodes[0].HCA, nw.Sites()[1].Nodes[0].HCA)
			}
			if one, two := measure(1), measure(2); one != two {
				t.Errorf("two shards measure %v, one shard %v", two, one)
			}
		})
	}
}
