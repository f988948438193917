// Package fault is the deterministic fault-injection engine for the
// simulated stack. A declarative Plan arms the raw ib.Link.DropFn hook (and
// the analogous tcpsim segment hook) with seeded injectors. Every lever is
// either a pure function of simulated time or a seeded per-packet draw:
//
//   - down: the WAN link is down from the start;
//   - flaps: scheduled link down/up edges, validated up front;
//   - loss: independent per-packet (Bernoulli) loss on the WAN link or on
//     TCP segments;
//   - corruption: per-packet bit corruption; a corrupted packet fails its
//     CRC at the receiver and is discarded, so its observable effect is a
//     drop, but Drops does not count it.
//
// Determinism: every Injector owns a private splitmix64 stream seeded from
// the fault Plan, and every random decision is drawn in simulation-event
// order from that stream. Nothing depends on host time, map iteration or
// goroutine scheduling, so a faulted experiment is byte-identical across
// repeated runs and across parallel-runner worker counts (each measurement
// point owns its own Env, hence its own Injector and stream).
package fault

import (
	"sort"
	"sync/atomic"

	"repro/internal/ib"
	"repro/internal/sim"
)

// RNG is a splitmix64 pseudo-random stream. It is deliberately not
// math/rand: the algorithm is fixed forever (replayable across Go versions)
// and the zero-allocation state is one word.
type RNG struct{ state uint64 }

// NewRNG returns a stream seeded with seed. Distinct seeds give
// uncorrelated streams (splitmix64 is the recommended seeder for exactly
// this purpose).
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// MixSeed derives a sub-stream seed from a base seed and a salt, so one
// plan seed can deterministically feed independent injectors (WAN link,
// TCP stack) without sharing a stream.
func MixSeed(seed, salt uint64) uint64 {
	r := RNG{state: seed ^ (salt * 0x9e3779b97f4a7c15)}
	return r.Uint64()
}

// FlapStep is one edge of a scheduled link flap: at time At the link goes
// down (Down=true) or comes back up.
type FlapStep struct {
	At   sim.Time
	Down bool
}

// Injector is the fault state for one attachment point (one link, or one
// TCP stack). All decisions flow through DropWire in simulation-event
// order.
type Injector struct {
	rng *RNG
	// loss is the independent per-packet loss probability and corruptP the
	// bit-corruption probability, drawn in that order so clean packets can
	// still be corrupted.
	loss     float64
	corruptP float64
	// down is the base down/up state (the WANDown lever). flaps, when
	// non-empty, override it from the first step's time onward: the link
	// state is then a pure function of simulated time (see downAt), never a
	// mutation, which is what lets both directions of a WAN link —
	// dispatched on different shards of a partitioned world — consult the
	// injector concurrently.
	down  bool
	flaps []FlapStep

	drops atomic.Int64 // packets dropped (loss, down link)
}

// NewInjector creates an injector drawing from its own seeded stream. It
// arms no lever: Plan.ArmWAN and Plan.ArmTCP build armed injectors.
func NewInjector(seed uint64) *Injector {
	return &Injector{rng: NewRNG(seed)}
}

// downAt reports the link's down/up state at time now: the Down value of
// the last flap step with At <= now, or the base state before the first
// step. The boundary matches the old timer encoding (a step's closure armed
// at construction carried an earlier sequence number than any packet event
// created afterwards, so a packet sent at exactly the step time already saw
// the new state).
func (in *Injector) downAt(now sim.Time) bool {
	i := sort.Search(len(in.flaps), func(i int) bool { return in.flaps[i].At > now })
	if i == 0 {
		return in.down
	}
	return in.flaps[i-1].Down
}

// Drops returns the number of packets dropped so far.
func (in *Injector) Drops() int64 { return in.drops.Load() }

// DropWire decides the fate of one packet of wireBytes on the wire at
// simulated time now. It is the func installed into ib.Link.DropFn (the
// tcpsim segment hook wraps it with the stack's clock). The down/flap
// check draws no randomness and reads only time-pure state, and the drop
// counter is atomic, so down/flap-only injectors (Plan.ShardSafe) are
// safe to consult from both shards sharing a WAN link; every other lever
// advances the private RNG stream and must stay single-shard.
func (in *Injector) DropWire(now sim.Time, wireBytes int) bool {
	if in.downAt(now) {
		in.drops.Add(1)
		return true
	}
	if in.loss > 0 && in.rng.Float64() < in.loss {
		in.drops.Add(1)
		return true
	}
	return in.corruptP > 0 && in.rng.Float64() < in.corruptP
}

// AttachLink installs the injector as the link's fault hook. Both
// directions of the link share this injector (and its stream).
func (in *Injector) AttachLink(l *ib.Link) { l.DropFn = in.DropWire }
