// Package fault is the deterministic fault-injection engine for the
// simulated stack. A declarative Plan arms the raw ib.Link.DropFn hook (and
// the analogous tcpsim segment hook) with seeded injectors. Every lever is
// either a pure function of simulated time or a keyed per-packet draw:
//
//   - down: the WAN link is down from the start;
//   - flaps: scheduled link down/up edges, validated up front;
//   - loss: independent per-packet (Bernoulli) loss on the WAN link or on
//     TCP segments;
//   - corruption: per-packet bit corruption; a corrupted packet fails its
//     CRC at the receiver and is discarded, so its observable effect is a
//     drop.
//
// The injector counts nothing: a WAN drop is counted by the port that sent
// the packet (ib.PortCounters.FaultDrops, ib.link.drops), a TCP one by its stack
// (tcpsim.StackStats.SegDrops, tcp.seg.drops).
//
// Determinism: a verdict is a pure function of the plan seed, a salt per
// lever and the transmission it judges — the direction it crosses, the flow
// it belongs to and its index on that flow's transmit counter — mixed by
// splitmix64's finalizer. It reads nothing other traffic moves, so it does
// not depend on the order packets reach the injector, on how much other
// traffic crossed the link, or on which shard of a partitioned world asks:
// a faulted experiment is byte-identical across repeated runs, runner worker
// counts and shard counts.
package fault

import (
	"sort"

	"repro/internal/ib"
	"repro/internal/sim"
)

// mix is splitmix64's finalizer, fixed forever (not math/rand), so recorded
// faulted runs replay across Go versions.
func mix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// chance returns the uniform [0, 1) value of a transmission under seed and
// salt: the finalizer folded over the seed, the salt and each key word.
func chance(seed, salt, dir, flow, seq uint64) float64 {
	return float64(mix(mix(mix(mix(seed^salt)^dir)^flow)^seq)>>11) / (1 << 53)
}

// FlapStep is one edge of a scheduled link flap: at time At the link goes
// down (Down=true) or comes back up. It is the edge the fabric's health
// monitor reads, so a plan's schedule is one timeline (Plan.DownEdges).
type FlapStep = ib.HealthTransition

// Injector is the fault state for one attachment point (one link, or one
// TCP stack): its seed and levers. Nothing in it changes once it is armed,
// so any number of shards may consult it.
type Injector struct {
	seed uint64
	// loss is the per-packet loss probability, drawn under lossSalt, and
	// corruptP the bit-corruption probability, drawn under saltCorrupt.
	loss     float64
	lossSalt uint64
	corruptP float64
	// edges is the plan's outage timeline (Plan.DownEdges): the link state
	// is a pure function of simulated time (see downAt).
	edges []FlapStep
}

// downAt reports the link's down/up state at time now: the Down value of
// the last edge with At <= now, up before the first, so a packet sent at
// exactly an edge's time already sees it.
func (in *Injector) downAt(now sim.Time) bool {
	i := sort.Search(len(in.edges), func(i int) bool { return in.edges[i].At > now })
	return i > 0 && in.edges[i-1].Down
}

// Drop decides the fate of one transmission at simulated time now: lost to
// a down link or to the loss lever, or corrupted. The transmission is keyed by the direction it crosses, its flow
// and its index on the flow's transmit counter, which every transmission
// takes, retransmissions included: no two share a key, and every word is
// the same on a one-shard world as on a partitioned one.
func (in *Injector) Drop(now sim.Time, dir, flow, seq uint64) bool {
	return in.downAt(now) || (in.loss > 0 && chance(in.seed, in.lossSalt, dir, flow, seq) < in.loss) ||
		in.corruptP > 0 && chance(in.seed, saltCorrupt, dir, flow, seq) < in.corruptP
}

// dropCrossing is Drop for a packet crossing a link: its direction is the
// sending device and its peer, its flow the source HCA and QP.
func (in *Injector) dropCrossing(now sim.Time, c ib.Crossing) bool {
	return in.Drop(now, uint64(c.From)<<32|uint64(c.To), uint64(c.Src)<<32|uint64(c.QP), c.Tx)
}
