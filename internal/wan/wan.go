// Package wan models the Obsidian Longbow XR InfiniBand range extenders
// used in the paper. A Longbow pair appears to the subnet as two two-ported
// switches bridging the clusters (paper Fig. 2): traffic crosses the WAN
// hop at SDR rate, each device adds a forwarding latency, and the delay knob
// emulates wire length at 5 us/km. The paper sets the knob between
// measurements; here each measurement builds its world at its delay.
// NewPairAcross is the one constructor, and the pair keeps the rate and
// delay it was built with. It arms no fault: the topology compiler resolves
// each link's fault plan and arms it on Pair.Link.
package wan

import (
	"fmt"

	"repro/internal/ib"
	"repro/internal/sim"
)

// ForwardingDelay is the per-Longbow store-and-forward latency. The paper
// measures the pair adding ~5 us over back-to-back nodes (Fig. 3).
const ForwardingDelay = 2500 * sim.Nanosecond

// MicrosPerKM is the wire propagation delay per kilometer (paper Table 1:
// "a latency addition of about 5 us per km of distance is observed").
const MicrosPerKM = 5.0

// WANRate is the data rate the Longbows sustain across the WAN link: SDR,
// 8 Gbit/s ("the Longbows can essentially support IB traffic at SDR rates").
const WANRate = ib.SDR

// DelayForDistance returns the one-way WAN delay emulating a wire of the
// given length in kilometers (paper Table 1). A negative distance is an
// error (it used to panic; a bad parameter should degrade the one
// measurement point that used it, not crash the whole run).
func DelayForDistance(km float64) (sim.Time, error) {
	if km < 0 {
		return 0, fmt.Errorf("wan: negative distance %v km", km)
	}
	return sim.Micros(km * MicrosPerKM), nil
}

// DistanceForDelay inverts DelayForDistance. A negative delay is an error,
// mirroring the validation on the forward direction (a negative emulated
// wire length is meaningless).
//
// On sharded worlds the returned delay doubles as the link's conservative
// channel bound: a WAN link's propagation delay is a lower bound on the
// latency of any cross-shard event it carries, which is exactly the
// per-channel lookahead the parallel scheduler needs (see
// sim.Env.RegisterLookaheadBetween and NewPairAcross).
func DistanceForDelay(d sim.Time) (float64, error) {
	if d < 0 {
		return 0, fmt.Errorf("wan: negative delay %v (a WAN delay must be a non-negative lower bound on cross-shard event latency)", d)
	}
	return d.Microseconds() / MicrosPerKM, nil
}

// Longbow is one WAN extender device. On the fabric it behaves as a switch
// with a larger forwarding latency.
type Longbow struct{ sw *ib.Switch }

// Device returns the fabric device to connect links to.
func (l *Longbow) Device() *ib.Switch { return l.sw }

// Name returns the device name.
func (l *Longbow) Name() string { return l.sw.Name() }

// Pair is two Longbows joined by the long-haul link. It is a record, as the
// fabric's devices are (sim.Free), and holds its Longbows.
type Pair struct {
	A, B *Longbow
	link *ib.Link
	ends [2]Longbow
}

// NewPairAcross creates two Longbows on the fabric and joins them with a WAN
// link of the given rate (WANRate for the paper's Longbows) and one-way
// delay; the caller connects each Longbow's cluster side to a cluster switch
// or HCA. The Longbow facing end endA is named name-endA and placed on envA,
// the other name-endB on envB, so every Longbow — and the telemetry tracks
// keyed on device names — has a name identifying its link and side. An
// unpartitioned world passes f.Env() for both. On a partitioned world it is
// the topology compiler's cross-shard edge: the two ends live on their
// sites' shard views, packet delivery crosses through the kernel's mailbox
// path, and the link's propagation delay is registered as the conservative
// bound of the directed channel between the two shards, one registration
// per direction — the delay is a lower bound on how far in the future any
// event this link sends into the peer shard can land, which is the promise
// the windowed parallel scheduler runs on. Because the bound is per channel,
// a long link's windows are sized by its own delay even when a much shorter
// link exists elsewhere in the topology. The pair carries no fault plan; its
// caller arms one on Link if the link has one.
func NewPairAcross(f *ib.Fabric, name, endA, endB string, rate ib.Rate, delay sim.Time, envA, envB *sim.Env) *Pair {
	p := sim.FreeOf(envA, (*Pair).reset).Get()
	p.A, p.B = &p.ends[0], &p.ends[1]
	f.UseEnv(envA)
	p.A.sw = f.AddSwitch(name+"-"+endA, ForwardingDelay)
	f.UseEnv(envB)
	p.B.sw = f.AddSwitch(name+"-"+endB, ForwardingDelay)
	f.UseEnv(f.Env())
	p.link = f.Connect(p.A.sw, p.B.sw, rate, delay)
	// The long-haul hop is where utilization and queueing telemetry lives.
	p.link.MarkWAN()
	if envA != envB {
		// This link is a cross-shard edge: its delay bounds the directed
		// channel in each direction. (RegisterLookaheadBetween rejects a
		// non-positive bound — the compiler only partitions worlds whose
		// WAN links all have positive delay.)
		envA.RegisterLookaheadBetween(envB, delay)
		envB.RegisterLookaheadBetween(envA, delay)
	}
	return p
}

func (p *Pair) reset() { *p = Pair{} }

// Delay returns the configured one-way WAN delay.
func (p *Pair) Delay() sim.Time { return p.link.Delay() }

// DistanceKM returns the emulated wire length for the configured delay.
func (p *Pair) DistanceKM() float64 {
	// The link's delay is non-negative by construction, so the inverse
	// cannot fail here.
	km, _ := DistanceForDelay(p.link.Delay())
	return km
}

// Link exposes the WAN link: the topology compiler arms its fault plan and
// registers it with the fabric's health monitor here.
func (p *Pair) Link() *ib.Link { return p.link }

// MinQueueBytes floors BDP-sized queue bounds: a metro link with near-zero
// delay still needs room for a few MTU-sized packets ahead of the
// serializer.
const MinQueueBytes = 64 << 10

// BDPQueueBytes returns the bandwidth-delay product of a link direction —
// rate times round trip — floored at MinQueueBytes. It is the classic
// single-flow buffer sizing rule: a queue this deep can keep the wire busy
// across a full window's worth of acks without standing overflow.
func BDPQueueBytes(rate ib.Rate, delay sim.Time) int {
	bdp := int(float64(rate) * (2 * delay).Seconds())
	if bdp < MinQueueBytes {
		bdp = MinQueueBytes
	}
	return bdp
}

// EnableCongestion bounds the pair's long-haul hop with cfg. A zero
// QueueBytes defaults to the link's bandwidth-delay product (BDPQueueBytes
// at its rate and delay). Unconfigured pairs keep an unbounded FIFO,
// so existing experiments are byte-identical.
func (p *Pair) EnableCongestion(cfg ib.QueueConfig) error {
	if cfg.QueueBytes == 0 {
		cfg.QueueBytes = BDPQueueBytes(p.link.Rate(), p.link.Delay())
	}
	return p.link.ConfigureQueue(cfg)
}

// String describes the pair.
func (p *Pair) String() string {
	return fmt.Sprintf("LongbowPair(delay=%v, %.0f km)", p.Delay(), p.DistanceKM())
}
