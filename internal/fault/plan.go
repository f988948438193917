package fault

import (
	"fmt"

	"repro/internal/ib"
	"repro/internal/sim"
)

// Draw salts: one per random lever, so one plan seed gives the WAN loss,
// corruption and TCP loss verdicts of a key independently.
const (
	saltWAN     uint64 = 0x57414e // "WAN"
	saltTCP     uint64 = 0x544350 // "TCP"
	saltCorrupt uint64 = 0x435243 // "CRC"
)

// Plan is the declarative fault configuration for one simulation
// environment. The harness attaches a validated plan with AttachPlan
// before building the testbed; layers that own an attachment point (the
// topo compiler for the Longbow links, tcpsim for the socket stack)
// discover it with PlanFromEnv and arm their injectors. The zero value
// means "no faults" and arms nothing, so fault-free runs stay
// byte-identical to a build without this package.
type Plan struct {
	// Seed keys every verdict of every injector armed from this plan.
	// Same plan + same seed -> identical fault decisions, regardless of
	// runner parallelism or shard count.
	Seed uint64

	// Link restricts a run-wide plan's WAN levers to the named link on
	// multi-link topologies, in "siteA-siteB" form (either order; the CLI's
	// `-fault link=NAME:...` prefix sets it). Empty arms every WAN link,
	// the historical behavior. Per-link plans (topo.Link.Fault) already
	// target one link and ignore this field.
	Link string

	// WANDown takes the WAN link down permanently from the start.
	WANDown bool
	// WANLoss is an independent per-packet (Bernoulli) loss probability
	// on the WAN link.
	WANLoss float64
	// WANCorrupt is the per-packet bit-corruption probability on the WAN
	// link (corrupted packets are dropped at the receiver's CRC but
	// counted separately).
	WANCorrupt float64
	// WANFlaps schedules link down/up edges on the WAN link.
	WANFlaps []FlapStep

	// TCPLoss is an independent per-segment loss probability inside the
	// simulated TCP stack (IPoIB/SDP path).
	TCPLoss float64
}

func probErr(name string, p float64) error {
	if !(p >= 0 && p <= 1) { // NaN fails both comparisons
		return fmt.Errorf("fault: %s probability %v outside [0, 1]", name, p)
	}
	return nil
}

// Validate checks every lever of the plan: probabilities in [0, 1] (NaN is
// not), and the flap schedule sorted with non-negative times. A plan that
// validates arms without error.
func (p *Plan) Validate() error {
	if err := probErr("WANLoss", p.WANLoss); err != nil {
		return err
	}
	if err := probErr("WANCorrupt", p.WANCorrupt); err != nil {
		return err
	}
	if err := probErr("TCPLoss", p.TCPLoss); err != nil {
		return err
	}
	prev := sim.Time(-1)
	for i, s := range p.WANFlaps {
		if s.At < 0 {
			return fmt.Errorf("fault: flap step %d at negative time %v", i, s.At)
		}
		if s.At < prev {
			return fmt.Errorf("fault: flap step %d at %v out of order (previous %v)", i, s.At, prev)
		}
		prev = s.At
	}
	return nil
}

// wanEnabled reports whether any WAN-link lever is armed.
func (p *Plan) wanEnabled() bool {
	return p.WANDown || p.WANLoss > 0 || p.WANCorrupt > 0 || len(p.WANFlaps) > 0
}

// Enabled reports whether the plan arms any fault at all.
func (p *Plan) Enabled() bool { return p.wanEnabled() || p.TCPLoss > 0 }

// MatchesLink reports whether the plan's WAN levers apply to the link
// between endpoints a and b. A plan with no Link restriction matches every
// link; a nil plan matches none.
func (p *Plan) MatchesLink(a, b string) bool {
	if p == nil {
		return false
	}
	return p.Link == "" || p.Link == a+"-"+b || p.Link == b+"-"+a
}

// DownEdges is the plan's scheduled WAN outage timeline, read by the WAN
// injector and the fabric's link-health monitor (ib.Fabric.MonitorLink): a
// permanent WANDown is an edge at time zero, and each flap step is its
// edge, so flaps override WANDown from their first step on. The result is
// read-only: without WANDown it is WANFlaps itself. Levers that draw
// randomness (loss, corruption) have no schedule and are detected
// reactively.
func (p *Plan) DownEdges() []ib.HealthTransition {
	switch {
	case p == nil:
		return nil
	case p.WANDown:
		return append([]ib.HealthTransition{{At: 0, Down: true}}, p.WANFlaps...)
	}
	return p.WANFlaps
}

// AttachPlan validates p and installs it on the environment's fault slot.
// It must run before the testbed is built (topo.Build and tcpsim.NewStack
// read the slot at construction time).
func AttachPlan(env *sim.Env, p *Plan) error {
	if p == nil {
		return nil
	}
	if err := p.Validate(); err != nil {
		return err
	}
	env.SetFault(p)
	return nil
}

// PlanFromEnv returns the plan attached to env, or nil if none (or if the
// slot holds something else).
func PlanFromEnv(env *sim.Env) *Plan {
	p, _ := env.Fault().(*Plan)
	return p
}

// ArmWAN builds the WAN-link injector for a validated plan and attaches it
// to link. It returns nil — and touches nothing — when no WAN lever is set.
// The injector schedules nothing: the plan's edges are stored and resolved
// at packet time (downAt), so edges in the past are naturally in effect.
func (p *Plan) ArmWAN(link *ib.Link) *Injector {
	if p == nil || !p.wanEnabled() {
		return nil
	}
	in := &Injector{seed: p.Seed, loss: p.WANLoss, lossSalt: saltWAN,
		corruptP: p.WANCorrupt, edges: p.DownEdges()}
	link.DropFn = in.dropCrossing // both directions: a crossing names its own
	return in
}

// ArmTCP builds the TCP-stack injector for a validated plan, or returns
// nil when the plan injects no TCP faults. The stack consults the
// injector's Drop for every segment it transmits.
func (p *Plan) ArmTCP() *Injector {
	if p == nil || p.TCPLoss <= 0 {
		return nil
	}
	return &Injector{seed: p.Seed, loss: p.TCPLoss, lossSalt: saltTCP}
}
