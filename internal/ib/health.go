package ib

import (
	"fmt"
	"sort"
	"sync/atomic"

	"repro/internal/sim"
)

// This file is the fabric's self-healing layer: per-WAN-link health
// monitoring and subnet re-sweeps (new routing epochs) that route around
// links the monitor declares dead.
//
// Health is driven entirely in simulated time, from two signal sources:
//
//   - Scheduled edges. The fault layer's WANDown/WANFlaps levers are a
//     time-pure outage schedule; the monitor debounces that schedule into a
//     verdict timeline at EnableFailover time and arms one routing-epoch
//     swap per verdict edge. Because every swap is an ordinary simulation
//     event armed before traffic starts, classic and sharded runs see the
//     identical epoch at the identical virtual time.
//
//   - Reactive detection. Consecutive RC retransmission timeouts attributed
//     to a monitored link with no raw outage schedule — by walking the
//     current route of the timed-out QP — mark the link dead once they
//     reach HealthConfig.TimeoutThreshold. Such links drop at random (loss,
//     corruption), which keeps their world on one environment; a link with
//     a schedule is never blamed, even when its flaps debounce to nothing.
//
// A switch with no route in the current epoch discards the packet, as an
// IB switch does; its sender fails when the retry budget runs out.
//
// Re-sweeps never add links or change delays — a reroute only lengthens
// paths — so every per-channel lookahead bound registered at build time
// remains a valid lower bound across epochs. EnableFailover asserts this
// for each monitored cross-shard link.

// HealthTransition is one raw edge of a link's scheduled outage timeline,
// in absolute simulated time. Links start up; edges toggle the raw state.
type HealthTransition struct {
	At   sim.Time
	Down bool
}

// HealthConfig tunes the fabric's link-health monitor.
type HealthConfig struct {
	// DebounceDown (DebounceUp) is how long the raw signal must hold down
	// (up) before the verdict flips; flaps shorter than the debounce are
	// suppressed entirely. Zero selects the default; negative is an error.
	DebounceDown sim.Time
	DebounceUp   sim.Time
	// TimeoutThreshold is the number of consecutive RC retransmission
	// timeouts attributed to a monitored link with no outage schedule
	// before reactive detection declares it down. Zero selects
	// DefaultTimeoutThreshold; negative disables reactive detection.
	TimeoutThreshold int
}

// Default health-monitor parameters.
const (
	DefaultDebounceDown     = 250 * sim.Microsecond
	DefaultDebounceUp       = 1 * sim.Millisecond
	DefaultTimeoutThreshold = 3
)

// verdictEdge is one debounced health transition. rawAt is the raw edge
// that started the debounce window; at - rawAt is the detection latency
// recorded in the failover-time histogram.
type verdictEdge struct {
	at    sim.Time
	down  bool
	rawAt sim.Time
}

// monitoredLink is the health state of one WAN link.
type monitoredLink struct {
	link *Link
	name string
	raw  []HealthTransition
	// edges is the debounced verdict timeline (computed at EnableFailover,
	// sorted by time, strictly increasing). Reactive detection appends to
	// it on unscheduled links; scheduled timelines are immutable once armed.
	edges []verdictEdge

	// Reactive streak (unscheduled links only: len(raw) == 0).
	timeouts int
	streakAt sim.Time // time of the first timeout in the current streak
	down     bool     // reactive verdict latch
}

// downAt reports the link's verdict at time t: the state of the last
// verdict edge at or before t (links start up).
func (ml *monitoredLink) downAt(t sim.Time) bool {
	i := sort.Search(len(ml.edges), func(i int) bool { return ml.edges[i].at > t })
	return i > 0 && ml.edges[i-1].down
}

// edgeAt returns the verdict edge firing exactly at t, if any.
func (ml *monitoredLink) edgeAt(t sim.Time) *verdictEdge {
	i := sort.Search(len(ml.edges), func(i int) bool { return ml.edges[i].at >= t })
	if i < len(ml.edges) && ml.edges[i].at == t {
		return &ml.edges[i]
	}
	return nil
}

// healthState hangs off the fabric once MonitorLink has been called.
type healthState struct {
	cfg      HealthConfig
	reactive bool // some link has no schedule and the threshold is positive
	links    []*monitoredLink
	byLink   map[*Link]*monitoredLink
	// suspects counts links with a nonzero reactive timeout streak, so the
	// per-ack noteSuccess hook is one integer test in the common case.
	suspects    int
	transitions atomic.Int64
}

// MonitorLink registers a WAN link with the health monitor. schedule is
// the link's raw outage timeline in absolute simulated time (typically
// fault.Plan.DownEdges); a nil schedule registers the link for reactive
// detection only. Call before EnableFailover.
func (f *Fabric) MonitorLink(l *Link, name string, schedule []HealthTransition) {
	if f.health == nil {
		f.health = &healthState{byLink: make(map[*Link]*monitoredLink)}
	}
	ml := &monitoredLink{link: l, name: name, raw: schedule}
	f.health.links = append(f.health.links, ml)
	f.health.byLink[l] = ml
}

// EnableFailover arms the health monitor: it debounces every monitored
// link's outage schedule into a verdict timeline and schedules one routing
// re-sweep (a new epoch) per verdict edge. On sharded fabrics each shard
// re-sweeps its own devices in an event at the same virtual time, so the
// table swap is equivalent to a swap at a window barrier and classic and
// sharded runs stay byte-identical. A link with no schedule is an error on
// a fabric spanning several environments: blaming it reads both ends'
// state. Call after the topology is final (Finalize) and before traffic.
func (f *Fabric) EnableFailover(cfg HealthConfig) error {
	h := f.health
	if h == nil || len(h.links) == 0 {
		return nil
	}
	if cfg.DebounceDown < 0 || cfg.DebounceUp < 0 {
		return fmt.Errorf("ib: negative health debounce %v/%v", cfg.DebounceDown, cfg.DebounceUp)
	}
	if cfg.DebounceDown == 0 {
		cfg.DebounceDown = DefaultDebounceDown
	}
	if cfg.DebounceUp == 0 {
		cfg.DebounceUp = DefaultDebounceUp
	}
	if cfg.TimeoutThreshold == 0 {
		cfg.TimeoutThreshold = DefaultTimeoutThreshold
	}
	h.cfg = cfg

	edgeTimes := make(map[sim.Time]bool)
	for _, ml := range h.links {
		if len(ml.raw) == 0 {
			if len(f.pools) > 1 {
				return fmt.Errorf("ib: monitored link %s has no outage schedule on a fabric spanning %d environments", ml.name, len(f.pools))
			}
			h.reactive = cfg.TimeoutThreshold > 0
		}
		ml.edges = debounceEdges(ml.raw, cfg.DebounceDown, cfg.DebounceUp)
		for _, e := range ml.edges {
			edgeTimes[e.at] = true
		}
	}
	if len(edgeTimes) == 0 {
		return nil
	}
	times := make([]sim.Time, 0, len(edgeTimes))
	for t := range edgeTimes {
		times = append(times, t)
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })

	// Group devices by home environment (a group per shard view; exactly
	// one group on classic fabrics). Each group's re-sweep runs as an event
	// on its own environment, so no shard ever writes another shard's
	// routing tables. The fabric root environment is always shard 0, so the
	// group that also bumps the epoch counters (lead) exists on every run.
	var envs []*sim.Env
	byEnv := make(map[*sim.Env][]Device)
	for _, d := range f.devices {
		e := d.home().env
		if _, ok := byEnv[e]; !ok {
			envs = append(envs, e)
		}
		byEnv[e] = append(byEnv[e], d)
	}
	for _, at := range times {
		lead := false
		for _, e := range envs {
			devs := byEnv[e]
			isLead := e == f.env
			lead = lead || isLead
			sc := &devs[0].home().sweep
			e.At(at-e.Now(), func() { f.applyEpoch(devs, at, isLead, sc) })
		}
		if !lead {
			f.env.At(at-f.env.Now(), func() { f.applyEpoch(nil, at, true, &f.pools[0].sweep) })
		}
	}
	return nil
}

// debounceEdges converts a raw outage timeline into the debounced verdict
// timeline. A raw edge to state s fires a verdict edge at rawAt+debounce(s)
// unless the raw signal flips again first (the flap is suppressed) or the
// verdict already holds s. The result is strictly increasing in time.
func debounceEdges(raw []HealthTransition, debounceDown, debounceUp sim.Time) []verdictEdge {
	// Collapse the raw timeline into alternating state runs, keeping the
	// first edge of each run; leading "up" edges restate the initial state.
	var runs []HealthTransition
	for _, e := range raw {
		if len(runs) == 0 {
			if !e.Down {
				continue
			}
		} else if runs[len(runs)-1].Down == e.Down {
			continue
		}
		runs = append(runs, e)
	}
	var out []verdictEdge
	cur := false
	for i, e := range runs {
		d := debounceUp
		if e.Down {
			d = debounceDown
		}
		fire := e.At + d
		if i+1 < len(runs) && runs[i+1].At < fire {
			continue // flipped back before the debounce expired
		}
		if e.Down != cur {
			out = append(out, verdictEdge{at: fire, down: e.Down, rawAt: e.At})
			cur = e.Down
		}
	}
	return out
}

// applyEpoch is the routing-epoch swap event: recompute the routing tables
// of devs excluding links whose verdict at time at is down. Exactly one
// event per edge time runs with lead set; it owns the epoch counters and
// the failover-time histogram. On sharded runs the lead event executes on
// shard 0 concurrently with the other shards' sweeps; it touches only its
// own devices' tables, with their pool's scratch sc, verdicts and atomics.
func (f *Fabric) applyEpoch(devs []Device, at sim.Time, lead bool, sc *sweepScratch) {
	h := f.health
	f.resweep(devs, func(l *Link) bool {
		ml := h.byLink[l]
		return ml != nil && ml.downAt(at)
	}, sc)
	if !lead {
		return
	}
	f.routeEpoch.Add(1)
	obs := f.obs
	if obs != nil {
		obs.routeEpochs.Add(1)
	}
	for _, ml := range h.links {
		e := ml.edgeAt(at)
		if e == nil {
			continue
		}
		h.transitions.Add(1)
		if obs != nil {
			obs.healthTransitions.Add(1)
			if e.down {
				obs.failoverNs.Observe(int64(at - e.rawAt))
			}
		}
	}
}

// noteTimeout feeds one RC retransmission timeout into reactive detection:
// every unscheduled monitored link on the QP's current route accumulates a
// consecutive-timeout streak, and a streak reaching the threshold declares
// the link dead and triggers an immediate re-sweep. Attempts launched under
// an older routing epoch are ignored — their loss happened on a route that
// no longer exists and says nothing about the replacement path. Links with
// a raw outage schedule are skipped — the schedule is authoritative — and a
// reactively-dead link stays dead (the monitor never probes a path it has
// stopped routing over).
func (h *healthState) noteTimeout(q *QP, t *transfer) {
	if !h.reactive {
		return
	}
	f := q.hca.fab
	if t.epoch != f.routeEpoch.Load() {
		return
	}
	if t.delivered {
		// The data reached the responder; the missing ack is in-order
		// head-of-line blocking behind an older undelivered message, not
		// evidence against the path the attempt took. (Reactive detection
		// only runs on fabrics with one environment, so reading
		// responder-side state here is race-free.)
		return
	}
	now := q.env().Now()
	f.walkRoute(q, func(ml *monitoredLink) {
		if len(ml.raw) > 0 || ml.down {
			return
		}
		if ml.timeouts == 0 {
			ml.streakAt = now
			h.suspects++
		}
		ml.timeouts++
		if ml.timeouts >= h.cfg.TimeoutThreshold {
			h.reactiveDown(f, ml, now)
		}
	})
}

// noteSuccess resets the reactive streak of every monitored link on the
// acked QP's current route. The suspects gate keeps the per-ack cost of a
// healthy fabric at two integer tests.
func (h *healthState) noteSuccess(q *QP) {
	if !h.reactive || h.suspects == 0 {
		return
	}
	q.hca.fab.walkRoute(q, func(ml *monitoredLink) {
		if ml.timeouts > 0 {
			ml.timeouts = 0
			h.suspects--
		}
	})
}

// reactiveDown latches a reactive link death: append a synthetic verdict
// edge, re-sweep every device (the fabric is on one environment, so this
// swap is atomic with respect to traffic), and account the epoch.
func (h *healthState) reactiveDown(f *Fabric, ml *monitoredLink, now sim.Time) {
	ml.down = true
	ml.timeouts = 0
	h.suspects--
	ml.edges = append(ml.edges, verdictEdge{at: now, down: true, rawAt: ml.streakAt})
	f.resweep(f.devices, func(l *Link) bool {
		m := h.byLink[l]
		return m != nil && (m.down || m.downAt(now))
	}, &f.pools[0].sweep) // reactive detection runs on one-environment fabrics
	f.routeEpoch.Add(1)
	h.transitions.Add(1)
	if obs := f.obs; obs != nil {
		obs.routeEpochs.Add(1)
		obs.healthTransitions.Add(1)
		obs.failoverNs.Observe(int64(now - ml.streakAt))
	}
}

// walkRoute visits every monitored link on q's current route to its peer,
// following the per-hop routing tables exactly as a packet would.
func (f *Fabric) walkRoute(q *QP, fn func(*monitoredLink)) {
	dst := q.remote.hca.lid
	dev := Device(q.hca)
	for hops := 0; hops <= len(f.devices); hops++ {
		if dev.LID() == dst {
			return
		}
		p := dev.routeTo(dst)
		if p == nil || p.peer == nil {
			return
		}
		if ml := f.health.byLink[p.link]; ml != nil {
			fn(ml)
		}
		dev = p.peer.dev
	}
}

// RouteEpochs returns the number of routing re-sweeps performed after the
// initial Finalize (0 on a fabric that never failed over).
func (f *Fabric) RouteEpochs() int64 { return f.routeEpoch.Load() }

// HealthTransitions returns the number of debounced link-health verdict
// transitions the monitor has applied.
func (f *Fabric) HealthTransitions() int64 {
	if f.health == nil {
		return 0
	}
	return f.health.transitions.Load()
}

// NoRouteDrops returns the number of packets the fabric's switches
// discarded because their current routing epoch had no route to the
// destination (a transition window or a true partition). Read it once Run
// has returned: each switch counts on its own environment.
func (f *Fabric) NoRouteDrops() int64 {
	var n int64
	for _, d := range f.devices {
		if s, ok := d.(*Switch); ok {
			n += s.noRoute
		}
	}
	return n
}
