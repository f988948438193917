package ib

import (
	"fmt"
	"slices"
	"sync/atomic"

	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Device is anything attached to the fabric: an HCA end node or a switch.
type Device interface {
	Name() string
	LID() LID
	ports() []*Port
	attach(p *Port)
	setLID(l LID)
	// ingress is the device's ingress action, a func(any) of the arriving
	// packet shared by all its ports. It runs stage() — one constant latency,
	// whatever the port — after a packet arrives (see Port.send).
	stage() sim.Time
	ingress() func(any)
	// routeTo returns the egress port toward the destination LID.
	routeTo(dst LID) *Port
	setRoute(dst LID, p *Port)
	// resetRoutes clears the routing table ahead of a re-sweep over LIDs
	// below n, so entries toward now-unreachable destinations do not survive
	// a routing epoch.
	resetRoutes(n int)
	// wireTrack is the device's telemetry "wire" track (obs.go).
	wireTrack() *track
	fabric() *Fabric
	// home returns the pool — and with it the environment — the device was
	// created under (see Fabric.UseEnv).
	home() *pool
}

// Fabric is an InfiniBand subnet: devices, links, LID assignment and
// routing. It plays the role of the subnet manager.
type Fabric struct {
	env *sim.Env
	// cur is where new devices are created (UseEnv): the pool of the
	// environment they live on. It starts as the fabric environment's and
	// only ever differs on partitioned topologies, where each site's devices
	// live on that site's shard view. pools holds one pool per environment
	// seen so far; the classic world is the one-pool case.
	cur     *pool
	pools   []*pool
	devices []Device
	byLID   []Device // indexed by LID; LIDs are dense from 1
	routed  bool
	// health is non-nil once MonitorLink has registered a WAN link with the
	// self-healing layer (see health.go); routeEpoch counts re-sweeps, an
	// atomic: on partitioned worlds every shard bumps it.
	health     *healthState
	routeEpoch atomic.Int64
	// obs is non-nil only when a telemetry session is attached to the
	// environment; every instrumented hot-path site is gated on this one
	// pointer, keeping the disabled path allocation-free.
	obs *fabObs
}

// pool is a fabric's handle on the freelists of one environment — one shard
// view of a partitioned world, or the whole of a classic one — for wire
// packets and transfer contexts: the environment's sim.Free lists, so under a
// sim.Arena the next world on this shard index starts with them warm.
//
// Every packet and transfer has a home pool, the one it was taken from (a
// transfer's is its origin QP's). Its last consumer is often on another
// shard — data flows one way, the acks come back — so it goes home with
// Free.Return, which resets it before it leaves.
//
// The pool also numbers the messages made on its environment. A message id
// names it in packet traces, so it need only be unique per environment;
// a pool's counter starts afresh with each fabric and advances in its own
// event order, so on a partitioned world an id does not depend on which
// shard got there first.
type pool struct {
	fab     *Fabric
	env     *sim.Env
	nextMsg int64
	pkts    *sim.Free[packet]
	xfers   *sim.Free[transfer]
	sweep   sweepScratch // its devices' routing sweeps' working memory
}

// poolFor returns env's pool, creating it on first sight.
func (f *Fabric) poolFor(env *sim.Env) *pool {
	for _, pl := range f.pools {
		if pl.env == env {
			return pl
		}
	}
	pl := sim.FreeOf(env, (*pool).reset).Get()
	pl.fab, pl.env, pl.pkts, pl.xfers = f, env, sim.FreeOf(env, resetPacket), sim.FreeOf(env, (*transfer).reset)
	f.pools = append(f.pools, pl)
	return pl
}

// The fabric, its pools, devices, links, QPs and CQs are records (sim.Free)
// whose reset keeps only memory, and a switch's or a CQ's closure, which
// names it alone.

func (pl *pool) reset() {
	sc := &pl.sweep
	clear(sc.visited)
	*pl = pool{sweep: sweepScratch{visited: sc.visited, frontier: emptied(sc.frontier), next: emptied(sc.next)}}
}

func (f *Fabric) reset() {
	*f = Fabric{pools: emptied(f.pools), devices: emptied(f.devices), byLID: emptied(f.byLID)}
}

func (s *Switch) reset() {
	*s = Switch{plist: emptied(s.plist), routes: emptied(s.routes), deliver: s.deliver}
}

func (l *Link) reset() { *l = Link{} }

// emptied returns s resliced to [:0], its array zeroed.
func emptied[T any](s []T) []T {
	s = s[:cap(s)]
	clear(s)
	return s[:0]
}

// newPacket returns a packet holding v, from the freelist or fresh.
func (pl *pool) newPacket(v packet) *packet {
	pkt := pl.pkts.Get()
	v.home, v.train = pl, pkt.train
	*pkt = v
	return pkt
}

// freePacket recycles a packet at its terminal sink — after the destination
// QP consumed it, or when a drop removed it from the wire — and releases the
// packet's reference on its transfer. pl is the pool of the environment the
// sink runs on.
func (pl *pool) freePacket(pkt *packet) {
	t, home := pkt.msg, pkt.home
	home.pkts.Return(pl.env, home.env, pkt)
	if t != nil {
		pl.unref(t)
	}
}

// newTransfer returns a zeroed transfer context carrying a fresh message id.
// Ids stay monotonic across recycling, so a trace never confuses two uses of
// the same memory.
func (pl *pool) newTransfer() *transfer {
	t := pl.xfers.Get()
	pl.nextMsg++
	t.id = pl.nextMsg
	return t
}

// A transfer's state word: the low bits count live references from outside
// the QP state machines — wire packets carrying the transfer plus scheduled
// protocol actions (overhead timers, ack emissions) that captured it — and
// two flags record that the initiating and the responding endpoint have each
// finished with it. The transfer is recycled by whichever operation brings
// the word to exactly xferDone: no reference left, both ends done. The two
// endpoints of a WAN-crossing transfer run on different shards, and with
// three separate fields both could see "all clear" after the other's last
// write; one atomic word has one last writer.
const (
	xferSenderDone = 1 << 30
	xferRecvDone   = 1 << 29
	xferDone       = xferSenderDone | xferRecvDone
	xferRefs       = xferRecvDone - 1
)

// ref records a live reference to t.
func (t *transfer) ref() { t.state.Add(1) }

// unref releases one reference. Transfers that never reach xferDone (e.g. a
// UD datagram lost on the wire, or work cut short by Env.Shutdown) stay out
// of use until the world ends — recycling too early is not safe.
func (pl *pool) unref(t *transfer) {
	s := t.state.Add(-1)
	if s&xferRefs == xferRefs {
		panic("ib: transfer reference count underflow")
	}
	pl.released(t, s)
}

// endpointDone sets one of the two done flags (idempotently: a retried RDMA
// read is served, and so finished with, once per attempt). A CAS loop, not
// state.Or: with Or's result in use go1.24.0/amd64 faulted in released.
func (pl *pool) endpointDone(t *transfer, flag int32) {
	for {
		old := t.state.Load()
		if old&flag != 0 {
			return
		}
		if t.state.CompareAndSwap(old, old|flag) {
			pl.released(t, old|flag)
			return
		}
	}
}

// released sends t home once its state word says nothing can touch it
// again. pl is the pool of the environment that made the last release.
func (pl *pool) released(t *transfer, state int32) {
	if state != xferDone {
		return
	}
	home := t.origin.hca.pool
	home.xfers.Return(pl.env, home.env, t)
}

// NewFabric creates an empty fabric on the given simulation environment.
// If the environment carries a telemetry attachment (telemetry.Attach), the
// fabric arms its instrumentation; otherwise observation costs nothing.
func NewFabric(env *sim.Env) *Fabric {
	f := sim.FreeOf(env, (*Fabric).reset).Get()
	f.env, f.byLID = env, append(f.byLID, nil)
	f.cur = f.poolFor(env)
	if tel := telemetry.FromEnv(env); tel != nil && (tel.Metrics != nil || tel.Spans != nil) {
		f.obs = newFabObs(tel)
	}
	return f
}

// Env returns the simulation environment of the fabric.
func (f *Fabric) Env() *sim.Env { return f.env }

// UseEnv selects the environment subsequently created devices live on. On a
// partitioned topology the compiler points it at each site's shard view
// before building that site, so every device's timers, handlers, queues and
// freelists stay on one shard. Devices already created are unaffected.
func (f *Fabric) UseEnv(env *sim.Env) { f.cur = f.poolFor(env) }

func (f *Fabric) addDevice(d Device) {
	d.setLID(LID(len(f.byLID)))
	f.byLID = append(f.byLID, d)
	f.devices = append(f.devices, d)
	f.routed = false
}

// AddHCA creates a host channel adapter end node (on the UseEnv
// environment).
func (f *Fabric) AddHCA(name string) *HCA {
	h := sim.FreeOf(f.cur.env, (*HCA).reset).Get()
	h.fab, h.pool, h.env, h.name = f, f.cur, f.cur.env, name
	f.addDevice(h)
	return h
}

// AddSwitch creates a switch with the given forwarding latency (use
// ib.SwitchDelay for a normal cluster switch) on the UseEnv environment.
func (f *Fabric) AddSwitch(name string, forwardDelay sim.Time) *Switch {
	s := sim.FreeOf(f.cur.env, (*Switch).reset).Get()
	s.fab, s.pool, s.name, s.fwd = f, f.cur, name, forwardDelay
	if s.deliver == nil {
		s.deliver = func(v any) { s.receive(v.(*packet)) }
	}
	f.addDevice(s)
	return s
}

// Connect joins two devices with a full-duplex link of the given data rate
// and one-way propagation delay, which the link keeps for its lifetime: a
// world at another rate or delay is a new world. A non-positive rate or a
// negative delay panics. Each endpoint port lives on its device's
// environment; when the two differ (a WAN link between shards) delivery
// crosses through the kernel's mailbox path, and the propagation delay must
// honor the world's registered lookahead bound. The link and both its ports
// are one record, from a's environment.
func (f *Fabric) Connect(a, b Device, rate Rate, prop sim.Time) *Link {
	if rate <= 0 {
		panic(fmt.Sprintf("ib: link rate must be positive, got %v", rate))
	}
	if prop < 0 {
		panic(fmt.Sprintf("ib: negative link delay %v", prop))
	}
	l := sim.FreeOf(a.home().env, (*Link).reset).Get()
	l.rate, l.prop = rate, prop
	l.a.init(a, l, &l.b)
	l.b.init(b, l, &l.a)
	a.attach(&l.a)
	b.attach(&l.b)
	f.routed = false
	return l
}

// Finalize computes routing tables (shortest path by hop count, BFS) for
// every device toward every LID. It must be called after topology changes
// and before traffic flows; CreateRC/CreateUD call it implicitly.
func (f *Fabric) Finalize() {
	f.resweep(f.devices, nil, &f.pools[0].sweep)
	f.routed = true
}

// sweepScratch is resweep's working memory, reused from one source device to
// the next: visited[lid] holds the stamp of the sweep that last reached the
// device, so starting a new source is one increment, not a fresh set.
type sweepScratch struct {
	visited        []int
	stamp          int
	frontier, next []sweepHop
}

// sweepHop is a device reached by the BFS and the source's first-hop port
// toward it.
type sweepHop struct {
	dev   Device
	first *Port
}

// resweep recomputes the routing tables of devs from scratch. A non-nil
// excluded predicate removes links from consideration (the health monitor
// excludes dead links, making each call a new routing epoch). The sweep
// reads only the immutable port/link graph and writes only the tables of
// the devices it was given (and sc, their pool's), so on a partitioned world
// each shard re-sweeps its own devices concurrently without synchronization.
func (f *Fabric) resweep(devs []Device, excluded func(*Link) bool, sc *sweepScratch) {
	if len(sc.visited) < len(f.byLID) {
		sc.visited = make([]int, len(f.byLID))
	}
	for _, src := range devs {
		src.resetRoutes(len(f.byLID))
		// BFS from src over the device graph recording first hop.
		sc.stamp++
		sc.visited[src.LID()] = sc.stamp
		frontier, next := sc.frontier[:0], sc.next[:0]
		for _, p := range src.ports() {
			frontier = sc.visit(frontier, src, p, p, excluded)
		}
		for len(frontier) > 0 {
			for _, h := range frontier {
				for _, p := range h.dev.ports() {
					next = sc.visit(next, src, p, h.first, excluded)
				}
			}
			frontier, next = next, frontier[:0]
		}
		sc.frontier, sc.next = frontier, next
	}
}

// visit routes src toward the device behind port p through first, if p is
// usable and the device has not been reached yet, and appends it to hops.
func (sc *sweepScratch) visit(hops []sweepHop, src Device, p, first *Port, excluded func(*Link) bool) []sweepHop {
	if p.peer == nil || (excluded != nil && excluded(p.link)) {
		return hops
	}
	nb := p.peer.dev
	if sc.visited[nb.LID()] == sc.stamp {
		return hops
	}
	sc.visited[nb.LID()] = sc.stamp
	src.setRoute(nb.LID(), first)
	return append(hops, sweepHop{nb, first})
}

func (f *Fabric) ensureRouted() {
	if !f.routed {
		f.Finalize()
	}
}

// Link is a full-duplex point-to-point cable between two ports. Each
// direction serializes packets at the link rate and delivers them after the
// propagation delay; both are fixed by Connect.
type Link struct {
	rate Rate
	prop sim.Time
	a, b Port
	// DropFn, when non-nil, is consulted for every packet; returning true
	// drops the packet on the wire (fault injection). now is the sending
	// port's current virtual time — on partitioned worlds the two ends of a
	// WAN link live on different shards, so the decision must be a function of
	// the passed time and crossing, not of state other traffic moves.
	DropFn func(now sim.Time, c Crossing) bool
	// wan marks the link as the long-haul WAN hop (see MarkWAN); the
	// telemetry layer records utilization and queue spans only there.
	wan bool
	// qcfg, when non-nil, bounds each direction's egress queue (see
	// ConfigureQueue). Nil leaves an infinite FIFO where the only delay is
	// serialization behind busyUntil.
	qcfg *QueueConfig
}

// Crossing is a packet crossing a link as a drop function sees it: the
// sending device and its peer, and the packet's source HCA, source QP and
// index on that QP's transmit counter (see QP.newPacket). No two crossings
// of a direction share (Src, QP, Tx), and none of it depends on the shards.
type Crossing struct {
	From, To LID
	Src      LID
	QP       int32
	Tx       uint64
	Wire     int
}

// QueueConfig bounds a link's per-direction egress queue. The zero value is
// invalid — links without an explicit configuration stay unbounded, book
// nothing, and the golden experiment output is untouched.
type QueueConfig struct {
	// QueueBytes caps the bytes admitted but not yet fully serialized in
	// one direction. A packet that would exceed the cap is tail-dropped
	// (or stalled, when Lossless). A packet larger than the whole cap is
	// still admitted when the queue is empty, so oversized messages cannot
	// wedge a flow.
	QueueBytes int
	// ECN enables CE marking: packets admitted while the queue holds at
	// least half of QueueBytes carry a congestion-experienced codepoint to
	// the receiving endpoint instead of being dropped.
	ECN bool
	// Lossless models IB credit-based link-level flow control: a packet
	// that finds the queue full waits for credits (earlier packets'
	// departures) instead of dropping, preserving the verbs layers' no-loss
	// assumption on configured fabrics.
	Lossless bool
}

// ConfigureQueue bounds both directions of the link with cfg. Call it after
// Connect and before traffic; the per-port queue state lives on each port's
// own environment, so on partitioned worlds each direction's accounting
// stays shard-local and the determinism matrix holds at any worker count.
func (l *Link) ConfigureQueue(cfg QueueConfig) error {
	if cfg.QueueBytes <= 0 {
		return fmt.Errorf("ib: queue bytes must be positive, got %d", cfg.QueueBytes)
	}
	l.qcfg = &cfg
	for _, p := range []*Port{&l.a, &l.b} {
		p.cong = &portQueue{credit: p.env.NewTimer(grantCredits, p)}
	}
	return nil
}

// MarkWAN labels the link as the WAN hop for telemetry purposes: its ports
// record utilization, queueing delay and wan.xmit spans when observation is
// enabled. The wan package marks the Longbow long-haul link.
func (l *Link) MarkWAN() { l.wan = true }

// Delay returns the one-way propagation delay.
func (l *Link) Delay() sim.Time { return l.prop }

// Rate returns the link data rate.
func (l *Link) Rate() Rate { return l.rate }

// Lossy reports whether some link of the fabric has a drop function.
func (f *Fabric) Lossy() bool {
	for _, d := range f.devices {
		for _, p := range d.ports() {
			if p.link.DropFn != nil {
				return true
			}
		}
	}
	return false
}

// PortCounters is one port's transmit-side ledger, every fact the port
// sees about the packets it sends, under the name perfquery gives the IB
// PortCounters attribute where there is one. Each is a plain count written
// only on the port's own environment (the sender's shard), so it is read
// once Run has returned. Overflow (emergent loss) and fault drops
// (configured loss) are disjoint.
type PortCounters struct {
	XmitData     int64 // wire bytes sent (perfquery counts 4-byte words)
	XmitPkts     int64 // packets sent
	XmitDiscards int64 // packets tail-dropped at a full bounded queue
	XmitWait     int64 // packets held by lossless credits (perfquery: ticks waited)
	ECNMarks     int64 // packets CE-marked at admission
	FaultDrops   int64 // packets removed on the wire by the link's DropFn
}

// Counters returns the port's ledger.
func (p *Port) Counters() PortCounters { return p.ctr }

// Counters returns the link's two ports' ledgers summed: both directions.
func (l *Link) Counters() PortCounters {
	a, b := l.a.ctr, l.b.ctr
	return PortCounters{a.XmitData + b.XmitData, a.XmitPkts + b.XmitPkts, a.XmitDiscards + b.XmitDiscards,
		a.XmitWait + b.XmitWait, a.ECNMarks + b.ECNMarks, a.FaultDrops + b.FaultDrops}
}

// Port is one link endpoint on a device, embedded in its Link. Transmission
// is modeled with a busy-until horizon: each packet occupies the egress for
// wireBytes/rate and arrives at the peer one propagation delay after its
// serialization ends. Port.send is the one place a packet is serialized.
type Port struct {
	env       *sim.Env
	pool      *pool // the device's: where this port's drops release packets
	dev       Device
	link      *Link
	peer      *Port
	busyUntil sim.Time
	ctr       PortCounters
	// stage caches dev.stage(), and deliverArg dev.ingress(), a func(any)
	// value the device shares among its ports, so the peer's per-packet
	// scheduling rides the kernel's closure-free AtArg path.
	stage      sim.Time
	deliverArg func(any)
	// wire holds the packets on their way through propagation and the stage
	// of a peer on the same environment: departures never go backwards and
	// both delays are constant, so they are a FIFO (sim.Pipe), not one heap
	// entry each. A cross-shard peer takes AtArgOn.
	wire sim.Pipe
	// cong holds the bounded-queue state for this direction when the link
	// has a QueueConfig, and is nil otherwise.
	cong *portQueue
	// wanQueue is the port's telemetry "wan-queue" track (obs.go).
	wanQueue track
}

// portQueue is one direction's bounded egress queue. All state is touched
// only from the owning port's environment — on a partitioned world that is
// the sender's shard, so admission, marking and retirement are shard-local.
type portQueue struct {
	// depth is the bytes admitted and not yet retired.
	depth int
	// booked holds every admitted packet's departure instant and wire size,
	// in departure order. Nothing is scheduled to take them out again: the
	// next admission (or credit wake-up) first retires the ones whose last
	// bit has left.
	booked sim.Ring[booking]
	// waitq holds packets stalled on lossless credits, in arrival order, and
	// credit is the only event the queue ever schedules: while packets wait
	// it stands at the head booking's departure.
	waitq  sim.Ring[*packet]
	credit sim.Timer
}

// booking is one admitted packet's claim on the queue: wire bytes, held until
// the instant depart.
type booking struct {
	depart sim.Time
	wire   int
}

// retire releases the bytes of every packet whose last bit has left the port
// by now. A packet departing at T is out of the queue at T.
func (q *portQueue) retire(now sim.Time) {
	for q.booked.Len() > 0 && q.booked.Front().depart <= now {
		q.depth -= q.booked.Pop().wire
	}
}

// full reports whether a packet of the given wire size would overflow the
// bound. A packet larger than the whole queue is admitted when the queue is
// empty — otherwise it could never transmit at all.
func (q *portQueue) full(wire, bound int) bool {
	return q.depth > 0 && q.depth+wire > bound
}

// init sets up p in place as dev's end of link, facing peer.
func (p *Port) init(dev Device, link *Link, peer *Port) {
	pl := dev.home()
	*p = Port{env: pl.env, pool: pl, dev: dev, link: link, peer: peer,
		stage: dev.stage(), deliverArg: dev.ingress(), wire: pl.env.NewPipe()}
}

// send puts pkt on the link toward the peer port. On a link with a
// QueueConfig the packet first meets the bounded queue's verdict: stall
// (lossless), tail-drop, or pass, CE-marked past the ECN threshold. Then
// busy-until serialization, telemetry, injected-fault drops, and propagation
// toward the peer, whose device holds every arriving packet for one constant
// latency: packets leave that stage in arrival order, so it needs no event of
// its own and the packet is scheduled once, at arrival + stage, under the
// sequence number its arrival would have carried. The last packet of a train
// first books the body ahead of it (sendBody).
func (p *Port) send(pkt *packet) {
	now := p.env.Now()
	fab := p.dev.fabric()
	if pkt.body() > 0 {
		p.sendBody(pkt.train)
	}
	q := p.cong
	if cfg := p.link.qcfg; cfg != nil {
		q.retire(now)
		full := q.full(pkt.wire, cfg.QueueBytes)
		// Credits are granted in arrival order (link-level flow control is
		// FIFO per VL), so on a lossless link a packet that would fit still
		// waits behind any packet already stalled: a message's small tail
		// must not overtake its body.
		if cfg.Lossless && (full || q.waitq.Len() > 0) {
			// Credit-based link-level flow control: the next hop withholds
			// credits, so the packet waits for departures instead of
			// dropping. The verbs layers above never see loss.
			p.ctr.XmitWait++
			if fab.obs != nil {
				fab.obs.wanCreditStalls.Add(1)
			}
			if q.waitq.Len() == 0 {
				q.credit.Reset(q.booked.Front().depart - now)
			}
			q.waitq.Push(pkt)
			return
		}
		if full {
			fab.discard(discardOverflow, &p.ctr.XmitDiscards, p.dev, pkt)
			p.pool.freePacket(pkt)
			return
		}
		// The mark is a step at half the bound — deep enough that a single
		// window-limited flow's slow-start burst passes unmarked, while a
		// standing overload crosses it — and so a pure function of queue
		// state: partitioned runs need no per-port randomness to stay
		// byte-identical.
		if cfg.ECN && q.depth >= max(cfg.QueueBytes/2, 1) {
			pkt.ecn = true
			p.ctr.ECNMarks++
			if fab.obs != nil {
				fab.obs.wanECNMarks.Add(1)
			}
		}
	}
	start := max(now, p.busyUntil)
	ser := serialization(pkt.wire, p.link.rate)
	depart := start + ser // the instant the last bit leaves the port
	p.busyUntil = depart
	p.ctr.XmitData += int64(pkt.wire)
	p.ctr.XmitPkts++
	if q != nil {
		q.depth += pkt.wire
		q.booked.Push(booking{depart, pkt.wire})
		if fab.obs != nil {
			fab.obs.wanQueueDepth.Observe(int64(q.depth))
		}
	}
	if obs := fab.obs; obs != nil && p.link.wan {
		obs.wanTxPkts.Add(1)
		obs.wanTxBytes.Add(int64(pkt.wire))
		obs.wanBusy.Add(int64(ser))
		obs.wanQueueWait.Observe(int64(start - now))
		if obs.rec != nil {
			parent := telemetry.NoSpan
			if pkt.msg != nil {
				parent = pkt.msg.span
			}
			obs.rec.RecordAt(now, depart, obs.wanTrack(p), "wan.xmit", parent)
		}
	}
	fab.trace(evTx, p.dev, pkt, "")
	if p.link.DropFn != nil && p.link.DropFn(now, Crossing{p.dev.LID(), p.peer.dev.LID(), pkt.src, pkt.srcQP, pkt.tx, pkt.wire}) {
		fab.discard(discardFault, &p.ctr.FaultDrops, p.dev, pkt)
		p.pool.freePacket(pkt)
		return
	}
	staged := depart + p.link.prop + p.peer.stage
	if p.peer.env == p.env {
		p.wire.AtArg(staged-now, p.peer.deliverArg, pkt)
	} else {
		// The peer lives on another shard (the WAN hop of a partitioned
		// world): the packet crosses through the kernel's mailbox lanes.
		p.env.AtArgOn(p.peer.env, staged-now, p.peer.deliverArg, pkt)
	}
}

// serialization is the time a packet of wire bytes occupies a port of rate r.
func serialization(wire int, r Rate) sim.Time { return sim.Time(float64(wire) / float64(r) * 1e9) }

// sendBody books a train's body on the port at the instant its last packet
// reaches it: the departures send would have given the body packets one by
// one, the busy horizon and the transmit counters they leave behind, and
// their arrivals at the next device. That is exact because on an exclusive
// route nothing else books the port between the body's first packet and its
// last (see Port.exclusiveTo), and the link's rate and delay, fixed by
// Connect, are the same for every body packet.
func (p *Port) sendBody(tr *train) {
	l := p.link
	if l.qcfg != nil || l.DropFn != nil {
		panic("ib: a packet train reached a port with a queue bound or a drop function")
	}
	const wire = HeaderRC + MTU
	tr.book(p.busyUntil, serialization(wire, l.rate))
	p.busyUntil = tr.at(tr.m - 1)
	p.ctr.XmitData += int64(tr.m) * wire
	p.ctr.XmitPkts += int64(tr.m)
	tr.shift(l.prop + p.peer.stage)
}

// exclusiveTo reports whether the route from p toward dst is exclusive: no
// port on it looks at packets one by one, and none books anything else
// between a train's first body packet and its last. A train then crosses it
// as its last packet's events alone (see train). That needs a fabric with no
// observer and no health monitor, links with no drop function and no queue
// bound, switches of two ports — a switch's egress is then fed by its other
// port alone, in FIFO order — and at most maxTrainTerms distinct link rates.
func (p *Port) exclusiveTo(dst LID) bool {
	f := p.dev.fabric()
	if f.obs != nil || f.health != nil {
		return false
	}
	var rates [maxTrainTerms]Rate
	nr := 0
	for range f.devices {
		l := p.link
		if l.DropFn != nil || l.qcfg != nil {
			return false
		}
		if !slices.Contains(rates[:nr], l.rate) {
			if nr == len(rates) {
				return false
			}
			rates[nr] = l.rate
			nr++
		}
		sw, ok := p.peer.dev.(*Switch)
		if !ok {
			return p.peer.dev.LID() == dst
		}
		if len(sw.plist) != 2 {
			return false
		}
		if p = sw.routeTo(dst); p == nil {
			return false
		}
	}
	return false
}

// grantCredits is the lossless credit wake-up of port v, run at a departure
// while packets wait: it sends, in arrival order, the ones that now fit, and
// stands again at the next departure if some still wait.
func grantCredits(v any) {
	p := v.(*Port)
	q, now := p.cong, p.env.Now()
	q.retire(now)
	// The line steps aside while its head is sent: send sees an arrival with
	// nobody ahead of it and room in the queue, so it cannot stall again.
	line := q.waitq
	q.waitq = sim.Ring[*packet]{}
	for line.Len() > 0 && !q.full((*line.Front()).wire, p.link.qcfg.QueueBytes) {
		p.send(line.Pop())
	}
	q.waitq = line
	if line.Len() > 0 {
		q.credit.Reset(q.booked.Front().depart - now)
	}
}

// Switch is an IB switch (or, with a larger forwarding delay, an Obsidian
// Longbow WAN extender operating in switch mode).
type Switch struct {
	fab    *Fabric
	pool   *pool
	name   string
	lid    LID
	fwd    sim.Time
	plist  []*Port
	routes []*Port // egress port by destination LID; nil where unreachable
	// deliver is receive as a func(any), made once for all the switch's
	// ports: a packet in transit does not name the switch it reaches.
	deliver func(any)
	// noRoute counts packets discarded for lack of a route, on the switch's
	// own environment (see Fabric.NoRouteDrops).
	noRoute int64
	wire    track // the switch's telemetry "wire" track (obs.go)
}

// Name returns the switch name.
func (s *Switch) Name() string { return s.name }

// LID returns the switch's local identifier.
func (s *Switch) LID() LID { return s.lid }

func (s *Switch) ports() []*Port          { return s.plist }
func (s *Switch) attach(p *Port)          { s.plist = append(s.plist, p) }
func (s *Switch) setLID(l LID)            { s.lid = l }
func (s *Switch) setRoute(d LID, p *Port) { s.routes[d] = p }
func (s *Switch) fabric() *Fabric         { return s.fab }
func (s *Switch) home() *pool             { return s.pool }
func (s *Switch) wireTrack() *track       { return &s.wire }
func (s *Switch) stage() sim.Time         { return s.fwd }
func (s *Switch) ingress() func(any)      { return s.deliver }

func (s *Switch) routeTo(dst LID) *Port {
	if int(dst) >= len(s.routes) {
		return nil // a LID assigned after the last sweep
	}
	return s.routes[dst]
}

func (s *Switch) resetRoutes(n int) {
	if cap(s.routes) < n {
		s.routes = make([]*Port, n)
		return
	}
	s.routes = s.routes[:n]
	clear(s.routes)
}

func (s *Switch) receive(pkt *packet) {
	out := s.routeTo(pkt.dst)
	if out == nil {
		// No route in the current epoch: a failover transition window or a
		// true partition. The switch discards the packet, as an IB switch
		// does; the sender is not told and fails, as on any loss, when its
		// retry budget runs out.
		s.fab.discard(discardNoRoute, &s.noRoute, s, pkt)
		s.pool.freePacket(pkt)
		return
	}
	out.send(pkt)
}
