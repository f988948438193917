package ib

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/sim"
	"repro/internal/telemetry"
)

// stagedPath builds a — b over the given number of links: back to back for
// one, and for five the paper's host – switch – Longbow – WAN – Longbow –
// switch – host. It returns the slowest link — the WAN hop, where there is
// one — with its egress queues bounded by wanQueue unless that is nil. The
// route is exclusive unless perPacket, which gives every switch an idle third
// port and a switchless link a drop function that never drops: a message then
// crosses packet by packet instead of as a train.
func stagedPath(links int, wanQueue *QueueConfig, perPacket bool) (*sim.Env, *HCA, *HCA, *Link) {
	env := sim.NewEnv()
	f := NewFabric(env)
	a, b := f.AddHCA("a"), f.AddHCA("b")
	var wan *Link
	if links == 1 {
		wan = f.Connect(a, b, DDR, DefaultCableDelay)
		if perPacket {
			wan.DropFn = func(sim.Time, Crossing) bool { return false }
		}
	} else {
		swA, swB := f.AddSwitch("swA", SwitchDelay), f.AddSwitch("swB", SwitchDelay)
		lbA, lbB := f.AddSwitch("lbA", 2500*sim.Nanosecond), f.AddSwitch("lbB", 2500*sim.Nanosecond)
		f.Connect(a, swA, DDR, DefaultCableDelay)
		f.Connect(swA, lbA, DDR, DefaultCableDelay)
		wan = f.Connect(lbA, lbB, SDR, 100*sim.Microsecond)
		f.Connect(lbB, swB, DDR, DefaultCableDelay)
		f.Connect(swB, b, DDR, DefaultCableDelay)
		if perPacket {
			for _, sw := range []*Switch{swA, lbA, lbB, swB} {
				f.Connect(sw, f.AddHCA("idle-"+sw.name), DDR, DefaultCableDelay)
			}
		}
	}
	f.Finalize()
	if wanQueue != nil {
		if err := wan.ConfigureQueue(*wanQueue); err != nil {
			panic(err)
		}
	}
	return env, a, b, wan
}

// TestOneEventPerLinkCrossing pins the cost of a link crossing at one kernel
// event. Nothing polls, so what a stream executes is its per-message protocol
// stages plus its packets' crossings. RC: a message grown by one MTU is one
// more packet and nothing else, so where it crosses packet by packet it
// costs exactly one event per link, and on an exclusive route, where its
// packets cross as one train, none at all. UD: one more datagram also runs
// its send and receive stages, the same on any path, so it costs exactly four
// more over five links than over one. An event for the device's ingress stage
// beside the wire's would double both. A bound on the WAN hop's queues that
// holds no packet back costs no event of its own: the queue retires departed
// bytes at the next admission and schedules nothing but lossless wake-ups,
// so every stream executes exactly what it does packet by packet unbounded —
// a drain event per admission would add one per packet (and per ack, on the
// way back).
func TestOneEventPerLinkCrossing(t *testing.T) {
	const msgs = 8
	rc := func(links, pkts int, wanQueue *QueueConfig, perPacket bool) int64 {
		env, a, b, wan := stagedPath(links, wanQueue, perPacket)
		qa, qb := CreateRCPair(a, b, nil, nil, QPConfig{})
		for i := 0; i < msgs; i++ {
			qb.PostRecv(RecvWR{})
			qa.PostSend(SendWR{Op: OpSend, Len: pkts * MTU})
		}
		env.Run()
		if got := qb.Stats().MsgsRecv; got != msgs {
			t.Fatalf("RC over %d links: %d of %d messages arrived", links, got, msgs)
		}
		if c := wan.Counters(); c.XmitDiscards+c.XmitWait != 0 {
			t.Fatalf("RC over %d links: the bound %+v held %d packets back", links, wanQueue, c.XmitDiscards+c.XmitWait)
		}
		if wanQueue != nil && wanQueue.ECN && links == 1 && wan.Counters().ECNMarks == 0 {
			t.Fatalf("RC back to back: the bound %+v marked nothing", wanQueue)
		}
		return env.Executed()
	}
	ud := func(links, n int, wanQueue *QueueConfig) int64 {
		env, a, b, _ := stagedPath(links, wanQueue, false)
		qa := a.CreateQP(NewCQ(env), QPConfig{Transport: UD})
		qb := b.CreateQP(NewCQ(env), QPConfig{Transport: UD})
		for i := 0; i < n; i++ {
			qb.PostRecv(RecvWR{})
			qa.PostSend(SendWR{Op: OpSend, Len: MaxUDPayload, DestLID: b.LID(), DestQPN: qb.QPN()})
		}
		env.Run()
		if got := qb.Stats().MsgsRecv; got != int64(n) {
			t.Fatalf("UD over %d links: %d of %d datagrams arrived", links, got, n)
		}
		return env.Executed()
	}
	for _, links := range []int{1, 5} {
		if got := rc(links, 4, nil, false) - rc(links, 3, nil, false); got != 0 {
			t.Errorf("RC over %d exclusive links: one more packet in each of %d messages costs %d events, want 0", links, msgs, got)
		}
		if got, want := rc(links, 4, nil, true)-rc(links, 3, nil, true), int64(msgs*links); got != want {
			t.Errorf("RC over %d links packet by packet: one more packet in each of %d messages costs %d events, want %d", links, msgs, got, want)
		}
	}
	perDatagram := func(links int) int64 { return ud(links, msgs+1, nil) - ud(links, msgs, nil) }
	if got := perDatagram(5) - perDatagram(1); got != 4 {
		t.Errorf("UD: one more datagram costs %d more events over 5 links than over 1, want 4", got)
	}
	// The whole RC burst is 8 x 4 packets, 66 KB: it fits the bounds below,
	// and back to back, where it all queues on the sender's own port, it
	// crosses the 36 KB ECN mark.
	for _, bound := range []QueueConfig{
		{QueueBytes: 1 << 20},
		{QueueBytes: 72 << 10, ECN: true},
		{QueueBytes: 1 << 20, Lossless: true},
	} {
		for _, links := range []int{1, 5} {
			if got, want := rc(links, 4, &bound, false), rc(links, 4, nil, true); got != want {
				t.Errorf("RC over %d links, WAN hop bounded %+v: %d events, unbounded packet by packet %d", links, bound, got, want)
			}
			if got, want := ud(links, msgs, &bound), ud(links, msgs, nil); got != want {
				t.Errorf("UD over %d links, WAN hop bounded %+v: %d events, unbounded %d", links, bound, got, want)
			}
		}
	}
}

// wireTime is the tests' own serialization term: wire bytes at rate r.
func wireTime(wire int, r Rate) sim.Time { return sim.Time(float64(wire) / float64(r) * 1e9) }

// hopPkt is a packet handed to a modelled port: at the instant at, and —
// where instants tie — after every packet of lower ord.
type hopPkt struct {
	id   int64
	wire int
	at   sim.Time
	ord  int
}

// stamp is what a wire instant says of a packet: which, and when.
type stamp struct {
	id int64
	at sim.Time
}

// portModel is the test's own model of one egress port and of the ingress
// stage of the device behind it.
type portModel struct {
	link  *Link
	rate  Rate
	prop  sim.Time
	drop  func(now sim.Time, wire int) bool
	queue QueueConfig // the zero value for an unbounded port
	stage sim.Time    // the far device's constant ingress latency
	// What run found: packets tail-dropped at the full queue, the ids of the
	// ones CE-marked, and packets handed over in the very nanosecond a queued
	// one departed.
	overflowed []stamp
	marked     []int64
	departTies int64
}

// run is the recurrence: packets taken in (at, ord) order, each transmitted
// at the instant it was handed over — or, on a lossless bounded port, at the
// first departure after which it fits behind its predecessors — starting when
// the port is free, at the link's rate and delay, with the drop decision of
// that instant.
// A bounded port holds a packet's bytes until the instant its last bit
// leaves, that instant excluded; one that is not lossless drops what does not
// fit, and an ECN one marks what it admits on top of half the bound or more.
// It returns every transmission, the ones dropped on the wire, and the
// survivors as they leave the far device's ingress stage.
func (m *portModel) run(in []hopPkt) (tx, dropped []stamp, out []hopPkt) {
	slices.SortStableFunc(in, func(x, y hopPkt) int {
		if x.at != y.at {
			return int(x.at - y.at)
		}
		return x.ord - y.ord
	})
	type booked struct {
		depart sim.Time
		wire   int
	}
	var (
		busy, prev sim.Time
		queue      []booked
		depth      int
	)
	for _, pk := range in {
		now := pk.at
		if bound := m.queue.QueueBytes; bound > 0 {
			if m.queue.Lossless {
				now = max(now, prev)
			}
			fits := false
			for {
				for len(queue) > 0 && queue[0].depart <= now {
					if queue[0].depart == pk.at {
						m.departTies++
					}
					depth -= queue[0].wire
					queue = queue[1:]
				}
				fits = depth == 0 || depth+pk.wire <= bound
				if fits || !m.queue.Lossless {
					break
				}
				now = queue[0].depart
			}
			if !fits {
				m.overflowed = append(m.overflowed, stamp{pk.id, now})
				continue
			}
			prev = now
			if m.queue.ECN && depth >= max(bound/2, 1) {
				m.marked = append(m.marked, pk.id)
			}
		}
		depart := max(busy, now) + wireTime(pk.wire, m.rate)
		busy = depart
		if m.queue.QueueBytes > 0 {
			depth += pk.wire
			queue = append(queue, booked{depart, pk.wire})
		}
		tx = append(tx, stamp{pk.id, now})
		if m.drop != nil && m.drop(now, pk.wire) {
			dropped = append(dropped, stamp{pk.id, now})
			continue
		}
		out = append(out, hopPkt{pk.id, pk.wire, depart + m.prop + m.stage, len(tx)})
	}
	return tx, dropped, out
}

// stageCoverage counts, over all seeds, the situations the recurrence test
// exists for; a seed sweep that stopped producing one would pass vacuously.
type stageCoverage struct {
	stalls, drops, mergeTies     int64
	marks, overflows, departTies int64
}

// TestIngressStageMatchesRecurrence checks the fused wire + stage event
// against a per-hop recurrence the test computes for itself. Two hosts send
// raw datagrams through one switch port into a chain of 1-4 switches with
// different forwarding delays and link rates, egress queues unbounded or
// bounded to a few packets (lossless, tail-drop or ECN), one dropping by a
// pure function of time. Every device's wire instants — each transmission,
// each drop on the wire or at a full queue, the receiver's arrival and its
// delivery one PacketProc later — must be the model's, instant for instant
// and in order:
// on the shared port that order is (arrival, sequence). So must the packets
// that reach each device CE-marked.
func TestIngressStageMatchesRecurrence(t *testing.T) {
	var cov stageCoverage
	for seed := int64(1); seed <= 60; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) { stageRecurrenceCase(t, seed, &cov) })
	}
	if cov.stalls == 0 || cov.drops == 0 || cov.mergeTies == 0 ||
		cov.marks == 0 || cov.overflows == 0 || cov.departTies == 0 {
		t.Errorf("seeds no longer cover the model: %+v", cov)
	}
}

func stageRecurrenceCase(t *testing.T, seed int64, cov *stageCoverage) {
	rng := rand.New(rand.NewSource(seed))
	env := sim.NewEnv()
	rec := telemetry.NewRecorder(0, 0)
	telemetry.Attach(env, &telemetry.Telemetry{Spans: rec})
	f := NewFabric(env)
	rates := []Rate{SDR, DDR, QDR, 1.7e9}
	pick := func() (Rate, sim.Time) { return rates[rng.Intn(len(rates))], sim.Time(rng.Intn(4000)) }

	// Devices: senders a0 and a1, switches s0.., receiver b. In every other
	// world the senders' links are twins and they inject in lockstep, so
	// their packets reach the shared port in the same nanosecond.
	twins := seed%2 == 0
	senders := []*HCA{f.AddHCA("a0"), f.AddHCA("a1")}
	b := f.AddHCA("b")
	switches := make([]*Switch, 1+rng.Intn(4))
	for i := range switches {
		switches[i] = f.AddSwitch(fmt.Sprint("s", i), sim.Time(rng.Intn(3000)))
	}
	connect := func(near, far Device, rate Rate, prop sim.Time) *portModel {
		return &portModel{link: f.Connect(near, far, rate, prop), rate: rate, prop: prop, stage: far.stage()}
	}
	var access, chain []*portModel
	for i, a := range senders {
		rate, prop := pick()
		if twins && i == 1 {
			rate, prop = access[0].rate, access[0].prop
		}
		access = append(access, connect(a, switches[0], rate, prop))
	}
	for i, s := range switches {
		var far Device = b
		if i+1 < len(switches) {
			far = switches[i+1]
		}
		rate, prop := pick()
		chain = append(chain, connect(s, far, rate, prop))
	}
	f.Finalize()
	// The lossy link is among the unbounded ones, the access links at least;
	// every other chain port is bounded to a few packets. ceAt[i] are
	// the ids of the packets the chain's i-th link delivers CE-marked.
	free := slices.Clone(access)
	ceAt := make([][]int64, len(chain))
	for i, m := range chain {
		far := &m.link.b
		deliver := far.deliverArg
		far.deliverArg = func(v any) {
			if pkt := v.(*packet); pkt.ecn {
				ceAt[i] = append(ceAt[i], pkt.msg.id)
			}
			deliver(v)
		}
		if rng.Intn(3) == 0 {
			free = append(free, m)
			continue
		}
		m.queue = QueueConfig{QueueBytes: 300 + rng.Intn(6000)}
		switch rng.Intn(3) {
		case 0:
			m.queue.Lossless = true
		case 1:
			m.queue.ECN = true
		}
		if err := m.link.ConfigureQueue(m.queue); err != nil {
			t.Fatal(err)
		}
	}
	const span = 60 * sim.Microsecond // the injection window
	lossy := free[rng.Intn(len(free))]
	salt := sim.Time(rng.Intn(1000))
	lossy.drop = func(now sim.Time, wire int) bool { return (now/64+salt+sim.Time(wire))%9 == 0 }
	lossy.link.DropFn = func(now sim.Time, c Crossing) bool { return lossy.drop(now, c.Wire) }

	// Traffic: datagrams for a QP on b with no receive posted, so each one's
	// life ends in a "no-recv" drop the instant b's ingress stage hands it
	// over. Injections are scheduled in time order: ids are execution order.
	qb := b.CreateQP(NewCQ(env), QPConfig{Transport: UD})
	type injection struct {
		from int
		at   sim.Time
		wire int
	}
	var plan []injection
	for i, n := 0, 40+rng.Intn(80); i < n; i++ {
		in := injection{rng.Intn(2), sim.Time(rng.Int63n(int64(span))), HeaderUD + rng.Intn(MTU+1)}
		if rng.Intn(3) == 0 && i > 0 {
			in.at = plan[i-1].at // a burst: back to back, or side by side
		}
		plan = append(plan, in)
		if twins {
			in.from = 1 - in.from
			plan = append(plan, in)
		}
	}
	slices.SortStableFunc(plan, func(x, y injection) int { return int(x.at - y.at) })
	handed := make([][]hopPkt, len(senders))
	for i, in := range plan {
		id := int64(i + 1)
		handed[in.from] = append(handed[in.from], hopPkt{id, in.wire, in.at, i})
		a := senders[in.from]
		env.At(in.at, func() {
			msg := &transfer{id: id}
			msg.ref()
			a.FabricPort().send(a.pool.newPacket(packet{src: a.lid, dst: b.lid, dstQP: int32(qb.qpn),
				kind: pktData, wire: in.wire, msg: msg, last: true, ud: true}))
		})
	}
	env.Run()
	env.Shutdown()

	// The model, hop by hop, and what each device must have logged.
	type logged struct{ name, reason string }
	want := map[string]map[logged][]stamp{}
	expect := func(dev Device, m *portModel, tx, dropped []stamp) {
		want[dev.Name()] = map[logged][]stamp{{"tx ud", ""}: tx, {"drop ud", "fault"}: dropped, {"drop ud", "overflow"}: m.overflowed}
		cov.drops += int64(len(dropped))
		cov.overflows += int64(len(m.overflowed))
		cov.marks += int64(len(m.marked))
		cov.departTies += m.departTies
		if got := m.link.Counters().ECNMarks; got != int64(len(m.marked)) {
			t.Errorf("%s marked %d packets, the model %d", dev.Name(), got, len(m.marked))
		}
	}
	var merged []hopPkt
	for i, m := range access {
		tx, dropped, out := m.run(handed[i])
		expect(senders[i], m, tx, dropped)
		for _, pk := range out {
			// The senders' ports transmit as injected, so across both of
			// them execution order is injection order.
			pk.ord = int(pk.id)
			merged = append(merged, pk)
		}
	}
	for i, x := range merged {
		for _, y := range merged[i+1:] {
			if x.at == y.at {
				cov.mergeTies++
			}
		}
	}
	ce := map[int64]bool{} // marked so far along the chain
	for i, m := range chain {
		tx, dropped, out := m.run(merged)
		expect(switches[i], m, tx, dropped)
		merged = out
		cov.stalls += m.link.Counters().XmitWait
		for _, id := range m.marked {
			ce[id] = true
		}
		var wantCE []int64
		for _, pk := range slices.SortedStableFunc(slices.Values(out), func(x, y hopPkt) int { return int(x.at - y.at) }) {
			if ce[pk.id] {
				wantCE = append(wantCE, pk.id)
			}
		}
		if err := sameOrder(wantCE, ceAt[i]); err != nil {
			t.Errorf("CE-marked packets leaving %s: %v", switches[i].Name(), err)
		}
	}
	slices.SortStableFunc(merged, func(x, y hopPkt) int { return int(x.at - y.at) })
	var arrivals, deliveries []stamp
	for _, pk := range merged {
		arrivals = append(arrivals, stamp{pk.id, pk.at - PacketProc})
		deliveries = append(deliveries, stamp{pk.id, pk.at})
	}
	want["b"] = map[logged][]stamp{{"rx ud", ""}: arrivals, {"drop ud", "no-recv"}: deliveries}

	got := map[string]map[logged][]stamp{}
	tracks := rec.Tracks()
	for _, in := range rec.Instants() {
		dev := tracks[in.Track][0]
		if got[dev] == nil {
			got[dev] = map[logged][]stamp{}
		}
		k := logged{in.Name, in.Reason}
		got[dev][k] = append(got[dev][k], stamp{in.Msg, in.Time})
	}
	for dev, streams := range want {
		for k, w := range streams {
			if err := sameOrder(w, got[dev][k]); err != nil {
				t.Errorf("%s %q %q: %v", dev, k.name, k.reason, err)
			}
			delete(got[dev], k)
		}
		for k, extra := range got[dev] {
			t.Errorf("%s logged %d unexpected %q %q instants", dev, len(extra), k.name, k.reason)
		}
	}
	if n := qb.Stats().RecvDrops; n != int64(len(deliveries)) {
		t.Errorf("b consumed %d packets, the model delivers %d", n, len(deliveries))
	}
}

// TestQueueDepthAtDepartureInstant pins the queue's tie rule: a packet whose
// last bit leaves at T is out of the queue at T. B is handed to a bounded
// port in the very nanosecond A departs, by an event scheduled once before
// A's admission and once after it. Either way B meets an empty queue: it is
// admitted with only its own bytes queued, where A's bytes beside them would
// have dropped, marked or stalled it. Bytes released by an event of their own
// would make the verdict depend on which of the two events was scheduled
// first.
func TestQueueDepthAtDepartureInstant(t *testing.T) {
	const wireA, wireB = 1500, 700
	const handA = 10 * sim.Microsecond
	for _, bound := range []QueueConfig{
		{QueueBytes: wireA + wireB - 1},
		{QueueBytes: 2 * wireA, ECN: true},
		{QueueBytes: wireA + wireB - 1, Lossless: true},
	} {
		for _, order := range []string{"B scheduled first", "A admitted first"} {
			env, a, b, link := stagedPath(1, &bound, false)
			var arrived []*packet
			link.b.deliverArg = func(v any) { arrived = append(arrived, v.(*packet)) }
			hand := func(wire int) {
				a.FabricPort().send(a.pool.newPacket(packet{src: a.lid, dst: b.lid, kind: pktData, wire: wire, ud: true}))
			}
			depth := -1
			handB := func() {
				hand(wireB)
				depth = a.FabricPort().cong.depth
			}
			departA := handA + wireTime(wireA, link.Rate())
			if order == "B scheduled first" {
				env.At(departA, handB)
			}
			env.At(handA, func() {
				hand(wireA)
				if order == "A admitted first" {
					env.At(departA-handA, handB)
				}
			})
			env.Run()
			if depth != wireB {
				t.Errorf("%+v, %s: B admitted with %d bytes queued, want its own %d", bound, order, depth, wireB)
			}
			if c := link.Counters(); c.XmitDiscards+c.ECNMarks+c.XmitWait != 0 || len(arrived) != 2 || arrived[1].ecn {
				t.Errorf("%+v, %s: %d drops, %d marks, %d stalls, %d packets arrived; want A and B, untouched",
					bound, order, c.XmitDiscards, c.ECNMarks, c.XmitWait, len(arrived))
			}
		}
	}
}
