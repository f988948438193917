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
// switch – host.
func stagedPath(links int) (*sim.Env, *HCA, *HCA) {
	env := sim.NewEnv()
	f := NewFabric(env)
	a, b := f.AddHCA("a"), f.AddHCA("b")
	if links == 1 {
		f.Connect(a, b, DDR, DefaultCableDelay)
	} else {
		swA, swB := f.AddSwitch("swA", SwitchDelay), f.AddSwitch("swB", SwitchDelay)
		lbA, lbB := f.AddSwitch("lbA", 2500*sim.Nanosecond), f.AddSwitch("lbB", 2500*sim.Nanosecond)
		f.Connect(a, swA, DDR, DefaultCableDelay)
		f.Connect(swA, lbA, DDR, DefaultCableDelay)
		f.Connect(lbA, lbB, SDR, 100*sim.Microsecond)
		f.Connect(lbB, swB, DDR, DefaultCableDelay)
		f.Connect(swB, b, DDR, DefaultCableDelay)
	}
	f.Finalize()
	return env, a, b
}

// TestOneEventPerLinkCrossing pins the cost of a link crossing at one kernel
// event. Nothing polls, so what a stream executes is its per-message protocol
// stages plus its packets' crossings. RC: a message grown by one MTU is one
// more packet and nothing else, so it costs exactly one event per link. UD:
// one more datagram also runs its send and receive stages, the same on any
// path, so it costs exactly four more over five links than over one. An event
// for the device's ingress stage beside the wire's would double both.
func TestOneEventPerLinkCrossing(t *testing.T) {
	const msgs = 8
	rc := func(links, pkts int) int64 {
		env, a, b := stagedPath(links)
		qa, qb := CreateRCPair(a, b, nil, nil, QPConfig{})
		for i := 0; i < msgs; i++ {
			qb.PostRecv(RecvWR{})
			qa.PostSend(SendWR{Op: OpSend, Len: pkts * MTU})
		}
		env.Run()
		if got := qb.Stats().MsgsRecv; got != msgs {
			t.Fatalf("RC over %d links: %d of %d messages arrived", links, got, msgs)
		}
		return env.Executed()
	}
	ud := func(links, n int) int64 {
		env, a, b := stagedPath(links)
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
		if got, want := rc(links, 4)-rc(links, 3), int64(msgs*links); got != want {
			t.Errorf("RC over %d links: one more packet in each of %d messages costs %d events, want %d", links, msgs, got, want)
		}
	}
	perDatagram := func(links int) int64 { return ud(links, msgs+1) - ud(links, msgs) }
	if got := perDatagram(5) - perDatagram(1); got != 4 {
		t.Errorf("UD: one more datagram costs %d more events over 5 links than over 1, want 4", got)
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
	link       *Link
	rate       [2]Rate     // before and from rateAt on
	prop       [2]sim.Time // before and from propAt on
	rateAt     sim.Time
	propAt     sim.Time
	drop       func(now sim.Time, wire int) bool
	queueBytes int      // lossless bound, 0 for an unbounded port
	stage      sim.Time // the far device's constant ingress latency
	overtaken  bool     // set by run
}

// step picks the value a mid-run change left in force at the instant now.
func step[T any](v [2]T, changeAt, now sim.Time) T {
	if now >= changeAt {
		return v[1]
	}
	return v[0]
}

// run is the recurrence: packets taken in (at, ord) order, each transmitted
// at the instant it was handed over — or, on a lossless bounded port, at the
// first departure after which it fits behind its predecessors — starting when
// the port is free, with the rate, delay and drop decision of that instant.
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
		if m.queueBytes > 0 {
			now = max(now, prev)
			for {
				for len(queue) > 0 && queue[0].depart <= now {
					depth -= queue[0].wire
					queue = queue[1:]
				}
				if depth == 0 || depth+pk.wire <= m.queueBytes {
					break
				}
				now = queue[0].depart
			}
			prev = now
		}
		depart := max(busy, now) + wireTime(pk.wire, step(m.rate, m.rateAt, now))
		busy = depart
		if m.queueBytes > 0 {
			depth += pk.wire
			queue = append(queue, booked{depart, pk.wire})
		}
		tx = append(tx, stamp{pk.id, now})
		if m.drop != nil && m.drop(now, pk.wire) {
			dropped = append(dropped, stamp{pk.id, now})
			continue
		}
		out = append(out, hopPkt{pk.id, pk.wire, depart + step(m.prop, m.propAt, now) + m.stage, len(tx)})
	}
	if !slices.IsSortedFunc(out, func(x, y hopPkt) int { return int(x.at - y.at) }) {
		m.overtaken = true // a delay cut mid-run let a packet pass another on the wire
	}
	return tx, dropped, out
}

// stageCoverage counts, over all seeds, the situations the recurrence test
// exists for; a seed sweep that stopped producing one would pass vacuously.
type stageCoverage struct {
	stalls, drops, mergeTies, overtakes int64
}

// TestIngressStageMatchesRecurrence checks the fused wire + stage event
// against a per-hop recurrence the test computes for itself. Two hosts send
// raw datagrams through one switch port into a chain of 1-4 switches with
// different forwarding delays and link rates, unbounded or lossless-bounded
// egress queues, one link changing rate and one changing delay mid-run, one
// dropping by a pure function of time. Every device's wire instants — each
// transmission, each drop, the receiver's arrival and its delivery one
// PacketProc later — must be the model's, instant for instant and in order:
// on the shared port that order is (arrival, sequence).
func TestIngressStageMatchesRecurrence(t *testing.T) {
	var cov stageCoverage
	for seed := int64(1); seed <= 60; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) { stageRecurrenceCase(t, seed, &cov) })
	}
	if cov.stalls == 0 || cov.drops == 0 || cov.mergeTies == 0 || cov.overtakes == 0 {
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
	model := func(l *Link, far Device) *portModel {
		never := sim.Time(1 << 62)
		return &portModel{link: l, rate: [2]Rate{l.Rate(), l.Rate()}, prop: [2]sim.Time{l.Delay(), l.Delay()},
			rateAt: never, propAt: never, stage: far.stage()}
	}
	var access, chain []*portModel
	for i, a := range senders {
		rate, prop := pick()
		if twins && i == 1 {
			rate, prop = access[0].rate[0], access[0].prop[0]
		}
		access = append(access, model(f.Connect(a, switches[0], rate, prop), switches[0]))
	}
	for i, s := range switches {
		var far Device = b
		if i+1 < len(switches) {
			far = switches[i+1]
		}
		rate, prop := pick()
		chain = append(chain, model(f.Connect(s, far, rate, prop), far))
	}
	f.Finalize()
	// The changing links are among the unbounded ones, the access links at
	// least; every other chain port is lossless-bounded to a few packets.
	free := slices.Clone(access)
	for _, m := range chain {
		if rng.Intn(2) == 0 {
			free = append(free, m)
			continue
		}
		m.queueBytes = 300 + rng.Intn(6000)
		if err := m.link.ConfigureQueue(QueueConfig{QueueBytes: m.queueBytes, Lossless: true}); err != nil {
			t.Fatal(err)
		}
	}
	const span = 60 * sim.Microsecond // the injection window
	retune := func() (*portModel, sim.Time) { return free[rng.Intn(len(free))], sim.Time(rng.Int63n(int64(span))) }
	// Scheduled before any packet, so a packet transmitted in the very
	// nanosecond of a change sees the new value.
	rated, at := retune()
	rated.rate[1], rated.rateAt = rates[rng.Intn(len(rates))], at
	env.At(at, func() { rated.link.SetRate(rated.rate[1]) })
	delayed, at := retune()
	delayed.prop[1], delayed.propAt = sim.Time(rng.Intn(4000)), at
	if rng.Intn(2) == 0 {
		delayed.prop[1] = delayed.prop[0] / 8 // a cut deep enough to reorder the wire
	}
	env.At(at, func() { delayed.link.SetDelay(delayed.prop[1]) })
	lossy, _ := retune()
	salt := sim.Time(rng.Intn(1000))
	lossy.drop = func(now sim.Time, wire int) bool { return (now/64+salt+sim.Time(wire))%9 == 0 }
	lossy.link.DropFn = lossy.drop

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
			a.route.send(a.pool.newPacket(packet{src: a.lid, dst: b.lid, dstQP: qb.qpn,
				kind: pktData, wire: in.wire, msg: msg, last: true, ud: true}))
		})
	}
	env.Run()
	env.Shutdown()

	// The model, hop by hop, and what each device must have logged.
	type logged struct{ name, reason string }
	want := map[string]map[logged][]stamp{}
	expect := func(dev Device, tx, dropped []stamp) {
		want[dev.Name()] = map[logged][]stamp{{"tx ud", ""}: tx, {"drop ud", "fault"}: dropped}
		cov.drops += int64(len(dropped))
	}
	var merged []hopPkt
	for i, m := range access {
		tx, dropped, out := m.run(handed[i])
		expect(senders[i], tx, dropped)
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
	for i, m := range chain {
		tx, dropped, out := m.run(merged)
		expect(switches[i], tx, dropped)
		merged = out
		cov.stalls += m.link.CreditStalls()
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
	for _, m := range append(access, chain...) {
		if m.overtaken {
			cov.overtakes++
		}
	}
	if n := qb.Stats().RecvDrops; n != int64(len(deliveries)) {
		t.Errorf("b consumed %d packets, the model delivers %d", n, len(deliveries))
	}
}
