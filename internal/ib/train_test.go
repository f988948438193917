package ib

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/sim"
)

// TestTrainBodyMatchesLindley checks the closed form a port books a train's
// body with against the port's per-packet recurrence. Body packet i reaches
// the port at a random max of affine terms — the launch's single flat term,
// or terms whose slopes are the serialization times of up to four distinct
// rates, as a route's earlier ports leave them — and the port, busy until a
// random instant, serializes each at a rate among the route's. Packet by
// packet it departs at d_i = max(a_i, d_{i-1}) + s; sendBody must leave every
// d_i, shifted by the link delay and the far device's stage, as the train's
// arrivals at the next hop, the last as the port's busy horizon, and the
// body's bytes and packets in its counters.
func TestTrainBodyMatchesLindley(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pool := []Rate{SDR, DDR, QDR, 1.7e9, 0.37e9, 3.3e9, 123456789}
	const wire = HeaderRC + MTU
	for c := 0; c < 400; c++ {
		route := rng.Perm(len(pool))[:maxTrainTerms]
		rate := pool[route[rng.Intn(len(route))]]
		env := sim.NewEnv()
		f := NewFabric(env)
		prop := sim.Time(rng.Intn(100_000))
		p := &f.Connect(f.AddHCA("a"), f.AddHCA("b"), rate, prop).a

		m := 1 + rng.Intn(2047)
		base := sim.Time(rng.Int63n(1 << 40))
		tr := train{m: m}
		if rng.Intn(4) == 0 {
			tr.n, tr.alpha[0] = 1, base // the launch: the whole body at once
		} else {
			for _, j := range route[:1+rng.Intn(len(route))] {
				tr.alpha[tr.n] = base + sim.Time(rng.Int63n(int64(m)*3000))
				tr.beta[tr.n] = serialization(wire, pool[j])
				tr.n++
			}
		}
		in := tr
		busy := base + sim.Time(rng.Int63n(int64(m)*4000)) - sim.Time(m)*2000
		p.busyUntil = busy

		s := serialization(wire, rate)
		depart := make([]sim.Time, m)
		d := busy
		for i := range depart {
			a := in.alpha[0] + sim.Time(i)*in.beta[0]
			for k := 1; k < in.n; k++ {
				a = max(a, in.alpha[k]+sim.Time(i)*in.beta[k])
			}
			d = max(a, d) + s
			depart[i] = d
		}
		p.sendBody(&tr)

		for i, d := range depart {
			if got, want := tr.at(i), d+prop+PacketProc; got != want {
				t.Fatalf("case %d (m=%d, rate %v, busy %d, arrivals %+v): body packet %d reaches the next hop at %d, per packet %d",
					c, m, rate, busy, in, i, got, want)
			}
		}
		if p.busyUntil != depart[m-1] {
			t.Fatalf("case %d: the port is busy until %d after the body, per packet %d", c, p.busyUntil, depart[m-1])
		}
		if p.ctr.XmitData != int64(m)*wire || p.ctr.XmitPkts != int64(m) {
			t.Fatalf("case %d: the body counted %d bytes in %d packets, want %d in %d", c, p.ctr.XmitData, p.ctr.XmitPkts, m*wire, m)
		}
	}
}

// trainWorld is a world of the train differential test: the HCA pairs that
// carry traffic and every link, the first of them the one the per-packet
// reference hangs a drop function on.
type trainWorld struct {
	env   *sim.Env
	pairs [][2]*HCA
	links []*Link
}

// newTrainWorld builds, from rng, a — b over an exclusive path of the given
// number of links (two-port switches, rates from four, random delays), or,
// for links == 0, two senders merging into b through one three-port switch.
func newTrainWorld(rng *rand.Rand, links int) *trainWorld {
	env := sim.NewEnv()
	f := NewFabric(env)
	w := &trainWorld{env: env}
	rates := []Rate{SDR, DDR, QDR, 1.7e9}
	connect := func(x, y Device) {
		l := f.Connect(x, y, rates[rng.Intn(len(rates))], sim.Time(rng.Intn(200_000)))
		w.links = append(w.links, l)
	}
	b := f.AddHCA("b")
	if links == 0 {
		sw := f.AddSwitch("sw", SwitchDelay)
		for _, name := range []string{"a1", "a2"} {
			a := f.AddHCA(name)
			connect(a, sw)
			w.pairs = append(w.pairs, [2]*HCA{a, b})
		}
		connect(sw, b)
	} else {
		prev := Device(f.AddHCA("a"))
		w.pairs = append(w.pairs, [2]*HCA{prev.(*HCA), b})
		for i := 1; i < links; i++ {
			sw := f.AddSwitch(fmt.Sprint("s", i), sim.Time(rng.Intn(3000)))
			connect(prev, sw)
			prev = sw
		}
		connect(prev, b)
	}
	f.Finalize()
	return w
}

// trainOp is one posted work request of a differential program.
type trainOp struct {
	at       sim.Time
	pair, qp int
	reverse  bool // posted by the pair's second HCA
	op       Opcode
	notify   bool
	size     int
}

// trainProgram draws a program: QPs per pair with their windows, and the
// work requests. Every program moves at least one multi-packet message.
func trainProgram(rng *rand.Rand, pairs int) (qps [][]int, ops []trainOp) {
	windows := []int{1, 2, 4, 8}
	for range pairs {
		var ws []int
		for range 1 + rng.Intn(3) {
			ws = append(ws, windows[rng.Intn(len(windows))])
		}
		qps = append(qps, ws)
	}
	size := func() int {
		switch rng.Intn(7) {
		case 0:
			return 1 + rng.Intn(MTU)
		case 1:
			return (1 + rng.Intn(40)) * MTU
		case 2:
			return (1+rng.Intn(40))*MTU + 1
		case 3:
			return MTU + 1
		case 4:
			if rng.Intn(4) == 0 {
				return 1<<20 + rng.Intn(3<<20+1) // up to 4 MB
			}
			fallthrough
		default:
			return 1 + rng.Intn(64<<10)
		}
	}
	kinds := []Opcode{OpSend, OpRDMAWrite, OpRDMARead}
	for i, n := 0, 12+rng.Intn(20); i < n; i++ {
		o := trainOp{
			at:   sim.Time(rng.Int63n(int64(2 * sim.Millisecond))),
			pair: rng.Intn(pairs), reverse: rng.Intn(2) == 0,
			op: kinds[rng.Intn(len(kinds))], notify: rng.Intn(2) == 0, size: size(),
		}
		o.qp = rng.Intn(len(qps[o.pair]))
		if i == 0 {
			o.size = 5*MTU + 1
		}
		ops = append(ops, o)
	}
	return qps, ops
}

// trainOutcome is everything a differential run must reproduce, and the
// events it took.
type trainOutcome struct {
	log        []string
	stats      []Stats
	portTx     []int64
	linkTx     []int64
	sliceNow   []sim.Time
	sliceTx    []int64
	now        sim.Time
	executed   int64
	multiCount int
}

// runTrainProgram builds the world for seed and runs its program, cut into
// RunUntil slices. perPacket hangs a never-dropping DropFn on the first link,
// which keeps every message off the train path and changes nothing else.
func runTrainProgram(seed int64, links int, perPacket bool) trainOutcome {
	rng := rand.New(rand.NewSource(seed))
	w := newTrainWorld(rng, links)
	if perPacket {
		w.links[0].DropFn = func(sim.Time, Crossing) bool { return false }
	}
	qpCfg, ops := trainProgram(rng, len(w.pairs))
	env := w.env
	var out trainOutcome
	type rcPair struct{ q [2]*QP }
	qps := make([][]rcPair, len(w.pairs))
	mrs := make([][2]*MR, len(w.pairs))
	for i, hp := range w.pairs {
		for _, win := range qpCfg[i] {
			var p rcPair
			p.q[0], p.q[1] = CreateRCPair(hp[0], hp[1], nil, nil, QPConfig{MaxInflight: win})
			for _, q := range p.q {
				q.CQ().SetHandler(func(c Completion) {
					out.log = append(out.log, fmt.Sprintf("%d qp%d %v %v %d ctx%v src%d meta%v", env.Now(), c.QPN, c.Op, c.Status, c.Bytes, c.Ctx, c.SrcQPN, c.Meta))
				})
			}
			qps[i] = append(qps[i], p)
		}
		mrs[i] = [2]*MR{hp[0].RegisterVirtualMR(4 << 20), hp[1].RegisterVirtualMR(4 << 20)}
	}
	for i, o := range ops {
		side := 0
		if o.reverse {
			side = 1
		}
		from, to := qps[o.pair][o.qp].q[side], qps[o.pair][o.qp].q[1-side]
		remote := mrs[o.pair][1-side]
		if o.size > MTU {
			out.multiCount++
		}
		env.At(o.at, func() {
			wr := SendWR{Op: o.op, Len: o.size, Ctx: i}
			switch o.op {
			case OpSend:
				to.PostRecv(RecvWR{Ctx: i})
			case OpRDMAWrite:
				wr.RemoteMR, wr.NotifyRemote = remote, o.notify
				if o.notify {
					wr.Meta = i
				}
			case OpRDMARead:
				wr.RemoteMR = remote
			}
			from.PostSend(wr)
		})
	}
	txTotal := func() (n int64) {
		for _, l := range w.links {
			n += l.Counters().XmitData
		}
		return n
	}
	cuts := make([]sim.Time, 30)
	for i := range cuts {
		cuts[i] = sim.Time(rng.Int63n(int64(40 * sim.Millisecond)))
	}
	slices.Sort(cuts)
	for _, cut := range cuts {
		env.RunUntil(cut)
		out.sliceNow = append(out.sliceNow, env.Now())
		out.sliceTx = append(out.sliceTx, txTotal())
	}
	out.now = env.Run()
	out.executed = env.Executed()
	for _, pqs := range qps {
		for _, p := range pqs {
			out.stats = append(out.stats, p.q[0].Stats(), p.q[1].Stats())
		}
	}
	for _, l := range w.links {
		out.portTx = append(out.portTx, l.a.Counters().XmitData, l.b.Counters().XmitData)
		out.linkTx = append(out.linkTx, l.Counters().XmitData)
	}
	return out
}

// TestTrainsMatchPackets is the whole-stack differential test of packet
// trains. Forty seeded programs on exclusive paths of one and of five links
// (random rates and delays) post RC sends, RDMA writes with and without a
// remote notification and RDMA reads, both ways, on one to three QPs of
// different windows, at sizes from 1 B to 4 MB — MTU multiples and one byte
// past them included — and run in RunUntil slices, many of which end while a
// train is on the wire. Each program runs as it is and again with a
// never-dropping drop function on the first link, which sends every message
// packet by packet. The two runs must log the same completions at the same
// instants, end with the same QP counters, port and link byte counts and
// clock, and the plain run must execute fewer events. On a world where two
// senders merge through a three-port switch nothing may take a train: there
// both runs execute the same number of events.
func TestTrainsMatchPackets(t *testing.T) {
	var midTrain int
	check := func(t *testing.T, seed int64, links int) {
		plain, ref := runTrainProgram(seed, links, false), runTrainProgram(seed, links, true)
		if !slices.Equal(plain.log, ref.log) {
			for i := range min(len(plain.log), len(ref.log)) {
				if plain.log[i] != ref.log[i] {
					t.Fatalf("completion %d of %d: %q, packet by packet %q", i, len(ref.log), plain.log[i], ref.log[i])
				}
			}
			t.Fatalf("%d completions, packet by packet %d", len(plain.log), len(ref.log))
		}
		if !slices.Equal(plain.stats, ref.stats) {
			t.Errorf("QP stats %+v, packet by packet %+v", plain.stats, ref.stats)
		}
		if !slices.Equal(plain.portTx, ref.portTx) || !slices.Equal(plain.linkTx, ref.linkTx) {
			t.Errorf("port bytes %v and link bytes %v, packet by packet %v and %v", plain.portTx, plain.linkTx, ref.portTx, ref.linkTx)
		}
		if plain.now != ref.now || !slices.Equal(plain.sliceNow, ref.sliceNow) {
			t.Errorf("clock %d at the end and %v at the cuts, packet by packet %d and %v", plain.now, plain.sliceNow, ref.now, ref.sliceNow)
		}
		for i := range plain.sliceTx {
			if plain.sliceTx[i] != ref.sliceTx[i] {
				midTrain++
			}
		}
		switch {
		case links == 0 && plain.executed != ref.executed:
			t.Errorf("merge world: %d events, packet by packet %d; a three-port switch took a train", plain.executed, ref.executed)
		case links > 0 && plain.executed >= ref.executed:
			t.Errorf("%d events, packet by packet %d; no train was taken (%d multi-packet messages)", plain.executed, ref.executed, plain.multiCount)
		}
		t.Logf("%d completions, %d events, packet by packet %d", len(plain.log), plain.executed, ref.executed)
	}
	for seed := int64(1); seed <= 40; seed++ {
		links := 1 + 4*int(seed%2)
		t.Run(fmt.Sprintf("seed%d/links%d", seed, links), func(t *testing.T) { check(t, seed, links) })
	}
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed%d/merge", seed), func(t *testing.T) { check(t, seed, 0) })
	}
	if midTrain == 0 {
		t.Errorf("no RunUntil slice ended while a train was on the wire")
	}
}
