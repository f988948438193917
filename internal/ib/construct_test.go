package ib

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/sim"
)

// TestConnectRejectsBadLink: a link's rate and delay are set once, by
// Connect, so Connect is where they are checked. A non-positive rate or a
// negative delay panics with an ib: message.
func TestConnectRejectsBadLink(t *testing.T) {
	for _, c := range []struct {
		rate Rate
		prop sim.Time
	}{{0, 0}, {-SDR, sim.Microsecond}, {SDR, -1}} {
		msg := func() (msg string) {
			defer func() { msg = fmt.Sprint(recover()) }()
			f := NewFabric(sim.NewEnv())
			f.Connect(f.AddHCA("a"), f.AddHCA("b"), c.rate, c.prop)
			return ""
		}()
		if !strings.HasPrefix(msg, "ib: ") {
			t.Errorf("Connect at rate %v, delay %v: panic %q, want an ib: message", c.rate, c.prop, msg)
		}
	}
	f := NewFabric(sim.NewEnv())
	if l := f.Connect(f.AddHCA("a"), f.AddHCA("b"), SDR, 0); l.Rate() != SDR || l.Delay() != 0 {
		t.Errorf("Connect(SDR, 0) built a link at %v, %v", l.Rate(), l.Delay())
	}
}

// TestConstructionAllocs holds world construction to one object per queue
// pair and per link on a warm fabric: a QP that never carries traffic is its
// struct (the stage handlers are package functions, the in-flight and reorder
// maps and the retry handler wait for traffic), and a link is its struct with
// both ports inside (a port's delivery function is its device's, shared).
// The HCA's QP table and the switches' port lists grow by doubling; a
// hundred runs amortize that below one. A sending RC QP adds its window.
func TestConstructionAllocs(t *testing.T) {
	env := sim.NewEnv()
	f := NewFabric(env)
	sw1, sw2 := f.AddSwitch("sw1", SwitchDelay), f.AddSwitch("sw2", SwitchDelay)
	h := f.AddHCA("h")
	f.Connect(h, sw1, DDR, DefaultCableDelay)
	f.Connect(sw1, sw2, SDR, DefaultCableDelay)
	f.Finalize()
	cq := NewCQ(env)
	for _, tr := range []Transport{RC, UD} {
		cfg := QPConfig{Transport: tr}
		if n := testing.AllocsPerRun(100, func() { h.CreateQP(cq, cfg) }); n > 1 {
			t.Errorf("an unused %v CreateQP costs %v allocs, want <= 1", tr, n)
		}
	}
	if n := testing.AllocsPerRun(100, func() { f.Connect(sw1, sw2, SDR, DefaultCableDelay) }); n > 1 {
		t.Errorf("Connect costs %v allocs, want <= 1", n)
	}
	if s := unsafe.Sizeof(packet{}); s > 80 {
		t.Errorf("a packet is %d bytes, want <= 80", s)
	}

	// A fresh RC QP that sends 64 messages through its window, refilled from
	// the completion handler, holds them in one ring of MaxInflight slots:
	// beyond the pair's two structs, one object. No map, no retry record or
	// closure per QP or per launch.
	a, b := f.AddHCA("a"), f.AddHCA("b")
	f.Connect(a, b, DDR, DefaultCableDelay)
	f.Finalize()
	cqa, cqb := NewCQ(env), NewCQ(env)
	mr := b.RegisterVirtualMR(1 << 16)
	var q *QP
	posted := 0
	cqa.SetHandler(func(Completion) {
		if posted < 64 {
			posted++
			q.PostSend(SendWR{Op: OpRDMAWrite, Len: 2 * MTU, RemoteMR: mr})
		}
	})
	stream := func() {
		q = a.CreateQP(cqa, QPConfig{Transport: RC})
		ConnectRC(q, b.CreateQP(cqb, QPConfig{Transport: RC}))
		for posted = 0; posted < DefaultMaxInflight; posted++ {
			q.PostSend(SendWR{Op: OpRDMAWrite, Len: 2 * MTU, RemoteMR: mr})
		}
		env.Run()
	}
	if n := testing.AllocsPerRun(100, stream); n-2 > 1 {
		t.Errorf("a fresh RC QP sending 64 messages costs %v allocs beyond the pair's two structs, want <= 1", n-2)
	}
	if s := q.Stats(); s.MsgsSent != 64 || s.Acks != 0 || q.remote.Stats().Acks != 64 {
		t.Errorf("the last stream sent %d messages and got %d acks, want 64", s.MsgsSent, q.remote.Stats().Acks)
	}
}

// stageTag names the QP a work request was posted on — its HCA and its
// QPN, which is numbered per HCA — and which request.
type stageTag struct {
	lid    LID
	qpn, i int
}

// TestStageHandlersFindTheirQP runs every protocol stage through QPs that
// share their HCAs and their CQs, so a stage handler that found the wrong QP
// would post on the right queue under the wrong name. Two RC pairs and a UD
// pair join the same two HCAs through a switch, and a seeded plan drops
// packets on both links. Interleaved sends both ways, RDMA writes that notify
// the responder, RDMA reads both ways and datagrams must complete — each once,
// OK — naming the QP they were posted on (QPN) and, on the receiving side, the
// QP that received them and the one that sent them (QPN, SrcQPN). The loss
// must force retransmissions, and a second run of the same seed must repeat
// the completion log and the retransmit counts exactly.
func TestStageHandlersFindTheirQP(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		first, retx := stageHandlerRun(t, seed)
		t.Logf("seed %d: %d completions, %d retransmits", seed, len(first), retx)
		if retx == 0 {
			t.Errorf("seed %d: the loss plan forced no retransmission", seed)
		}
		again, retx2 := stageHandlerRun(t, seed)
		if retx2 != retx || !slices.Equal(first, again) {
			t.Errorf("seed %d: a second run logged %d completions and %d retransmits, the first %d and %d",
				seed, len(again), retx2, len(first), retx)
		}
	}
}

func stageHandlerRun(t *testing.T, seed int64) (log []string, retransmits int64) {
	env := sim.NewEnv()
	defer env.Shutdown()
	f := NewFabric(env)
	a, b := f.AddHCA("a"), f.AddHCA("b")
	sw := f.AddSwitch("sw", SwitchDelay)
	rng := rand.New(rand.NewSource(seed))
	drop := func(sim.Time, Crossing) bool { return rng.Intn(40) == 0 }
	f.Connect(a, sw, DDR, DefaultCableDelay).DropFn = drop
	f.Connect(sw, b, DDR, DefaultCableDelay).DropFn = drop
	f.Finalize()

	cqa, cqb := NewCQ(env), NewCQ(env)
	cfg := QPConfig{RetryLimit: -1, RetryTimeout: 20 * sim.Microsecond, MaxInflight: 4}
	ra1, rb1 := CreateRCPair(a, b, cqa, cqb, cfg)
	ra2, rb2 := CreateRCPair(a, b, cqa, cqb, cfg)
	ua := a.CreateQP(cqa, QPConfig{Transport: UD})
	ub := b.CreateQP(cqb, QPConfig{Transport: UD})
	peer := map[*QP]*QP{ra1: rb1, rb1: ra1, ra2: rb2, rb2: ra2, ua: ub}
	qpOf := func(tag stageTag) *QP { return f.byLID[tag.lid].(*HCA).qps[tag.qpn] }
	mra, mrb := a.RegisterVirtualMR(1<<16), b.RegisterVirtualMR(1<<16)

	// What each posted request must complete as, keyed by its tag: the
	// operation and the QP it names. A receive names its receiver; the peer
	// map names the sender.
	want := map[stageTag]Opcode{}
	post := func(q *QP, i int, wr SendWR) {
		tag := stageTag{q.hca.lid, q.qpn, i}
		wr.Ctx = tag
		want[tag] = wr.Op
		q.PostSend(wr)
	}
	recv := func(q *QP, i int) {
		tag := stageTag{q.hca.lid, q.qpn, -1 - i}
		want[tag] = OpRecv
		q.PostRecv(RecvWR{Ctx: tag})
	}
	const rounds = 40
	notified := map[stageTag]bool{}
	for i := 0; i < rounds; i++ {
		env.At(sim.Time(i)*3*sim.Microsecond, func() {
			size := 1 + rng.Intn(3*MTU)
			switch i % 4 {
			case 0: // send/recv, both ways on the first pair
				recv(rb1, i)
				post(ra1, i, SendWR{Op: OpSend, Len: size})
				recv(ra1, i)
				post(rb1, i, SendWR{Op: OpSend, Len: size})
			case 1: // a notifying RDMA write, and a send on the same pair
				notified[stageTag{a.lid, ra2.qpn, i}] = true
				post(ra2, i, SendWR{Op: OpRDMAWrite, Len: size, RemoteMR: mrb, NotifyRemote: true, Meta: stageTag{a.lid, ra2.qpn, i}})
				recv(rb2, i)
				post(ra2, i+rounds, SendWR{Op: OpSend, Len: size})
			case 2: // RDMA reads both ways
				post(ra2, i, SendWR{Op: OpRDMARead, Len: size, RemoteMR: mrb})
				post(rb1, i, SendWR{Op: OpRDMARead, Len: size, RemoteMR: mra})
			case 3: // datagrams
				recv(ub, i)
				post(ua, i, SendWR{Op: OpSend, Len: 1 + rng.Intn(MaxUDPayload), DestLID: b.lid, DestQPN: ub.qpn})
			}
		})
	}
	seen := map[stageTag]bool{}
	check := func(side *HCA, c Completion) {
		log = append(log, fmt.Sprintf("%v %s %+v", env.Now(), side.name, c))
		if c.Status != StatusOK {
			t.Errorf("seed %d: %s completion %+v, want OK", seed, side.name, c)
			return
		}
		if c.Op == OpRDMAWrite && c.Ctx == nil {
			// The responder's notification of a write: its receiver is the
			// peer of the writer its Meta names.
			tag := c.Meta.(stageTag)
			if !notified[tag] || c.QPN != peer[qpOf(tag)].qpn || c.SrcQPN != tag.qpn || c.SrcLID != tag.lid {
				t.Errorf("seed %d: write notification %+v for %+v", seed, c, tag)
			}
			delete(notified, tag)
			return
		}
		tag := c.Ctx.(stageTag)
		if op, ok := want[tag]; !ok || op != c.Op || seen[tag] {
			t.Errorf("seed %d: %s completion %+v for %+v: unexpected, duplicate or wrong op", seed, side.name, c, tag)
		}
		seen[tag] = true
		if c.QPN != tag.qpn || side.lid != tag.lid {
			t.Errorf("seed %d: %s completion for a request on QP %d@%d names QP %d", seed, side.name, tag.qpn, tag.lid, c.QPN)
		}
		if c.Op == OpRecv {
			var sender *QP
			for _, q := range []*QP{ra1, rb1, ra2, rb2, ua} {
				if peer[q] == qpOf(tag) {
					sender = q
				}
			}
			if c.SrcQPN != sender.qpn || c.SrcLID != sender.hca.lid {
				t.Errorf("seed %d: receive on QP %d names sender %d@%d, want %d@%d",
					seed, tag.qpn, c.SrcQPN, c.SrcLID, sender.qpn, sender.hca.lid)
			}
		}
	}
	cqa.SetHandler(func(c Completion) { check(a, c) })
	cqb.SetHandler(func(c Completion) { check(b, c) })
	env.Run()

	var lostDatagrams int
	for tag, op := range want {
		if seen[tag] {
			continue
		}
		if op == OpRecv && qpOf(tag) == ub {
			lostDatagrams++ // UD is unreliable: the loss plan may take a datagram
			continue
		}
		t.Errorf("seed %d: %v posted on QP %d (%+v) never completed", seed, op, tag.qpn, tag)
	}
	if len(notified) != 0 {
		t.Errorf("seed %d: %d notifying writes raised no notification", seed, len(notified))
	}
	if got := ub.Stats().MsgsRecv + int64(lostDatagrams); got != rounds/4 {
		t.Errorf("seed %d: %d datagrams received and %d lost, want %d in all", seed, ub.Stats().MsgsRecv, lostDatagrams, rounds/4)
	}
	for _, q := range []*QP{ra1, rb1, ra2, rb2} {
		retransmits += q.Stats().Retransmits
	}
	return log, retransmits
}
