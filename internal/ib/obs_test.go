package ib

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/telemetry"
)

// tracedBackToBack is backToBack with a span recorder attached, so the
// fabric's wire trace lands in rec's instant stream.
func tracedBackToBack(t *testing.T) (*sim.Env, *telemetry.Recorder, *HCA, *HCA, *Link) {
	t.Helper()
	env := sim.NewEnv()
	rec := telemetry.NewRecorder(0, 0)
	telemetry.Attach(env, &telemetry.Telemetry{Spans: rec})
	f := NewFabric(env)
	a, b := f.AddHCA("a"), f.AddHCA("b")
	l := f.Connect(a, b, DDR, DefaultCableDelay)
	f.Finalize()
	return env, rec, a, b, l
}

// sendOne moves one RC send of size bytes from a to b and runs the world dry.
func sendOne(env *sim.Env, a, b *HCA, size int, cfg QPConfig) {
	qa, qb := CreateRCPair(a, b, nil, nil, cfg)
	env.Go("recv", func(p *sim.Proc) {
		qb.PostRecv(RecvWR{})
		qb.CQ().Poll(p)
	})
	env.Go("send", func(p *sim.Proc) {
		qa.PostSend(SendWR{Op: OpSend, Len: size})
		qa.CQ().Poll(p)
	})
	env.Run()
}

// TestWireTraceCounts checks the packet log of one three-packet message:
// every packet logged once at departure and once at arrival, on the track
// of the device that saw it, under its wire kind, with its wire bytes.
func TestWireTraceCounts(t *testing.T) {
	env, rec, a, b, _ := tracedBackToBack(t)
	sendOne(env, a, b, 5000, QPConfig{})
	tracks := rec.Tracks()
	byName := map[string]int{}
	byDevice := map[string]int{}
	var wireBytes int64
	for _, in := range rec.Instants() {
		byName[in.Name]++
		if tr := tracks[in.Track]; tr[1] != "wire" {
			t.Errorf("instant %q on track %v, want a wire track", in.Name, tr)
		} else {
			byDevice[tr[0]]++
		}
		if strings.HasPrefix(in.Name, "tx ") {
			wireBytes += int64(in.Wire)
		}
		if in.Msg == 0 {
			t.Errorf("instant %q carries no transfer id", in.Name)
		}
	}
	// 3 data packets a->b and 1 ack b->a, each tx'd once and rx'd once.
	want := map[string]int{"tx data": 3, "rx data": 3, "tx ack": 1, "rx ack": 1}
	for name, n := range want {
		if byName[name] != n {
			t.Errorf("%d %q instants, want %d", byName[name], name, n)
		}
	}
	if len(byName) != len(want) {
		t.Errorf("instants = %v, want only %v", byName, want)
	}
	// a sees its 3 departures and the ack's arrival; b the mirror image.
	if byDevice["a"] != 4 || byDevice["b"] != 4 {
		t.Errorf("instants per device = %v, want 4 on each of a and b", byDevice)
	}
	if wantWire := int64(5000 + 3*HeaderRC + AckBytes); wireBytes != wantWire {
		t.Errorf("tx wire bytes = %d, want %d", wireBytes, wantWire)
	}
}

// TestRxStampedAtWireArrival checks that an "rx" instant keeps its meaning now
// that the HCA logs it as its ingress stage ends: it is stamped PacketProc
// earlier, at wire arrival, so rx - tx of an unqueued packet is its
// serialization plus the link's propagation, for the data and for the ack.
func TestRxStampedAtWireArrival(t *testing.T) {
	env, rec, a, b, l := tracedBackToBack(t)
	sendOne(env, a, b, 64, QPConfig{})
	at := map[string]sim.Time{}
	for _, in := range rec.Instants() {
		at[in.Name] = in.Time
	}
	for _, c := range []struct {
		kind string
		wire int
	}{{"data", 64 + HeaderRC}, {"ack", AckBytes}} {
		want := wireTime(c.wire, l.Rate()) + l.Delay()
		if got := at["rx "+c.kind] - at["tx "+c.kind]; got != want {
			t.Errorf("rx %s - tx %s = %v, want serialization + propagation = %v", c.kind, c.kind, got, want)
		}
	}
}

// TestTracerSeesDrops loses the first packet on the wire: the log holds the
// injected drop with its reason, and the retry timeout that repaired it.
func TestTracerSeesDrops(t *testing.T) {
	env, rec, a, b, l := tracedBackToBack(t)
	n := 0
	l.DropFn = func(sim.Time, Crossing) bool { n++; return n == 1 }
	sendOne(env, a, b, 64, QPConfig{RetryTimeout: 50 * sim.Microsecond})
	reasons := map[string][]string{}
	for _, in := range rec.Instants() {
		if in.Reason != "" {
			reasons[in.Name] = append(reasons[in.Name], in.Reason)
		}
	}
	if got := reasons["drop data"]; len(got) != 1 || got[0] != "fault" {
		t.Errorf(`"drop data" reasons = %v, want one "fault"`, got)
	}
	if got := reasons["rto data"]; len(got) != 1 || got[0] != "timeout" {
		t.Errorf(`"rto data" reasons = %v, want one "timeout"`, got)
	}
	if len(reasons) != 2 {
		t.Errorf("instants with a reason = %v, want only the drop and the rto", reasons)
	}
}

// TestTracerOffByDefault runs the same traffic with nothing attached: the
// wire sites must pass their gate without touching a recorder.
func TestTracerOffByDefault(t *testing.T) {
	env, f, a, b, _ := backToBack(t)
	if f.obs != nil {
		t.Fatal("fabric has an observer with no telemetry attached")
	}
	sendOne(env, a, b, 64, QPConfig{})
}

func TestPktKindStrings(t *testing.T) {
	for k, want := range map[pktKind]string{
		pktData: "data", pktAck: "ack", pktReadReq: "readreq", pktReadResp: "readresp",
	} {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q", int(k), got)
		}
	}
	if !strings.Contains(pktKind(99).String(), "unknown") {
		t.Error("unknown kind")
	}
}

// TestTraceInstantsOnTheDeviceClock sends RC messages across a lossy line
// a — sw0 — sw1 — b, once on one environment and once partitioned into two
// shards (a and sw0 on the first, sw1 and b on the second) run by one worker,
// with a span recorder attached. A wire instant is stamped with the clock of
// the device that saw it, so the two packet logs hold the same instants;
// stamped with the fabric's clock, sw1's and b's would carry the first
// shard's time.
func TestTraceInstantsOnTheDeviceClock(t *testing.T) {
	const delay = 50 * sim.Microsecond
	run := func(shards int) []string {
		env := sim.NewEnv()
		rec := telemetry.NewRecorder(0, 0)
		telemetry.Attach(env, &telemetry.Telemetry{Spans: rec})
		views := []*sim.Env{env, env}
		if shards == 2 {
			env.SetShardWorkers(1)
			views = env.Partition(2)
			views[0].RegisterLookaheadBetween(views[1], delay)
			views[1].RegisterLookaheadBetween(views[0], delay)
		}
		f := NewFabric(env)
		f.UseEnv(views[0])
		a, sw0 := f.AddHCA("a"), f.AddSwitch("sw0", SwitchDelay)
		f.Connect(a, sw0, SDR, DefaultCableDelay)
		f.UseEnv(views[1])
		b, sw1 := f.AddHCA("b"), f.AddSwitch("sw1", SwitchDelay)
		f.Connect(sw1, b, SDR, DefaultCableDelay)
		wan := f.Connect(sw0, sw1, SDR, delay)
		wan.DropFn = func(_ sim.Time, c Crossing) bool { return c.Tx%7 == 3 }
		f.Finalize()
		const count = 12
		qa, qb := CreateRCPair(a, b, nil, nil, QPConfig{MaxInflight: 4, RetryTimeout: sim.Millisecond})
		b.Env().Go("recv", func(p *sim.Proc) {
			for range count {
				qb.PostRecv(RecvWR{})
			}
			for range count {
				qb.CQ().Poll(p)
			}
		})
		a.Env().Go("send", func(p *sim.Proc) {
			for range count {
				qa.PostSend(SendWR{Op: OpSend, Len: 8 << 10})
			}
			for range count {
				if c := qa.CQ().Poll(p); c.Status != StatusOK {
					panic(c.Status)
				}
			}
		})
		env.Run()
		env.Shutdown()
		tracks := rec.Tracks()
		var log []string
		for _, in := range rec.Instants() {
			log = append(log, fmt.Sprintf("%d %s %s msg=%d wire=%d %s",
				in.Time, tracks[in.Track][0], in.Name, in.Msg, in.Wire, in.Reason))
		}
		slices.Sort(log)
		return log
	}
	one, two := run(1), run(2)
	drops := 0
	for _, in := range one {
		if strings.Contains(in, " drop ") {
			drops++
		}
	}
	if drops == 0 {
		t.Fatal("the lossy line dropped nothing")
	}
	if !slices.Equal(one, two) {
		for i := range min(len(one), len(two)) {
			if one[i] != two[i] {
				t.Fatalf("instant %d of %d: one shard %q, two shards %q", i, len(one), one[i], two[i])
			}
		}
		t.Fatalf("one shard logs %d instants, two shards %d", len(one), len(two))
	}
}
