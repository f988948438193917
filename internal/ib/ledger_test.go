package ib

import (
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/telemetry"
)

// TestDiscardReasonsCountOnce drives each discard reason once on a line
// a — s — b of UD endpoints, the second hop slower than the first, with
// telemetry attached. Each discard moves exactly one ledger (the sending
// port's, the switch's or the receiving QP's) by one, exactly one telemetry
// counter by one, and logs one drop instant with its reason on the
// discarding device's wire track; the packet goes back to its list once.
func TestDiscardReasonsCountOnce(t *testing.T) {
	type world struct {
		f       *Fabric
		s       *Switch
		a, b    *HCA
		in, out *Link // a–s and s–b
		qa, qb  *QP
	}
	for _, c := range []struct {
		reason       discardReason
		sends, recvs int
		arm          func(w *world)
		ledger       func(w *world) *int64
		dev          func(w *world) Device
	}{
		{
			reason: discardFault, sends: 1, recvs: 1,
			arm:    func(w *world) { w.out.DropFn = func(sim.Time, Crossing) bool { return true } },
			ledger: func(w *world) *int64 { return &w.out.a.ctr.FaultDrops },
			dev:    func(w *world) Device { return w.s },
		},
		{
			// The second datagram reaches s while the first still
			// serializes on the slower hop: a 1-byte bound admits only the
			// first.
			reason: discardOverflow, sends: 2, recvs: 2,
			arm: func(w *world) {
				if err := w.out.ConfigureQueue(QueueConfig{QueueBytes: 1}); err != nil {
					t.Fatal(err)
				}
			},
			ledger: func(w *world) *int64 { return &w.out.a.ctr.XmitDiscards },
			dev:    func(w *world) Device { return w.s },
		},
		{
			reason: discardNoRoute, sends: 1, recvs: 1,
			arm:    func(w *world) { w.s.resetRoutes(len(w.f.byLID)) },
			ledger: func(w *world) *int64 { return &w.s.noRoute },
			dev:    func(w *world) Device { return w.s },
		},
		{
			reason: discardNoRecv, sends: 1, recvs: 0,
			ledger: func(w *world) *int64 { return &w.qb.stats.RecvDrops },
			dev:    func(w *world) Device { return w.b },
		},
	} {
		name := discardReasons[c.reason].trace
		t.Run(name, func(t *testing.T) {
			env := sim.NewEnv()
			reg, rec := telemetry.NewRegistry(), telemetry.NewRecorder(0, 0)
			telemetry.Attach(env, &telemetry.Telemetry{Metrics: reg, Spans: rec})
			w := &world{f: NewFabric(env)}
			w.a, w.b = w.f.AddHCA("a"), w.f.AddHCA("b")
			w.s = w.f.AddSwitch("s", SwitchDelay)
			w.in = w.f.Connect(w.s, w.a, DDR, DefaultCableDelay)
			w.out = w.f.Connect(w.s, w.b, SDR, DefaultCableDelay)
			w.f.Finalize()
			w.qa = w.a.CreateQP(NewCQ(env), QPConfig{Transport: UD})
			w.qb = w.b.CreateQP(NewCQ(env), QPConfig{Transport: UD})
			for range c.recvs {
				w.qb.PostRecv(RecvWR{})
			}
			if c.arm != nil {
				c.arm(w)
			}
			// The census: the packet list starts with packets enough for the
			// run and must end holding exactly them, each once.
			const stock = 4
			pkts := w.a.pool.pkts
			for range stock {
				pkts.Put(new(packet))
			}
			for range c.sends {
				w.qa.PostSend(SendWR{Op: OpSend, Len: 1024, DestLID: w.b.LID(), DestQPN: w.qb.QPN()})
			}
			env.Run()

			ledgers := map[string]*int64{"switch no-route": &w.s.noRoute}
			for _, q := range []*QP{w.qa, w.qb} {
				ledgers[q.hca.name+" QP no-recv"] = &q.stats.RecvDrops
			}
			for _, p := range []*Port{&w.in.a, &w.in.b, &w.out.a, &w.out.b} {
				at := p.dev.Name() + "->" + p.peer.dev.Name()
				ledgers[at+" FaultDrops"] = &p.ctr.FaultDrops
				ledgers[at+" XmitDiscards"] = &p.ctr.XmitDiscards
			}
			want := c.ledger(w)
			for at, n := range ledgers {
				if exp := once(n == want); *n != exp {
					t.Errorf("ledger %s = %d, want %d", at, *n, exp)
				}
			}
			for r, d := range discardReasons {
				if got, exp := reg.Counter(d.metric).Value(), once(discardReason(r) == c.reason); got != exp {
					t.Errorf("telemetry %s = %d, want %d", d.metric, got, exp)
				}
			}
			var drops []telemetry.Instant
			for _, in := range rec.Instants() {
				if strings.HasPrefix(in.Name, "drop ") {
					drops = append(drops, in)
				}
			}
			if len(drops) != 1 || drops[0].Reason != name || drops[0].Track != w.f.obs.wireTrack(c.dev(w)) {
				t.Errorf("drop instants %+v, want one with reason %q on %s's wire track", drops, name, c.dev(w).Name())
			}
			seen := map[*packet]bool{}
			for _, pkt := range pooled(pkts, nil) {
				seen[pkt] = true
			}
			if pkts.Len() != stock || len(seen) != stock {
				t.Errorf("the packet list holds %d packets, %d distinct; want the %d it started with, each once",
					pkts.Len(), len(seen), stock)
			}
		})
	}
}

// once is the count a ledger must hold after one discard: 1 where it
// happened, 0 elsewhere.
func once(here bool) int64 {
	if here {
		return 1
	}
	return 0
}

// TestWANDirectionsCountOnTheirOwnPorts streams RC messages across the
// cross-shard link of a two-shard line a — sw0 — sw1 — b whose drop function
// removes packets both ways. Each direction counts on the port that sends
// it, on that port's shard: the data side's port carries every packet a
// sent, the ack side's every packet b sent, each counts its own fault drops,
// the link's ledger is their sum, and nothing depends on how many workers
// ran the shards.
func TestWANDirectionsCountOnTheirOwnPorts(t *testing.T) {
	run := func(workers int) [4]PortCounters {
		env, a, b := shardLine(nil, workers, 2, 100*sim.Microsecond)
		defer env.Shutdown()
		wan := a.FabricPort().peer.dev.(*Switch).plist[0].link
		wan.DropFn = func(_ sim.Time, c Crossing) bool { return c.Tx%7 == 3 }
		const count = 200
		qa, qb := CreateRCPair(a, b, nil, nil, QPConfig{MaxInflight: 16, RetryLimit: 50, RetryTimeout: sim.Millisecond})
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
				qa.PostSend(SendWR{Op: OpSend, Len: 4096})
			}
			for range count {
				if c := qa.CQ().Poll(p); c.Status != StatusOK {
					panic(c.Status)
				}
			}
		})
		env.Run()
		data, acks := wan.a.Counters(), wan.b.Counters()
		fromA, fromB := a.FabricPort().Counters(), b.FabricPort().Counters()
		if data.XmitPkts != fromA.XmitPkts || acks.XmitPkts != fromB.XmitPkts {
			t.Errorf("workers=%d: the WAN ports sent %d and %d packets, a and b sent %d and %d",
				workers, data.XmitPkts, acks.XmitPkts, fromA.XmitPkts, fromB.XmitPkts)
		}
		if data.FaultDrops == 0 || acks.FaultDrops == 0 || fromA.FaultDrops+fromB.FaultDrops != 0 {
			t.Errorf("workers=%d: fault drops data %d, acks %d, at the HCAs %d; want both WAN directions and no HCA",
				workers, data.FaultDrops, acks.FaultDrops, fromA.FaultDrops+fromB.FaultDrops)
		}
		sum := data
		sum.XmitData += acks.XmitData
		sum.XmitPkts += acks.XmitPkts
		sum.FaultDrops += acks.FaultDrops
		if got := wan.Counters(); got != sum {
			t.Errorf("workers=%d: link ledger %+v, its ports sum to %+v", workers, got, sum)
		}
		return [4]PortCounters{data, acks, fromA, fromB}
	}
	one, two := run(1), run(2)
	if one != two {
		t.Errorf("port ledgers at one worker %+v, at two %+v", one, two)
	}
	t.Logf("data %+v, acks %+v", two[0], two[1])
}
