package ib

import (
	"fmt"
	"testing"

	"repro/internal/sim"
)

// pktID names one wire packet for order comparisons.
type pktID struct {
	srcQP, seq int
	msg        int64
}

// TestLosslessPortFIFO drives two RC senders through a switch whose egress
// toward the receiver is a bounded Lossless queue, and checks that credit
// stalls never reorder the port: the order packets were handed to the port
// (admission), the order they were serialized (tx) and the order they
// arrived (rx) are one sequence. Before the enqueue-behind rule in
// sendBounded, a message's small tail packet fitted the headroom its stalled
// predecessors could not, overtook them, and a "lossless" link ended in
// RETRY_EXCEEDED.
func TestLosslessPortFIFO(t *testing.T) {
	const full = MTU + HeaderRC // wire size of a full data packet
	bounds := []struct {
		name  string
		bytes int
	}{
		{"1pkt", full},
		{"2pkt+tail", 2*(MTU+128) + 300},
		{"4pkt", 4 * full},
		{"16pkt", 16 * full},
	}
	geometries := []struct {
		name  string
		sizes []int // message sizes, cycled
	}{
		{"body+tiny-tail", []int{3*MTU + 100}},
		{"exact-mtu", []int{MTU}},
		{"small", []int{64}},
		{"mixed", []int{5*MTU + 1, 32, 2 * MTU, 700}},
	}
	for _, bd := range bounds {
		for _, g := range geometries {
			t.Run(bd.name+"/"+g.name, func(t *testing.T) {
				losslessFIFOCase(t, bd.bytes, g.sizes)
			})
		}
	}
}

func losslessFIFOCase(t *testing.T, queueBytes int, sizes []int) {
	const msgs = 12
	env := sim.NewEnv()
	f := NewFabric(env)
	a1, a2, b := f.AddHCA("a1"), f.AddHCA("a2"), f.AddHCA("b")
	sw := f.AddSwitch("sw", SwitchDelay)
	f.Connect(a1, sw, DDR, DefaultCableDelay)
	f.Connect(a2, sw, DDR, DefaultCableDelay)
	// The receiver's link is the slow one, so the switch egress backs up.
	out := f.Connect(sw, b, SDR, DefaultCableDelay)
	f.Finalize()
	if err := out.ConfigureQueue(QueueConfig{QueueBytes: queueBytes, Lossless: true}); err != nil {
		t.Fatal(err)
	}

	var admitted, sent, arrived []pktID
	egress := out.a // the switch's port toward b
	send := egress.sendArg
	egress.sendArg = func(v any) {
		pkt := v.(*packet)
		admitted = append(admitted, pktID{pkt.srcQP, pkt.seq, pkt.msg.id})
		send(v)
	}
	f.SetTracer(func(ev TraceEvent) {
		if ev.Dst != b.LID() {
			return
		}
		switch {
		case ev.Kind == "tx" && ev.Dev == "sw":
			sent = append(sent, pktID{ev.SrcQP, ev.Seq, ev.Msg})
		case ev.Kind == "rx" && ev.Dev == "b":
			arrived = append(arrived, pktID{ev.SrcQP, ev.Seq, ev.Msg})
		}
	})

	cfg := QPConfig{RetryLimit: 3, RetryTimeout: 50 * sim.Millisecond, MaxInflight: 8}
	cq := NewCQ(env)
	var senders []*QP
	for _, a := range []*HCA{a1, a2} {
		qa, qb := CreateRCPair(a, b, nil, cq, cfg)
		senders = append(senders, qa)
		for i := 0; i < msgs; i++ {
			qb.PostRecv(RecvWR{})
		}
	}
	received := 0
	env.Go("recv", func(p *sim.Proc) {
		for ; received < msgs*len(senders); received++ {
			if c := cq.Poll(p); c.Status != StatusOK {
				t.Errorf("recv %d: status %v", received, c.Status)
			}
		}
	})
	for _, qa := range senders {
		env.Go("send", func(p *sim.Proc) {
			for i := 0; i < msgs; i++ {
				qa.PostSend(SendWR{Op: OpSend, Len: sizes[i%len(sizes)]})
			}
			for i := 0; i < msgs; i++ {
				if c := qa.CQ().Poll(p); c.Status != StatusOK {
					t.Errorf("send %d: status %v", i, c.Status)
				}
			}
		})
	}
	env.Run()
	env.Shutdown()

	if received != msgs*len(senders) {
		t.Fatalf("receiver completed %d of %d messages on a lossless link", received, msgs*len(senders))
	}
	for _, qa := range senders {
		if n := qa.Stats().Retransmits; n > 0 {
			t.Errorf("lossless link forced %d retransmits", n)
		}
	}
	if n := out.OverflowDrops(); n > 0 {
		t.Errorf("lossless link dropped %d packets", n)
	}
	if len(admitted) == 0 {
		t.Fatal("no packet crossed the bounded port")
	}
	for _, o := range []struct {
		name string
		got  []pktID
	}{{"tx", sent}, {"rx", arrived}} {
		if err := sameOrder(admitted, o.got); err != nil {
			t.Errorf("%s order differs from admission order (%d credit stalls): %v", o.name, out.CreditStalls(), err)
		}
	}
}

func sameOrder(want, got []pktID) error {
	if len(want) != len(got) {
		return fmt.Errorf("%d packets, want %d", len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			return fmt.Errorf("position %d is %+v, want %+v", i, got[i], want[i])
		}
	}
	return nil
}
