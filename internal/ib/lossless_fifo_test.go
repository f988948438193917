package ib

import (
	"fmt"
	"testing"

	"repro/internal/sim"
	"repro/internal/telemetry"
)

// pktID names one wire packet for order comparisons.
type pktID struct {
	srcQP int32
	seq   int32
	msg   int64
}

// pktWire is what a wire instant records of a packet: the transfer it
// belongs to and its size on the wire.
type pktWire struct {
	msg  int64
	wire int
}

// TestLosslessPortFIFO drives two RC senders through a switch whose egress
// toward the receiver is a bounded Lossless queue, and checks that credit
// stalls never reorder the port: the order packets were handed to the port
// (admission), the order they were serialized (the switch's "tx data" wire
// instants) and the order they arrived (the receiver port's deliveries) are
// one sequence. Before the enqueue-behind rule in
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
	rec := telemetry.NewRecorder(0, 0)
	telemetry.Attach(env, &telemetry.Telemetry{Spans: rec})
	f := NewFabric(env)
	a1, a2, b := f.AddHCA("a1"), f.AddHCA("a2"), f.AddHCA("b")
	sw := f.AddSwitch("sw", SwitchDelay)
	in1 := f.Connect(a1, sw, DDR, DefaultCableDelay)
	in2 := f.Connect(a2, sw, DDR, DefaultCableDelay)
	// The receiver's link is the slow one, so the switch egress backs up.
	out := f.Connect(sw, b, SDR, DefaultCableDelay)
	f.Finalize()
	if err := out.ConfigureQueue(QueueConfig{QueueBytes: queueBytes, Lossless: true}); err != nil {
		t.Fatal(err)
	}

	var admitted, arrived []pktID
	var admittedWire []pktWire
	// The switch forwards inside its ingress action, so the order its two
	// sender-facing ports run theirs is the order the egress port toward b is
	// handed packets (only data arrives on them; acks arrive on out's).
	for _, in := range []*Port{&in1.b, &in2.b} {
		forward := in.deliverArg
		in.deliverArg = func(v any) {
			pkt := v.(*packet)
			admitted = append(admitted, pktID{pkt.srcQP, pkt.seq, pkt.msg.id})
			admittedWire = append(admittedWire, pktWire{pkt.msg.id, pkt.wire})
			forward(v)
		}
	}
	ingress := &out.b // b's port
	deliver := ingress.deliverArg
	ingress.deliverArg = func(v any) {
		pkt := v.(*packet)
		arrived = append(arrived, pktID{pkt.srcQP, pkt.seq, pkt.msg.id})
		deliver(v)
	}

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
	if n := out.Counters().XmitDiscards; n > 0 {
		t.Errorf("lossless link dropped %d packets", n)
	}
	if len(admitted) == 0 {
		t.Fatal("no packet crossed the bounded port")
	}
	// The switch sends data toward b only (acks flow the other way), so its
	// "tx data" instants are the egress port's serialization order.
	var sent []pktWire
	swWire := rec.Track("sw", "wire")
	for _, in := range rec.Instants() {
		if in.Track == swWire && in.Name == "tx data" {
			sent = append(sent, pktWire{in.Msg, in.Wire})
		}
	}
	if err := sameOrder(admittedWire, sent); err != nil {
		t.Errorf("tx order differs from admission order (%d credit stalls): %v", out.Counters().XmitWait, err)
	}
	if err := sameOrder(admitted, arrived); err != nil {
		t.Errorf("rx order differs from admission order (%d credit stalls): %v", out.Counters().XmitWait, err)
	}
}

func sameOrder[T comparable](want, got []T) error {
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
