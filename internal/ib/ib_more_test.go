package ib

import (
	"testing"

	"repro/internal/sim"
)

func TestZeroLengthSend(t *testing.T) {
	env, _, a, b, _ := backToBack(t)
	qa, qb := CreateRCPair(a, b, nil, nil, QPConfig{})
	var got bool
	env.Go("recv", func(p *sim.Proc) {
		qb.PostRecv(RecvWR{})
		c := qb.CQ().Poll(p)
		got = c.Bytes == 0 && c.Op == OpRecv
	})
	env.Go("send", func(p *sim.Proc) {
		qa.PostSend(SendWR{Op: OpSend, Len: 0})
		qa.CQ().Poll(p)
	})
	env.Run()
	if !got {
		t.Error("zero-length send not delivered")
	}
}

func TestWindowOneSerializes(t *testing.T) {
	// With MaxInflight 1, message i+1 may not leave before i is acked:
	// bandwidth equals size/(RTT + serialization).
	env, qa, qb := wanPair(t, sim.Micros(100), 1)
	bw := measureBW(env, qa, qb, 8<<10, 32)
	// 8K per ~210us RTT ~= 39 MB/s.
	if bw > 60 {
		t.Errorf("window-1 bw = %.1f MB/s, want RTT-bound (~39)", bw)
	}
}

func TestSharedCQMultipleQPs(t *testing.T) {
	env := sim.NewEnv()
	f := NewFabric(env)
	a, b := f.AddHCA("a"), f.AddHCA("b")
	f.Connect(a, b, DDR, DefaultCableDelay)
	f.Finalize()
	cq := NewCQ(env)
	q1a, q1b := CreateRCPair(a, b, nil, cq, QPConfig{})
	q2a, q2b := CreateRCPair(a, b, nil, cq, QPConfig{})
	seen := map[int]int{}
	env.Go("recv", func(p *sim.Proc) {
		q1b.PostRecv(RecvWR{})
		q2b.PostRecv(RecvWR{})
		for i := 0; i < 2; i++ {
			c := cq.Poll(p)
			seen[c.QPN]++
		}
	})
	env.Go("send", func(p *sim.Proc) {
		q1a.PostSend(SendWR{Op: OpSend, Len: 10})
		q2a.PostSend(SendWR{Op: OpSend, Len: 10})
		q1a.CQ().Poll(p)
		q2a.CQ().Poll(p)
	})
	env.Run()
	if seen[q1b.QPN()] != 1 || seen[q2b.QPN()] != 1 {
		t.Errorf("shared CQ routing: %v", seen)
	}
}

func TestPortTxBytesAccounting(t *testing.T) {
	env, _, a, b, _ := backToBack(t)
	qa, qb := CreateRCPair(a, b, nil, nil, QPConfig{})
	env.Go("recv", func(p *sim.Proc) {
		qb.PostRecv(RecvWR{})
		qb.CQ().Poll(p)
	})
	env.Go("send", func(p *sim.Proc) {
		qa.PostSend(SendWR{Op: OpSend, Len: 5000})
		qa.CQ().Poll(p)
	})
	env.Run()
	// 5000 payload = 3 packets: 2048+2048+904 payload + 3 * HeaderRC.
	want := int64(5000 + 3*HeaderRC)
	if got := a.FabricPort().Counters().XmitData; got != want {
		t.Errorf("sender XmitData = %d, want %d", got, want)
	}
	// Receiver sent exactly one ack.
	if got := b.FabricPort().Counters().XmitData; got != AckBytes {
		t.Errorf("receiver XmitData = %d, want %d (one ack)", got, AckBytes)
	}
}

func TestCQTryPoll(t *testing.T) {
	env := sim.NewEnv()
	cq := NewCQ(env)
	if _, ok := cq.TryPoll(); ok {
		t.Fatal("TryPoll on empty CQ")
	}
	cq.post(Completion{Op: OpSend})
	if c, ok := cq.TryPoll(); !ok || c.Op != OpSend {
		t.Fatalf("TryPoll = %+v, %v", c, ok)
	}
	if cq.Len() != 0 {
		t.Errorf("Len = %d", cq.Len())
	}
}

func TestThreeSwitchPath(t *testing.T) {
	// Linear chain a - s1 - s2 - s3 - b: routing must traverse, latency
	// must include three switch delays.
	env := sim.NewEnv()
	f := NewFabric(env)
	a, b := f.AddHCA("a"), f.AddHCA("b")
	s1 := f.AddSwitch("s1", SwitchDelay)
	s2 := f.AddSwitch("s2", SwitchDelay)
	s3 := f.AddSwitch("s3", SwitchDelay)
	f.Connect(a, s1, DDR, DefaultCableDelay)
	f.Connect(s1, s2, DDR, DefaultCableDelay)
	f.Connect(s2, s3, DDR, DefaultCableDelay)
	f.Connect(s3, b, DDR, DefaultCableDelay)
	f.Finalize()
	qa, qb := CreateRCPair(a, b, nil, nil, QPConfig{})
	lat := pingPong(env, qa, qb, 8, 20)
	// Back-to-back is ~1.3us; three switches add ~0.6us each way.
	if lat < 1800*sim.Nanosecond || lat > 2600*sim.Nanosecond {
		t.Errorf("3-switch latency = %v, want ~1.9-2.1us", lat)
	}
}

func TestConnectRCRequiresRC(t *testing.T) {
	env, _, a, b, _ := backToBack(t)
	_ = env
	cq := NewCQ(env)
	qa := a.CreateQP(cq, QPConfig{Transport: UD})
	qb := b.CreateQP(cq, QPConfig{Transport: RC})
	defer func() {
		if recover() == nil {
			t.Fatal("ConnectRC with UD QP did not panic")
		}
	}()
	ConnectRC(qa, qb)
}

func TestUnconnectedRCSendPanics(t *testing.T) {
	env, _, a, _, _ := backToBack(t)
	_ = env
	cq := NewCQ(env)
	qa := a.CreateQP(cq, QPConfig{Transport: RC})
	defer func() {
		if recover() == nil {
			t.Fatal("send on unconnected RC QP did not panic")
		}
	}()
	qa.PostSend(SendWR{Op: OpSend, Len: 1})
}

func TestVirtualMR(t *testing.T) {
	env, _, a, b, _ := backToBack(t)
	qa, _ := CreateRCPair(a, b, nil, nil, QPConfig{})
	mr := b.RegisterVirtualMR(1 << 20)
	if mr.Len() != 1<<20 {
		t.Fatalf("virtual MR Len = %d", mr.Len())
	}
	done := false
	env.Go("w", func(p *sim.Proc) {
		// Synthetic write into a virtual region: full wire simulation, no
		// memory traffic.
		qa.PostSend(SendWR{Op: OpRDMAWrite, Len: 1 << 20, RemoteMR: mr})
		c := qa.CQ().Poll(p)
		done = c.Status == StatusOK && c.Bytes == 1<<20
	})
	env.Run()
	if !done {
		t.Error("virtual-region RDMA write failed")
	}
}

func TestBidirStreamsIndependent(t *testing.T) {
	// Full duplex: simultaneous opposite streams each achieve near the
	// unidirectional rate.
	env, _, a, b, _ := backToBack(t)
	qa, qb := CreateRCPair(a, b, nil, nil, QPConfig{})
	const count, size = 64, 256 << 10
	var tA, tB sim.Time
	run := func(tx, rx *QP, done *sim.Time) func(p *sim.Proc) {
		return func(p *sim.Proc) {
			for i := 0; i < count; i++ {
				rx.PostRecv(RecvWR{})
			}
			for i := 0; i < count; i++ {
				tx.PostSend(SendWR{Op: OpSend, Len: size})
			}
			sends, recvs := 0, 0
			for sends < count || recvs < count {
				c := tx.CQ().Poll(p)
				if c.Op == OpSend {
					sends++
				} else {
					recvs++
				}
			}
			*done = p.Now()
		}
	}
	env.Go("a", run(qa, qa, &tA))
	env.Go("b", run(qb, qb, &tB))
	env.Run()
	total := float64(count*size) / tA.Seconds() / 1e6
	// DDR data rate is 2000 MB/s; each direction should get most of it.
	if total < 1700 {
		t.Errorf("per-direction bidir bw = %.1f MB/s, want near 1970", total)
	}
	_ = tB
}

func TestInOrderDeliveryUnderLoss(t *testing.T) {
	// Drop a packet of message 1 so its retransmission arrives after
	// messages 2..N have crossed: the receiver must still deliver 1..N in
	// order (the RC guarantee upper layers depend on — e.g. the MPI
	// rendezvous FIN posted behind an RDMA write).
	env, _, a, b, l := backToBack(t)
	qa, qb := CreateRCPair(a, b, nil, nil, QPConfig{RetryTimeout: 200 * sim.Microsecond})
	n := 0
	l.DropFn = func(sim.Time, Crossing) bool {
		n++
		return n == 2 // second wire packet: inside message 1
	}
	const msgs = 6
	var order []int
	env.Go("recv", func(p *sim.Proc) {
		for i := 0; i < msgs; i++ {
			qb.PostRecv(RecvWR{Ctx: i})
		}
		for i := 0; i < msgs; i++ {
			c := qb.CQ().Poll(p)
			order = append(order, c.Ctx.(int))
		}
	})
	env.Go("send", func(p *sim.Proc) {
		for i := 0; i < msgs; i++ {
			qa.PostSend(SendWR{Op: OpSend, Len: 3 * MTU}) // multi-packet
		}
		for i := 0; i < msgs; i++ {
			qa.CQ().Poll(p)
		}
	})
	env.Run()
	if len(order) != msgs {
		t.Fatalf("delivered %d, want %d", len(order), msgs)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("out-of-order delivery under loss: %v", order)
		}
	}
	if qa.Stats().Retransmits == 0 {
		t.Fatal("no retransmission; test vacuous")
	}
}

func TestWireLatencyScalesWithDistance(t *testing.T) {
	// 1 us of delay per configured microsecond, exactly.
	lat := func(us float64) sim.Time {
		env, qa, qb := wanPair(t, sim.Micros(us), 0)
		return pingPong(env, qa, qb, 8, 10)
	}
	l0 := lat(0)
	l500 := lat(500)
	diff := l500 - l0
	if diff < sim.Micros(499) || diff > sim.Micros(501) {
		t.Errorf("500us delay adds %v to one-way latency, want 500us", diff)
	}
}
