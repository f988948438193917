package ib

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

// backToBack builds two HCAs joined by one DDR cable.
func backToBack(t testing.TB) (*sim.Env, *Fabric, *HCA, *HCA, *Link) {
	t.Helper()
	env := sim.NewEnv()
	f := NewFabric(env)
	a := f.AddHCA("a")
	b := f.AddHCA("b")
	l := f.Connect(a, b, DDR, DefaultCableDelay)
	f.Finalize()
	return env, f, a, b, l
}

// pingPong measures the half round-trip latency of size-byte RC send/recv.
func pingPong(env *sim.Env, qa, qb *QP, size, iters int) sim.Time {
	var total sim.Time
	env.Go("server", func(p *sim.Proc) {
		for i := 0; i < iters; i++ {
			qb.PostRecv(RecvWR{})
			qb.CQ().Poll(p)
			qb.PostSend(SendWR{Op: OpSend, Len: size})
			qb.CQ().Poll(p) // send completion
		}
	})
	env.Go("client", func(p *sim.Proc) {
		start := p.Now()
		for i := 0; i < iters; i++ {
			qa.PostRecv(RecvWR{})
			qa.PostSend(SendWR{Op: OpSend, Len: size})
			// Wait for both send completion and pong arrival.
			got := 0
			for got < 2 {
				qa.CQ().Poll(p)
				got++
			}
		}
		total = p.Now() - start
	})
	env.Run()
	return total / sim.Time(2*iters)
}

func TestRCSendRecvDeliversData(t *testing.T) {
	env, _, a, b, _ := backToBack(t)
	qa, qb := CreateRCPair(a, b, nil, nil, QPConfig{})
	msg := []byte("hello infiniband wan")
	buf := make([]byte, len(msg))
	var comp Completion
	env.Go("recv", func(p *sim.Proc) {
		qb.PostRecv(RecvWR{Buf: buf, Ctx: "rctx"})
		comp = qb.CQ().Poll(p)
	})
	env.Go("send", func(p *sim.Proc) {
		qa.PostSend(SendWR{Op: OpSend, Data: msg, Ctx: "sctx"})
		qa.CQ().Poll(p)
	})
	env.Run()
	if !bytes.Equal(buf, msg) {
		t.Errorf("received %q, want %q", buf, msg)
	}
	if comp.Op != OpRecv || comp.Bytes != len(msg) || comp.Ctx != "rctx" {
		t.Errorf("recv completion = %+v", comp)
	}
}

func TestBackToBackLatencyCalibration(t *testing.T) {
	// Paper Fig. 3: back-to-back DDR RC send/recv small-message latency is
	// ~1.2-1.5 us.
	env, _, a, b, _ := backToBack(t)
	qa, qb := CreateRCPair(a, b, nil, nil, QPConfig{})
	lat := pingPong(env, qa, qb, 8, 100)
	if lat < sim.Microsecond || lat > 2*sim.Microsecond {
		t.Errorf("back-to-back RC latency = %v, want ~1.2-1.5us", lat)
	}
}

func TestRCInOrderDelivery(t *testing.T) {
	env, _, a, b, _ := backToBack(t)
	qa, qb := CreateRCPair(a, b, nil, nil, QPConfig{})
	const n = 50
	var order []int
	env.Go("recv", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			qb.PostRecv(RecvWR{Ctx: i})
		}
		for i := 0; i < n; i++ {
			c := qb.CQ().Poll(p)
			order = append(order, c.Ctx.(int))
		}
	})
	env.Go("send", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			// Mixed sizes to stress multi-packet interleaving.
			qa.PostSend(SendWR{Op: OpSend, Len: 1 + (i%5)*3000})
		}
		for i := 0; i < n; i++ {
			qa.CQ().Poll(p)
		}
	})
	env.Run()
	if len(order) != n {
		t.Fatalf("delivered %d messages, want %d", len(order), n)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("out-of-order delivery: %v", order)
		}
	}
}

func TestRCRNRBuffering(t *testing.T) {
	env, _, a, b, _ := backToBack(t)
	qa, qb := CreateRCPair(a, b, nil, nil, QPConfig{})
	data := []byte("early bird")
	buf := make([]byte, len(data))
	env.Go("send", func(p *sim.Proc) {
		qa.PostSend(SendWR{Op: OpSend, Data: data})
		qa.CQ().Poll(p)
	})
	env.Go("lateRecv", func(p *sim.Proc) {
		p.Sleep(100 * sim.Microsecond)
		qb.PostRecv(RecvWR{Buf: buf})
		qb.CQ().Poll(p)
	})
	env.Run()
	if !bytes.Equal(buf, data) {
		t.Errorf("late recv got %q, want %q", buf, data)
	}
	if qb.Stats().RNRBuffered != 1 {
		t.Errorf("RNRBuffered = %d, want 1", qb.Stats().RNRBuffered)
	}
}

func TestRDMAWriteLandsInRemoteMR(t *testing.T) {
	env, _, a, b, _ := backToBack(t)
	qa, _ := CreateRCPair(a, b, nil, nil, QPConfig{})
	region := make([]byte, 1<<16)
	mr := b.RegisterMR(region)
	payload := make([]byte, 5000)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	env.Go("writer", func(p *sim.Proc) {
		qa.PostSend(SendWR{Op: OpRDMAWrite, Data: payload, RemoteMR: mr, RemoteOff: 1234})
		c := qa.CQ().Poll(p)
		if c.Op != OpRDMAWrite || c.Status != StatusOK {
			t.Errorf("write completion = %+v", c)
		}
	})
	env.Run()
	if !bytes.Equal(region[1234:1234+5000], payload) {
		t.Error("RDMA write payload mismatch in remote MR")
	}
	for _, i := range []int{0, 1233, 6234, 6235} {
		if i < 1234 || i >= 6234 {
			if region[i] != 0 {
				t.Errorf("RDMA write touched byte %d outside target range", i)
			}
		}
	}
}

func TestRDMAReadFetchesRemoteMR(t *testing.T) {
	env, _, a, b, _ := backToBack(t)
	qa, _ := CreateRCPair(a, b, nil, nil, QPConfig{})
	region := make([]byte, 1<<16)
	for i := range region {
		region[i] = byte(i * 13)
	}
	mr := b.RegisterMR(region)
	dst := make([]byte, 9000)
	env.Go("reader", func(p *sim.Proc) {
		qa.PostSend(SendWR{Op: OpRDMARead, Len: 9000, LocalBuf: dst, RemoteMR: mr, RemoteOff: 500})
		c := qa.CQ().Poll(p)
		if c.Op != OpRDMARead || c.Bytes != 9000 {
			t.Errorf("read completion = %+v", c)
		}
	})
	env.Run()
	if !bytes.Equal(dst, region[500:9500]) {
		t.Error("RDMA read data mismatch")
	}
}

func TestRDMAWriteBeyondMRPanics(t *testing.T) {
	env, _, a, b, _ := backToBack(t)
	qa, _ := CreateRCPair(a, b, nil, nil, QPConfig{})
	mr := b.RegisterMR(make([]byte, 100))
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-bounds RDMA write did not panic")
		}
	}()
	_ = env
	qa.PostSend(SendWR{Op: OpRDMAWrite, Len: 200, RemoteMR: mr})
}

// TestRCWindowLimitsInflight checks the window after every event, so at
// every launch: sends and RDMA reads posted at once never have more than
// MaxInflight launched and unacknowledged (counted from the wire side too,
// as launches less completions), the reads' out-of-order completions leave
// only cleared slots behind an outstanding one, and the window fills.
func TestRCWindowLimitsInflight(t *testing.T) {
	env, _, a, b, _ := backToBack(t)
	qa, qb := CreateRCPair(a, b, nil, nil, QPConfig{MaxInflight: 2})
	mr := b.RegisterVirtualMR(1 << 20)
	const n = 12
	for i := 0; i < n; i++ {
		qb.PostRecv(RecvWR{})
	}
	for i := 0; i < n; i++ {
		if i%3 == 2 {
			qa.PostSend(SendWR{Op: OpRDMARead, Len: 512, RemoteMR: mr})
		} else {
			qa.PostSend(SendWR{Op: OpSend, Len: 4096 * (1 + i%2)})
		}
	}
	completed, full := 0, false
	for env.Step() {
		for qa.CQ().Len() > 0 {
			qa.CQ().TryPoll()
			completed++
		}
		outstanding := 0
		for i := 0; i < qa.launched; i++ {
			if *qa.window.At(i) != nil {
				outstanding++
			} else if i == 0 {
				t.Fatalf("at %v: a cleared slot at the window's head", env.Now())
			}
		}
		st := qa.Stats()
		launched := int(st.MsgsSent + st.ReadRequests)
		if outstanding != qa.unacked || outstanding > 2 || launched-completed > 2 {
			t.Fatalf("at %v: %d outstanding in the window (unacked %d), %d launched and %d completed; the window is 2",
				env.Now(), outstanding, qa.unacked, launched, completed)
		}
		full = full || outstanding == 2
	}
	if !full {
		t.Error("the window never filled")
	}
	if completed != n || qa.window.Len() != 0 || qa.aim != nil {
		t.Errorf("%d of %d completed, %d left in the window, retry aimed at %p", completed, n, qa.window.Len(), qa.aim)
	}
	if st := qa.Stats(); st.MsgsSent+st.ReadRequests != n {
		t.Errorf("%d sends and %d reads launched, want %d in all", st.MsgsSent, st.ReadRequests, n)
	}
}

// measureBW runs a one-directional RC stream of count messages of the given
// size and returns MillionBytes/sec as the paper reports it.
func measureBW(env *sim.Env, qa, qb *QP, size, count int) float64 {
	done := env.NewEvent()
	env.Go("recv", func(p *sim.Proc) {
		for i := 0; i < count; i++ {
			qb.PostRecv(RecvWR{})
		}
		for i := 0; i < count; i++ {
			qb.CQ().Poll(p)
		}
		done.Trigger(nil)
	})
	var elapsed sim.Time
	env.Go("send", func(p *sim.Proc) {
		start := p.Now()
		for i := 0; i < count; i++ {
			qa.PostSend(SendWR{Op: OpSend, Len: size})
		}
		for i := 0; i < count; i++ {
			qa.CQ().Poll(p)
		}
		p.Wait(done)
		elapsed = p.Now() - start
	})
	env.Run()
	return float64(size) * float64(count) / elapsed.Seconds() / 1e6
}

func wanPair(t testing.TB, delay sim.Time, window int) (*sim.Env, *QP, *QP) {
	t.Helper()
	env := sim.NewEnv()
	f := NewFabric(env)
	a := f.AddHCA("a")
	b := f.AddHCA("b")
	lba := f.AddSwitch("longbowA", 2500*sim.Nanosecond)
	lbb := f.AddSwitch("longbowB", 2500*sim.Nanosecond)
	f.Connect(a, lba, DDR, DefaultCableDelay)
	f.Connect(lba, lbb, SDR, delay)
	f.Connect(lbb, b, DDR, DefaultCableDelay)
	f.Finalize()
	qa, qb := CreateRCPair(a, b, nil, nil, QPConfig{MaxInflight: window})
	return env, qa, qb
}

func TestRCPeakBandwidthCalibration(t *testing.T) {
	// Paper Fig. 5: RC peak ~980 MillionBytes/s over the SDR WAN hop for
	// large messages at zero delay.
	env, qa, qb := wanPair(t, 0, 0)
	bw := measureBW(env, qa, qb, 1<<20, 32)
	if bw < 940 || bw > 1000 {
		t.Errorf("RC peak bw = %.1f MB/s, want ~980", bw)
	}
}

func TestRCBandwidthCollapsesWithDelay(t *testing.T) {
	// Paper Fig. 5: with a 1000 us delay, 64 KB messages collapse while
	// 1 MB+ messages sustain near wire rate.
	env1, qa1, qb1 := wanPair(t, sim.Micros(1000), 0)
	bw64k := measureBW(env1, qa1, qb1, 64<<10, 64)
	env2, qa2, qb2 := wanPair(t, sim.Micros(1000), 0)
	bw4m := measureBW(env2, qa2, qb2, 4<<20, 16)
	if bw64k > 400 {
		t.Errorf("64K bw at 1ms delay = %.1f MB/s, want collapsed (<400)", bw64k)
	}
	if bw4m < 900 {
		t.Errorf("4M bw at 1ms delay = %.1f MB/s, want near wire rate (>900)", bw4m)
	}
	if bw4m < 3*bw64k {
		t.Errorf("large/medium ratio at 1ms delay = %.1f/%.1f, want >3x", bw4m, bw64k)
	}
}

func TestUDBandwidthDelayIndependent(t *testing.T) {
	// Paper Fig. 4: UD streaming bandwidth is independent of WAN delay.
	measure := func(delay sim.Time) float64 {
		env := sim.NewEnv()
		f := NewFabric(env)
		a := f.AddHCA("a")
		b := f.AddHCA("b")
		lba := f.AddSwitch("lbA", 2500*sim.Nanosecond)
		lbb := f.AddSwitch("lbB", 2500*sim.Nanosecond)
		f.Connect(a, lba, DDR, DefaultCableDelay)
		f.Connect(lba, lbb, SDR, delay)
		f.Connect(lbb, b, DDR, DefaultCableDelay)
		f.Finalize()
		cqa, cqb := NewCQ(env), NewCQ(env)
		qa := a.CreateQP(cqa, QPConfig{Transport: UD})
		qb := b.CreateQP(cqb, QPConfig{Transport: UD})
		const count = 2000
		var elapsed sim.Time
		env.Go("recv", func(p *sim.Proc) {
			for i := 0; i < count; i++ {
				qb.PostRecv(RecvWR{})
			}
			var first sim.Time
			for i := 0; i < count; i++ {
				cqb.Poll(p)
				if i == 0 {
					first = p.Now()
				}
			}
			// Steady-state rate between first and last arrival, so the
			// one-time pipeline fill (the WAN delay itself) is excluded.
			elapsed = p.Now() - first
		})
		env.Go("send", func(p *sim.Proc) {
			for i := 0; i < count; i++ {
				qa.PostSend(SendWR{Op: OpSend, Len: MaxUDPayload, DestLID: b.LID(), DestQPN: qb.QPN()})
			}
		})
		env.Run()
		return float64(MaxUDPayload) * (count - 1) / elapsed.Seconds() / 1e6
	}
	bw0 := measure(0)
	bw10ms := measure(sim.Micros(10000))
	if bw0 < 930 || bw0 > 1010 {
		t.Errorf("UD peak bw = %.1f MB/s, want ~967", bw0)
	}
	if bw10ms < bw0*0.98 {
		t.Errorf("UD bw at 10ms delay = %.1f, at 0 = %.1f; want near-equal", bw10ms, bw0)
	}
}

func TestUDDropsWithoutRecv(t *testing.T) {
	env, _, a, b, _ := backToBack(t)
	cqa, cqb := NewCQ(env), NewCQ(env)
	qa := a.CreateQP(cqa, QPConfig{Transport: UD})
	qb := b.CreateQP(cqb, QPConfig{Transport: UD})
	qa.PostSend(SendWR{Op: OpSend, Len: 100, DestLID: b.LID(), DestQPN: qb.QPN()})
	env.Run()
	if qb.Stats().RecvDrops != 1 {
		t.Errorf("RecvDrops = %d, want 1", qb.Stats().RecvDrops)
	}
}

func TestUDOversizePanics(t *testing.T) {
	env, _, a, b, _ := backToBack(t)
	_ = env
	cq := NewCQ(env)
	qa := a.CreateQP(cq, QPConfig{Transport: UD})
	defer func() {
		if recover() == nil {
			t.Fatal("oversize UD send did not panic")
		}
	}()
	qa.PostSend(SendWR{Op: OpSend, Len: MaxUDPayload + 1, DestLID: b.LID()})
}

func TestRCRetransmissionRecoversFromLoss(t *testing.T) {
	env, _, a, b, l := backToBack(t)
	qa, qb := CreateRCPair(a, b, nil, nil, QPConfig{RetryTimeout: 100 * sim.Microsecond})
	// Drop the 3rd wire packet once.
	n := 0
	l.DropFn = func(sim.Time, Crossing) bool {
		n++
		return n == 3
	}
	data := make([]byte, 3*MTU) // 3 data packets
	for i := range data {
		data[i] = byte(i)
	}
	buf := make([]byte, len(data))
	var got bool
	env.Go("recv", func(p *sim.Proc) {
		qb.PostRecv(RecvWR{Buf: buf})
		qb.CQ().Poll(p)
		got = true
	})
	env.Go("send", func(p *sim.Proc) {
		qa.PostSend(SendWR{Op: OpSend, Data: data})
		qa.CQ().Poll(p)
	})
	env.Run()
	if !got {
		t.Fatal("message never delivered despite retransmission")
	}
	if !bytes.Equal(buf, data) {
		t.Error("retransmitted payload corrupted")
	}
	if qa.Stats().Retransmits == 0 {
		t.Error("no retransmission recorded")
	}
	if l.Counters().FaultDrops != 1 {
		t.Errorf("link drops = %d, want 1", l.Counters().FaultDrops)
	}
}

func TestRCRetransmissionLostAck(t *testing.T) {
	env, _, a, b, l := backToBack(t)
	qa, qb := CreateRCPair(a, b, nil, nil, QPConfig{RetryTimeout: 100 * sim.Microsecond})
	// Drop exactly the first ack (acks are AckBytes on the wire).
	dropped := false
	l.DropFn = func(_ sim.Time, c Crossing) bool {
		if c.Wire == AckBytes && !dropped {
			dropped = true
			return true
		}
		return false
	}
	recvd := 0
	env.Go("recv", func(p *sim.Proc) {
		qb.PostRecv(RecvWR{})
		qb.CQ().Poll(p)
		recvd++
	})
	env.Go("send", func(p *sim.Proc) {
		qa.PostSend(SendWR{Op: OpSend, Len: 64})
		qa.CQ().Poll(p)
	})
	env.Run()
	if recvd != 1 {
		t.Errorf("message delivered %d times, want exactly once", recvd)
	}
	if !dropped {
		t.Error("ack was never dropped; test ineffective")
	}
}

func TestSwitchRouting(t *testing.T) {
	// a - sw1 - sw2 - b ; c hangs off sw1.
	env := sim.NewEnv()
	f := NewFabric(env)
	a, b, c := f.AddHCA("a"), f.AddHCA("b"), f.AddHCA("c")
	sw1 := f.AddSwitch("sw1", SwitchDelay)
	sw2 := f.AddSwitch("sw2", SwitchDelay)
	f.Connect(a, sw1, DDR, DefaultCableDelay)
	f.Connect(c, sw1, DDR, DefaultCableDelay)
	f.Connect(sw1, sw2, DDR, DefaultCableDelay)
	f.Connect(sw2, b, DDR, DefaultCableDelay)
	f.Finalize()
	qab, qba := CreateRCPair(a, b, nil, nil, QPConfig{})
	qac, qca := CreateRCPair(a, c, nil, nil, QPConfig{})
	okB, okC := false, false
	env.Go("b", func(p *sim.Proc) {
		qba.PostRecv(RecvWR{})
		qba.CQ().Poll(p)
		okB = true
	})
	env.Go("c", func(p *sim.Proc) {
		qca.PostRecv(RecvWR{})
		qca.CQ().Poll(p)
		okC = true
	})
	env.Go("a", func(p *sim.Proc) {
		qab.PostSend(SendWR{Op: OpSend, Len: 10})
		qac.PostSend(SendWR{Op: OpSend, Len: 10})
		qab.CQ().Poll(p)
		qac.CQ().Poll(p)
	})
	env.Run()
	if !okB || !okC {
		t.Errorf("routing failed: b=%v c=%v", okB, okC)
	}
}

func TestLongbowPairAddsAboutFiveMicroseconds(t *testing.T) {
	// Paper Fig. 3: the Longbow pair adds ~5 us to small-message latency.
	lat := func(withWAN bool) sim.Time {
		env := sim.NewEnv()
		f := NewFabric(env)
		a, b := f.AddHCA("a"), f.AddHCA("b")
		if withWAN {
			lba := f.AddSwitch("lbA", 2500*sim.Nanosecond)
			lbb := f.AddSwitch("lbB", 2500*sim.Nanosecond)
			f.Connect(a, lba, DDR, DefaultCableDelay)
			f.Connect(lba, lbb, SDR, 0)
			f.Connect(lbb, b, DDR, DefaultCableDelay)
		} else {
			f.Connect(a, b, DDR, DefaultCableDelay)
		}
		f.Finalize()
		qa, qb := CreateRCPair(a, b, nil, nil, QPConfig{})
		return pingPong(env, qa, qb, 8, 50)
	}
	base := lat(false)
	wan := lat(true)
	added := wan - base
	if added < 4*sim.Microsecond || added > 7*sim.Microsecond {
		t.Errorf("Longbow pair adds %v, want ~5us (base %v, wan %v)", added, base, wan)
	}
}

// Property: RC delivers any random message sequence exactly once, in order,
// bytes intact.
func TestPropRCReliableInOrder(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		env, _, a, b, _ := backToBack(t)
		qa, qb := CreateRCPair(a, b, nil, nil, QPConfig{MaxInflight: 1 + rng.Intn(8)})
		n := 1 + rng.Intn(20)
		msgs := make([][]byte, n)
		for i := range msgs {
			msgs[i] = make([]byte, 1+rng.Intn(10000))
			rng.Read(msgs[i])
		}
		bufs := make([][]byte, n)
		ok := true
		env.Go("recv", func(p *sim.Proc) {
			for i := range msgs {
				bufs[i] = make([]byte, len(msgs[i]))
				qb.PostRecv(RecvWR{Buf: bufs[i], Ctx: i})
			}
			for range msgs {
				c := qb.CQ().Poll(p)
				i := c.Ctx.(int)
				if c.Bytes != len(msgs[i]) {
					ok = false
				}
			}
		})
		env.Go("send", func(p *sim.Proc) {
			for i := range msgs {
				qa.PostSend(SendWR{Op: OpSend, Data: msgs[i]})
			}
			for range msgs {
				qa.CQ().Poll(p)
			}
		})
		env.Run()
		for i := range msgs {
			if !bytes.Equal(bufs[i], msgs[i]) {
				ok = false
			}
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: RDMA writes at random offsets land exactly where aimed.
func TestPropRDMAWriteOffsets(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		env, _, a, b, _ := backToBack(t)
		qa, _ := CreateRCPair(a, b, nil, nil, QPConfig{})
		region := make([]byte, 1<<16)
		want := make([]byte, 1<<16)
		mr := b.RegisterMR(region)
		n := 1 + rng.Intn(10)
		type w struct {
			off  int
			data []byte
		}
		writes := make([]w, n)
		for i := range writes {
			l := 1 + rng.Intn(8000)
			off := rng.Intn(len(region) - l)
			d := make([]byte, l)
			rng.Read(d)
			writes[i] = w{off, d}
		}
		env.Go("writer", func(p *sim.Proc) {
			for _, wr := range writes {
				qa.PostSend(SendWR{Op: OpRDMAWrite, Data: wr.data, RemoteMR: mr, RemoteOff: wr.off})
				qa.CQ().Poll(p) // serialize so overlapping writes apply in order
				copy(want[wr.off:], wr.data)
			}
		})
		env.Run()
		return bytes.Equal(region, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestStatsCounters(t *testing.T) {
	env, _, a, b, _ := backToBack(t)
	qa, qb := CreateRCPair(a, b, nil, nil, QPConfig{})
	env.Go("recv", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			qb.PostRecv(RecvWR{})
		}
		for i := 0; i < 3; i++ {
			qb.CQ().Poll(p)
		}
	})
	env.Go("send", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			qa.PostSend(SendWR{Op: OpSend, Len: 1000})
		}
		for i := 0; i < 3; i++ {
			qa.CQ().Poll(p)
		}
	})
	env.Run()
	if s := qa.Stats(); s.MsgsSent != 3 || s.BytesSent != 3000 {
		t.Errorf("sender stats = %+v", s)
	}
	if s := qb.Stats(); s.MsgsRecv != 3 || s.BytesRecv != 3000 || s.Acks != 3 {
		t.Errorf("receiver stats = %+v", s)
	}
}
