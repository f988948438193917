package ib_test

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/ib"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// deadLinkWorld builds two HCAs joined by a single link whose injector is
// permanently down, with an RC pair across it.
func deadLinkWorld(t *testing.T, cfg ib.QPConfig) (*sim.Env, *ib.QP, *ib.QP) {
	t.Helper()
	env := sim.NewEnv()
	f := ib.NewFabric(env)
	a, b := f.AddHCA("a"), f.AddHCA("b")
	link := f.Connect(a, b, ib.DDR, ib.DefaultCableDelay)
	f.Finalize()
	(&fault.Plan{WANDown: true}).ArmWAN(link)
	qa, qb := ib.CreateRCPair(a, b, nil, nil, cfg)
	return env, qa, qb
}

// TestRCDeadLinkRetryExceeded is the regression test for the infinite
// retransmission bug: before the retry budget existed, a permanently dead
// link made the RC retransmit timer re-arm forever and the simulation
// never drained. Now the send must complete with RETRY_EXCEEDED after
// RetryLimit retransmissions, and the event count must stay bounded.
func TestRCDeadLinkRetryExceeded(t *testing.T) {
	env, qa, _ := deadLinkWorld(t, ib.QPConfig{RetryLimit: 3, RetryTimeout: sim.Millisecond})
	var got ib.Completion
	env.Go("send", func(p *sim.Proc) {
		qa.PostSend(ib.SendWR{Op: ib.OpSend, Len: 4096})
		got = qa.CQ().Poll(p)
		env.Stop()
	})
	env.Run()
	env.Shutdown()
	if got.Status != ib.StatusRetryExceeded {
		t.Fatalf("completion status = %v, want RETRY_EXCEEDED", got.Status)
	}
	if !qa.Errored() {
		t.Error("QP not in error state after retry exhaustion")
	}
	// 3 retries of one message cannot take more than a handful of timer
	// and packet events; an unbounded count means the timer re-armed past
	// the budget.
	if n := env.Executed(); n > 200 {
		t.Errorf("executed %d events for 3 retries; retransmission did not stop", n)
	}
}

// TestRCDeadLinkFlushesInflight checks that the work queued behind the
// doomed message drains with FLUSHED rather than hanging or retrying.
func TestRCDeadLinkFlushesInflight(t *testing.T) {
	env, qa, _ := deadLinkWorld(t, ib.QPConfig{RetryLimit: 2, RetryTimeout: sim.Millisecond})
	const posts = 4
	var statuses []ib.Status
	env.Go("send", func(p *sim.Proc) {
		for i := 0; i < posts; i++ {
			qa.PostSend(ib.SendWR{Op: ib.OpSend, Len: 1024})
		}
		for i := 0; i < posts; i++ {
			statuses = append(statuses, qa.CQ().Poll(p).Status)
		}
		env.Stop()
	})
	env.Run()
	env.Shutdown()
	if len(statuses) != posts {
		t.Fatalf("got %d completions, want %d", len(statuses), posts)
	}
	if statuses[0] != ib.StatusRetryExceeded {
		t.Errorf("first completion %v, want RETRY_EXCEEDED", statuses[0])
	}
	for i, st := range statuses[1:] {
		if st != ib.StatusFlushed {
			t.Errorf("completion %d = %v, want FLUSHED", i+1, st)
		}
	}
}

// dropInstants counts the "drop <pkt>" wire instants in the recorder's
// packet log that carry the given reason ("" counts every drop). The log is
// a bounded ring, so an eviction would undercount: that fails the test.
func dropInstants(t *testing.T, rec *telemetry.Recorder, reason string) (n int64) {
	t.Helper()
	if d := rec.Dropped(); d != 0 {
		t.Fatalf("recorder evicted %d records; the packet log is incomplete", d)
	}
	for _, in := range rec.Instants() {
		if strings.HasPrefix(in.Name, "drop ") && (reason == "" || in.Reason == reason) {
			n++
		}
	}
	return n
}

// TestDropAccountingAgreement pushes lossy traffic across one link and
// checks that the three independent drop ledgers agree exactly: the link's
// FaultDrops port counters, the ib.link.drops telemetry counter, and the
// packet log's count of "drop" wire instants.
func TestDropAccountingAgreement(t *testing.T) {
	env := sim.NewEnv()
	reg, rec := telemetry.NewRegistry(), telemetry.NewRecorder(0, 0)
	telemetry.Attach(env, &telemetry.Telemetry{Metrics: reg, Spans: rec})
	f := ib.NewFabric(env)
	a, b := f.AddHCA("a"), f.AddHCA("b")
	link := f.Connect(a, b, ib.DDR, ib.DefaultCableDelay)
	f.Finalize()

	(&fault.Plan{Seed: 42, WANLoss: 0.05}).ArmWAN(link)

	qa, qb := ib.CreateRCPair(a, b, nil, nil, ib.QPConfig{RetryLimit: 50, RetryTimeout: sim.Millisecond})
	const msgs = 200
	env.Go("recv", func(p *sim.Proc) {
		for i := 0; i < msgs; i++ {
			qb.PostRecv(ib.RecvWR{})
		}
		for i := 0; i < msgs; i++ {
			qb.CQ().Poll(p)
		}
	})
	env.Go("send", func(p *sim.Proc) {
		for i := 0; i < msgs; i++ {
			qa.PostSend(ib.SendWR{Op: ib.OpSend, Len: 2048})
		}
		for i := 0; i < msgs; i++ {
			qa.CQ().Poll(p)
		}
		env.Stop()
	})
	env.Run()
	env.Shutdown()

	drops := link.Counters().FaultDrops
	if drops == 0 {
		t.Fatal("no drops at 5% loss over 200 messages; injector not armed?")
	}
	if got := reg.Counter("ib.link.drops").Value(); got != drops {
		t.Errorf("telemetry ib.link.drops = %d, FaultDrops = %d", got, drops)
	}
	if got := dropInstants(t, rec, "fault"); got != drops {
		t.Errorf("drop instants = %d, FaultDrops = %d", got, drops)
	}
}

// TestThreeLedgerDropAccounting drives all three loss mechanisms in one
// run — injected Bernoulli drops on the narrow hop, bounded-queue overflow
// on the same hop (DDR arrivals against an SDR drain), and
// unreachable-route drops once the only path is swept away — and checks
// that the three ledgers are disjoint and each equals the packet log's
// count of drop instants carrying its reason, with no drop of any other
// reason logged.
func TestThreeLedgerDropAccounting(t *testing.T) {
	env := sim.NewEnv()
	reg, rec := telemetry.NewRegistry(), telemetry.NewRecorder(0, 0)
	telemetry.Attach(env, &telemetry.Telemetry{Metrics: reg, Spans: rec})
	f := ib.NewFabric(env)
	a, b := f.AddHCA("a"), f.AddHCA("b")
	s1 := f.AddSwitch("s1", ib.SwitchDelay)
	s2 := f.AddSwitch("s2", ib.SwitchDelay)
	f.Connect(a, s1, ib.DDR, ib.DefaultCableDelay)
	mid := f.Connect(s1, s2, ib.SDR, 50*sim.Microsecond)
	f.Connect(s2, b, ib.DDR, ib.DefaultCableDelay)
	f.Finalize()
	if err := mid.ConfigureQueue(ib.QueueConfig{QueueBytes: 16 << 10}); err != nil {
		t.Fatal(err)
	}
	(&fault.Plan{Seed: 42, WANLoss: 0.05}).ArmWAN(mid)
	// The only path dies at 20ms, after the burst has drained; reactive
	// detection is off so the verdict comes from the schedule alone.
	f.MonitorLink(mid, "s1-s2", []ib.HealthTransition{{At: 20 * sim.Millisecond, Down: true}})
	if err := f.EnableFailover(ib.HealthConfig{DebounceDown: 250 * sim.Microsecond, TimeoutThreshold: -1}); err != nil {
		t.Fatal(err)
	}
	// A wide-open send window: 64 in-flight 2 KB messages against a 16 KB
	// bound on the narrow hop guarantees tail drops alongside the
	// Bernoulli losses.
	qa, qb := ib.CreateRCPair(a, b, nil, nil, ib.QPConfig{
		RetryLimit: 100, RetryTimeout: 200 * sim.Microsecond, MaxInflight: 64,
	})
	const msgs = 100
	env.Go("recv", func(p *sim.Proc) {
		for i := 0; i < msgs; i++ {
			qb.PostRecv(ib.RecvWR{})
		}
		for i := 0; i < msgs; i++ {
			qb.CQ().Poll(p)
		}
	})
	var tail ib.Status
	env.Go("send", func(p *sim.Proc) {
		for i := 0; i < msgs; i++ {
			qa.PostSend(ib.SendWR{Op: ib.OpSend, Len: 2048})
		}
		for i := 0; i < msgs; i++ {
			qa.CQ().Poll(p)
		}
		// Past the sweep the path is gone: this send must fail through the
		// unreachable ledger, not hang.
		p.Sleep(25 * sim.Millisecond)
		qa.PostSend(ib.SendWR{Op: ib.OpSend, Len: 2048})
		tail = qa.CQ().Poll(p).Status
		env.Stop()
	})
	env.Run()
	env.Shutdown()

	c := mid.Counters()
	inj, ovf, unr := c.FaultDrops, c.XmitDiscards, f.NoRouteDrops()
	if inj == 0 || ovf == 0 || unr == 0 {
		t.Fatalf("want every ledger driven: injected=%d overflow=%d unreachable=%d", inj, ovf, unr)
	}
	if tail == ib.StatusOK {
		t.Error("post-sweep send completed OK; want an error status via the unreachable drop")
	}
	logged := dropInstants(t, rec, "")
	for _, l := range []struct {
		reason string
		ledger int64
	}{{"fault", inj}, {"overflow", ovf}, {"unreachable", unr}} {
		if got := dropInstants(t, rec, l.reason); got != l.ledger {
			t.Errorf("drop instants with reason %q = %d, ledger = %d", l.reason, got, l.ledger)
		}
	}
	if total := inj + ovf + unr; total != logged {
		t.Errorf("ledgers sum to %d (injected=%d overflow=%d unreachable=%d), the packet log holds %d drops",
			total, inj, ovf, unr, logged)
	}
	if got := reg.Counter("ib.link.drops").Value(); got != inj {
		t.Errorf("telemetry ib.link.drops = %d, want %d", got, inj)
	}
	if got := reg.Counter("wan.link.overflow.drops").Value(); got != ovf {
		t.Errorf("telemetry wan.link.overflow.drops = %d, want %d", got, ovf)
	}
	if got := reg.Counter("ib.route.unreachable.drops").Value(); got != unr {
		t.Errorf("telemetry ib.route.unreachable.drops = %d, want %d", got, unr)
	}
}

// udDropped sends n datagrams from one UD QP to another across a lossy link
// and returns the indices that never arrived. With second set, another flow
// between two other HCAs crosses the same link, interleaved with the first.
func udDropped(t *testing.T, n int, second bool) []int {
	t.Helper()
	env := sim.NewEnv()
	defer env.Shutdown()
	f := ib.NewFabric(env)
	s1, s2 := f.AddSwitch("s1", ib.SwitchDelay), f.AddSwitch("s2", ib.SwitchDelay)
	a1, a2, b1, b2 := f.AddHCA("a1"), f.AddHCA("a2"), f.AddHCA("b1"), f.AddHCA("b2")
	f.Connect(a1, s1, ib.DDR, ib.DefaultCableDelay)
	f.Connect(a2, s1, ib.DDR, ib.DefaultCableDelay)
	lossy := f.Connect(s1, s2, ib.DDR, 10*sim.Microsecond)
	f.Connect(s2, b1, ib.DDR, ib.DefaultCableDelay)
	f.Connect(s2, b2, ib.DDR, ib.DefaultCableDelay)
	f.Finalize()
	(&fault.Plan{Seed: 3, WANLoss: 0.1}).ArmWAN(lossy)

	flow := func(from, to *ib.HCA, offset sim.Time, arrived map[int]bool) {
		tx := from.CreateQP(ib.NewCQ(env), ib.QPConfig{Transport: ib.UD})
		rx := to.CreateQP(ib.NewCQ(env), ib.QPConfig{Transport: ib.UD})
		for i := 0; i < n; i++ {
			rx.PostRecv(ib.RecvWR{})
		}
		rx.CQ().SetHandler(func(c ib.Completion) { arrived[c.Meta.(int)] = true })
		for i := 0; i < n; i++ {
			env.At(offset+sim.Time(i)*sim.Microsecond, func() {
				tx.PostSend(ib.SendWR{Op: ib.OpSend, Len: 1024, DestLID: to.LID(), DestQPN: rx.QPN(), Meta: i})
			})
		}
	}
	arrived := map[int]bool{}
	flow(a1, b1, 0, arrived)
	if second {
		flow(a2, b2, sim.Microsecond/2, map[int]bool{})
	}
	env.Run()
	var lost []int
	for i := 0; i < n; i++ {
		if !arrived[i] {
			lost = append(lost, i)
		}
	}
	return lost
}

// TestUDVerdictsIndependentOfOtherFlows checks that a drop verdict is a
// function of the packet alone: a UD flow across a lossy link loses the same
// datagrams whether or not a second flow shares the link.
func TestUDVerdictsIndependentOfOtherFlows(t *testing.T) {
	const n = 400
	alone, shared := udDropped(t, n, false), udDropped(t, n, true)
	if len(alone) == 0 {
		t.Fatal("no datagram lost at 10% loss")
	}
	if !slices.Equal(alone, shared) {
		t.Errorf("datagrams lost alone %v, beside a second flow %v", alone, shared)
	}
}
