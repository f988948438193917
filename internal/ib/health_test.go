package ib

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/telemetry"
)

// diamond builds a—s1—s2—b with an alternate s1—s3—s2 path, returning the
// direct (shorter, BFS-preferred) s1—s2 link.
func diamond(t *testing.T) (*sim.Env, *Fabric, *HCA, *HCA, *Switch, *Link) {
	t.Helper()
	env := sim.NewEnv()
	f := NewFabric(env)
	a := f.AddHCA("a")
	b := f.AddHCA("b")
	s1 := f.AddSwitch("s1", SwitchDelay)
	s2 := f.AddSwitch("s2", SwitchDelay)
	s3 := f.AddSwitch("s3", SwitchDelay)
	f.Connect(a, s1, DDR, DefaultCableDelay)
	l12 := f.Connect(s1, s2, SDR, 50*sim.Microsecond)
	f.Connect(s1, s3, SDR, 50*sim.Microsecond)
	f.Connect(s3, s2, SDR, 50*sim.Microsecond)
	f.Connect(s2, b, DDR, DefaultCableDelay)
	f.Finalize()
	return env, f, a, b, s1, l12
}

func TestDebounceEdges(t *testing.T) {
	ms := sim.Millisecond
	us := sim.Microsecond
	raw := []HealthTransition{
		{At: 1 * ms, Down: true}, // flap: back up before the debounce expires
		{At: 1*ms + 100*us, Down: false},
		{At: 2 * ms, Down: true},  // real outage
		{At: 5 * ms, Down: false}, // real recovery
		{At: 7 * ms, Down: false}, // restates the current state: no edge
	}
	edges := debounceEdges(raw, 250*us, 1*ms)
	want := []verdictEdge{
		{at: 2*ms + 250*us, down: true, rawAt: 2 * ms},
		{at: 6 * ms, down: false, rawAt: 5 * ms},
	}
	if len(edges) != len(want) {
		t.Fatalf("debounceEdges = %+v, want %+v", edges, want)
	}
	for i := range want {
		if edges[i] != want[i] {
			t.Errorf("edge %d = %+v, want %+v", i, edges[i], want[i])
		}
	}
	if len(debounceEdges(nil, 250*us, 1*ms)) != 0 {
		t.Error("nil raw timeline produced edges")
	}
	// A leading up-edge restates the initial state and must not emit.
	if got := debounceEdges([]HealthTransition{{At: 1 * ms, Down: false}}, 250*us, 1*ms); len(got) != 0 {
		t.Errorf("leading up edge emitted %+v", got)
	}
}

func TestEnableFailoverRejectsNegativeDebounce(t *testing.T) {
	_, f, _, _, _, l12 := diamond(t)
	f.MonitorLink(l12, "s1-s2", nil)
	if err := f.EnableFailover(HealthConfig{DebounceDown: -1}); err == nil {
		t.Fatal("negative debounce accepted")
	}
}

// TestFailoverRejectsUnscheduledAcrossEnvs: blaming a link with no outage
// schedule reads both ends' state, so a fabric whose devices span two
// environments refuses one, while a scheduled link is accepted there.
func TestFailoverRejectsUnscheduledAcrossEnvs(t *testing.T) {
	enable := func(schedule []HealthTransition) error {
		env := sim.NewEnv()
		env.SetShardWorkers(2)
		views := env.Partition(2)
		f := NewFabric(env)
		s1 := f.AddSwitch("s1", SwitchDelay)
		f.UseEnv(views[1])
		s2 := f.AddSwitch("s2", SwitchDelay)
		l12 := f.Connect(s1, s2, SDR, 50*sim.Microsecond)
		f.Finalize()
		f.MonitorLink(l12, "s1-s2", schedule)
		return f.EnableFailover(HealthConfig{})
	}
	if err := enable(nil); err == nil {
		t.Error("unscheduled link accepted on a fabric spanning two environments")
	}
	if err := enable([]HealthTransition{{At: sim.Millisecond, Down: true}}); err != nil {
		t.Errorf("scheduled link rejected: %v", err)
	}
}

// TestScheduledFailoverReroutes kills the monitored direct link on a
// schedule and checks the routing tables swap to the alternate path at the
// debounced verdict time, traffic sent after the swap completes, and the
// epoch counters account exactly one transition.
func TestScheduledFailoverReroutes(t *testing.T) {
	env, f, a, b, s1, l12 := diamond(t)
	f.MonitorLink(l12, "s1-s2", []HealthTransition{{At: sim.Millisecond, Down: true}})
	if err := f.EnableFailover(HealthConfig{DebounceDown: 250 * sim.Microsecond}); err != nil {
		t.Fatal(err)
	}
	if p := s1.routeTo(b.LID()); p == nil || p.link != l12 {
		t.Fatal("initial route does not use the direct link")
	}
	qa, qb := CreateRCPair(a, b, nil, nil, QPConfig{})
	var before, after bool
	env.Go("recv", func(p *sim.Proc) {
		for i := 0; i < 2; i++ {
			qb.PostRecv(RecvWR{})
			qb.CQ().Poll(p)
		}
	})
	env.Go("send", func(p *sim.Proc) {
		qa.PostSend(SendWR{Op: OpSend, Len: 4096})
		if c := qa.CQ().Poll(p); c.Status != StatusOK {
			t.Errorf("pre-kill send completed with %v", c.Status)
		}
		before = true
		p.Sleep(2*sim.Millisecond - p.Now())
		qa.PostSend(SendWR{Op: OpSend, Len: 4096})
		if c := qa.CQ().Poll(p); c.Status != StatusOK {
			t.Errorf("post-kill send completed with %v", c.Status)
		}
		after = true
	})
	env.Run()
	if !before || !after {
		t.Fatalf("sends incomplete: before=%v after=%v", before, after)
	}
	if p := s1.routeTo(b.LID()); p == nil || p.link == l12 {
		t.Error("route still uses the dead link after the verdict")
	}
	if got := f.RouteEpochs(); got != 1 {
		t.Errorf("RouteEpochs = %d, want 1", got)
	}
	if got := f.HealthTransitions(); got != 1 {
		t.Errorf("HealthTransitions = %d, want 1", got)
	}
	if got := f.NoRouteDrops(); got != 0 {
		t.Errorf("NoRouteDrops = %d, want 0 (alternate path exists)", got)
	}
}

// TestUnreachableDropErrorsQP removes the only path mid-run: the switch
// counts and discards every attempt of the send after the verdict, and the
// send degrades to an explicit StatusRetryExceeded completion when its retry
// budget runs out, never a hang or a panic.
func TestUnreachableDropErrorsQP(t *testing.T) {
	env := sim.NewEnv()
	rec := telemetry.NewRecorder(0, 0)
	telemetry.Attach(env, &telemetry.Telemetry{Spans: rec})
	f := NewFabric(env)
	a := f.AddHCA("a")
	b := f.AddHCA("b")
	s1 := f.AddSwitch("s1", SwitchDelay)
	s2 := f.AddSwitch("s2", SwitchDelay)
	f.Connect(a, s1, DDR, DefaultCableDelay)
	l12 := f.Connect(s1, s2, SDR, 50*sim.Microsecond)
	f.Connect(s2, b, DDR, DefaultCableDelay)
	f.Finalize()
	f.MonitorLink(l12, "s1-s2", []HealthTransition{{At: sim.Millisecond, Down: true}})
	if err := f.EnableFailover(HealthConfig{DebounceDown: 250 * sim.Microsecond}); err != nil {
		t.Fatal(err)
	}
	qa, _ := CreateRCPair(a, b, nil, nil, QPConfig{RetryTimeout: 100 * sim.Microsecond, RetryLimit: 30})
	var status Status
	env.Go("send", func(p *sim.Proc) {
		p.Sleep(2 * sim.Millisecond)
		qa.PostSend(SendWR{Op: OpSend, Len: 4096})
		status = qa.CQ().Poll(p).Status
	})
	env.Run()
	if status != StatusRetryExceeded {
		t.Fatalf("partitioned send completed with %v, want %v", status, StatusRetryExceeded)
	}
	if got := f.NoRouteDrops(); got < 1 {
		t.Errorf("NoRouteDrops = %d, want >= 1", got)
	}
	// The drop is logged at the forwarding instant: s1 looks the route up as
	// the packet leaves its forwarding stage, not as it arrives.
	var sent, dropped sim.Time
	for _, in := range rec.Instants() {
		switch {
		case in.Name == "tx data" && sent == 0:
			sent = in.Time
		case in.Reason == "unreachable" && dropped == 0:
			dropped = in.Time
		}
	}
	if want := sent + wireTime(MTU+HeaderRC, DDR) + DefaultCableDelay + SwitchDelay; dropped != want {
		t.Errorf("first unreachable drop stamped %v, want tx %v + serialization + cable + forwarding = %v", dropped, sent, want)
	}
}

// TestReactiveDetection runs total loss on a monitored link with no outage
// schedule: consecutive retry timeouts must reach the threshold, declare
// the link dead and re-sweep. With no alternate path the later attempts are
// dropped unreachable, and the QP fails exactly when its retry budget runs
// out — the switch tells the sender nothing, as on IB hardware.
func TestReactiveDetection(t *testing.T) {
	env := sim.NewEnv()
	f := NewFabric(env)
	a := f.AddHCA("a")
	b := f.AddHCA("b")
	s1 := f.AddSwitch("s1", SwitchDelay)
	f.Connect(a, s1, DDR, DefaultCableDelay)
	l1b := f.Connect(s1, b, SDR, 50*sim.Microsecond)
	f.Finalize()
	f.MonitorLink(l1b, "s1-b", nil)
	if err := f.EnableFailover(HealthConfig{TimeoutThreshold: 3}); err != nil {
		t.Fatal(err)
	}
	l1b.DropFn = func(sim.Time, Crossing) bool { return true } // total loss
	cfg := QPConfig{RetryTimeout: 100 * sim.Microsecond, RetryLimit: 30}
	qa, qb := CreateRCPair(a, b, nil, nil, cfg)
	qb.PostRecv(RecvWR{})
	var status Status
	var done sim.Time
	env.Go("send", func(p *sim.Proc) {
		qa.PostSend(SendWR{Op: OpSend, Len: 4096})
		status = qa.CQ().Poll(p).Status
		done = p.Now()
	})
	env.Run()
	if status != StatusRetryExceeded {
		t.Fatalf("send over dead link completed with %v, want %v", status, StatusRetryExceeded)
	}
	if got := f.HealthTransitions(); got != 1 {
		t.Errorf("HealthTransitions = %d, want 1 (reactive death)", got)
	}
	if got := f.RouteEpochs(); got != 1 {
		t.Errorf("RouteEpochs = %d, want 1", got)
	}
	if got := f.NoRouteDrops(); got < 1 {
		t.Errorf("NoRouteDrops = %d, want >= 1", got)
	}
	// Attempt k launches one SendOverhead after its post or timeout and
	// waits RetryTimeout << min(k, maxBackoffShift); the last attempt's
	// timeout is the budget's end.
	var want sim.Time
	for k := 0; k <= cfg.RetryLimit; k++ {
		want += SendOverhead + cfg.RetryTimeout<<min(k, maxBackoffShift)
	}
	if done != want {
		t.Errorf("send failed at %v, want the retry budget's end %v", done, want)
	}
}
