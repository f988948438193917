package ib

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"repro/internal/sim"
)

// The lossy run below, on the commit where every launch scheduled a retry
// timeout event of its own: the FNV-1a hash of its completion log, its
// Executed() count, and how many of those events were timeouts that came up
// after their transfer had completed (or its QP had errored) and did nothing.
const (
	lossyRCLogHash    = 0xde50f7da0e1ac1f0
	lossyRCPerLaunch  = 1360
	lossyRCNoopExpiry = 75
)

// TestLossyRCMatchesPerLaunchTimeouts pins a seeded lossy RC run against the
// per-launch retry timeouts the QP's one timer replaced: two QPs on one CQ
// interleave sends, notifying RDMA writes and RDMA reads under random loss;
// retries back off from a short base, and a blackhole makes the first QP
// exhaust its budget (five retries: shifts 0 to 5) and flush. The full
// completion stream — time, QPN, op, status, context — must hash as it did,
// and the run must dispatch exactly the old events less the timeouts that
// retransmitted nothing.
func TestLossyRCMatchesPerLaunchTimeouts(t *testing.T) {
	log, executed, st := lossyRCRun()
	h := fnv.New64a()
	for _, line := range log {
		fmt.Fprintln(h, line)
	}
	t.Logf("%d completions, %d events; QP 1 %+v; QP 2 %+v", len(log), executed, st[0], st[1])
	if st[0].RetryExhausted != 1 || st[0].Flushed == 0 {
		t.Errorf("the blackholed QP gave up %d times and flushed %d requests, want 1 and some", st[0].RetryExhausted, st[0].Flushed)
	}
	if st[1].Retransmits == 0 || st[1].RetryExhausted != 0 {
		t.Errorf("the lossy QP retransmitted %d times and gave up %d, want some and none", st[1].Retransmits, st[1].RetryExhausted)
	}
	if got := h.Sum64(); got != lossyRCLogHash {
		t.Errorf("completion log hashes to %#x, want %#x", got, uint64(lossyRCLogHash))
	}
	if want := int64(lossyRCPerLaunch - lossyRCNoopExpiry); executed != want {
		t.Errorf("Executed() = %d, want %d (%d less %d expired no-op timeouts)", executed, want, lossyRCPerLaunch, lossyRCNoopExpiry)
	}
}

func lossyRCRun() (log []string, executed int64, st [2]Stats) {
	env := sim.NewEnv()
	defer env.Shutdown()
	f := NewFabric(env)
	a, b := f.AddHCA("a"), f.AddHCA("b")
	sw := f.AddSwitch("sw", SwitchDelay)
	rng := rand.New(rand.NewSource(11))
	var dark [2]int32 // the blackholed pair's QPNs, a's then b's
	drop := func(now sim.Time, c Crossing) bool {
		if now >= 120*sim.Microsecond && (c.Src == a.lid && c.QP == dark[0] || c.Src == b.lid && c.QP == dark[1]) {
			return true
		}
		return rng.Intn(7) == 0
	}
	f.Connect(a, sw, DDR, DefaultCableDelay).DropFn = drop
	f.Connect(sw, b, DDR, DefaultCableDelay).DropFn = drop
	f.Finalize()

	cqa, cqb := NewCQ(env), NewCQ(env)
	q1, p1 := CreateRCPair(a, b, cqa, cqb, QPConfig{RetryLimit: 5, RetryTimeout: 10 * sim.Microsecond, MaxInflight: 3})
	q2, _ := CreateRCPair(a, b, cqa, cqb, QPConfig{RetryLimit: -1, RetryTimeout: 10 * sim.Microsecond, MaxInflight: 4})
	dark = [2]int32{int32(q1.qpn), int32(p1.qpn)}
	mrb := b.RegisterVirtualMR(1 << 16)
	for _, cq := range []*CQ{cqa, cqb} {
		side := "a"
		if cq == cqb {
			side = "b"
		}
		cq.SetHandler(func(c Completion) {
			log = append(log, fmt.Sprintf("%d %s qp%d %v %v %v %v", env.Now(), side, c.QPN, c.Op, c.Status, c.Ctx, c.Meta))
		})
	}
	for i := 0; i < 48; i++ {
		env.At(sim.Time(i)*4*sim.Microsecond, func() {
			size := 1 + rng.Intn(3*MTU)
			for _, q := range []*QP{q1, q2} {
				switch (i + q.qpn) % 3 {
				case 0:
					q.remote.PostRecv(RecvWR{Ctx: -i})
					q.PostSend(SendWR{Op: OpSend, Len: size, Ctx: i})
				case 1:
					q.PostSend(SendWR{Op: OpRDMAWrite, Len: size, RemoteMR: mrb, NotifyRemote: true, Ctx: i, Meta: i})
				case 2:
					q.PostSend(SendWR{Op: OpRDMARead, Len: size, RemoteMR: mrb, Ctx: i})
				}
			}
		})
	}
	env.Run()
	return log, env.Executed(), [2]Stats{q1.Stats(), q2.Stats()}
}
