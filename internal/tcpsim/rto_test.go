package tcpsim

import (
	"errors"
	"testing"

	"repro/internal/cluster"
	"repro/internal/ib"
	"repro/internal/ipoib"
	"repro/internal/sim"
)

// rtoPair is pairStacks with the WAN link in hand, a listening server that
// reads forever, and a client that dials and writes n synthetic bytes.
func rtoPair(t *testing.T, cfg Config, n int) (env *sim.Env, tb *cluster.Testbed, client func() *Conn) {
	env = sim.NewEnv()
	tb = cluster.New(env, cluster.Config{NodesA: 1, NodesB: 1, Delay: sim.Millisecond})
	net := ipoib.NewNetwork()
	sa := NewStack(net.Attach(tb.A[0].HCA, ipoib.Datagram, 0), cfg)
	sb := NewStack(net.Attach(tb.B[0].HCA, ipoib.Datagram, 0), cfg)
	ln := sb.Listen(5000)
	env.Go("server", func(p *sim.Proc) {
		c, err := ln.Accept(p)
		for err == nil {
			_, err = readFull(p, c, nil, 1<<20)
		}
	})
	var cli *Conn
	env.Go("client", func(p *sim.Proc) {
		c, err := sa.Dial(p, sb.Addr(), 5000)
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		cli = c
		if err := c.WriteSynthetic(p, n); err != nil {
			t.Errorf("write: %v", err)
		}
	})
	return env, tb, func() *Conn { return cli }
}

// The retransmission timer counts from the last ack that made progress,
// backs off by doubling up to RTO<<maxRTOShift, and gives up with ErrReset
// once MaxRetransmits consecutive expiries went unanswered.
func TestRTOBackoffAndExhaustion(t *testing.T) {
	const (
		rto       = 10 * sim.Millisecond
		blackhole = 6 * sim.Millisecond // mid-stream: the handshake takes ~2 ms
	)
	env, tb, client := rtoPair(t, Config{RTO: rto}, 8<<20)
	tb.WAN.Link().DropFn = func(now sim.Time, c ib.Crossing) bool {
		return now >= blackhole && c.Wire > 1000 // data segments only; acks in flight still land
	}

	// Single-step the world, watching the sender's state after every event.
	var (
		lastProgress sim.Time // when sndUna last moved
		lastUna      int64
		streak       int
		fires        []sim.Time
		resetAt      sim.Time
	)
	for resetAt == 0 && env.Step() {
		c := client()
		if c == nil {
			continue
		}
		if c.sndUna != lastUna {
			lastUna, lastProgress = c.sndUna, env.Now()
		}
		if c.rtoStreak > streak {
			streak = c.rtoStreak
			fires = append(fires, env.Now())
		}
		if c.err != nil {
			resetAt = env.Now()
		}
	}
	if lastProgress < blackhole {
		t.Fatalf("last progress ack at %v, before the blackhole at %v: nothing was in flight", lastProgress, blackhole)
	}
	if len(fires) != DefaultMaxRetransmits {
		t.Fatalf("%d RTO expiries retransmitted, want MaxRetransmits = %d", len(fires), DefaultMaxRetransmits)
	}
	prev := lastProgress
	for k, at := range append(fires, resetAt) {
		shift := k
		if shift > maxRTOShift {
			shift = maxRTOShift
		}
		if want := prev + rto<<shift; at != want {
			t.Errorf("expiry %d at %v, want %v (%v after the previous deadline was set)", k, at, want, rto<<shift)
		}
		prev = at
	}
	c := client()
	if !errors.Is(c.Err(), ErrReset) {
		t.Errorf("connection error %v after exhausting the budget, want ErrReset", c.Err())
	}
	retx := c.Retransmits()
	env.Run()
	if c.Retransmits() != retx || c.rtoStreak != streak {
		t.Errorf("the timer outlived the reset: %d -> %d retransmissions", retx, c.Retransmits())
	}
	env.Shutdown()
}

// reset stops the timer: a connection torn down with data outstanding
// leaves no deadline behind, so the world drains without the clock ever
// reaching one (every deadline armed after the handshake lies beyond RTO).
func TestResetStopsRTO(t *testing.T) {
	const resetAt = 6 * sim.Millisecond
	env, _, client := rtoPair(t, Config{}, 8<<20)
	env.At(resetAt, func() {
		c := client()
		if c.unacked.Len() == 0 {
			t.Error("nothing outstanding at the reset: the timer is not armed")
		}
		c.reset(ErrReset)
	})
	if end := env.Run(); end >= DefaultRTO {
		t.Errorf("world drained at %v: a stopped RTO deadline (>= %v) still moved the clock", end, DefaultRTO)
	}
	env.Shutdown()
}

// A loss-free stream re-arms the timer on every ack and never lets it
// expire. Ten thousand segments must not leave ten thousand superseded
// deadlines in the event heap: what is pending stays within what a window
// of segments in flight accounts for.
func TestLossFreeStreamHoldsOneRTOEntry(t *testing.T) {
	const window = 64 << 10
	env, _, client := rtoPair(t, Config{Window: window}, 0)
	var mss int
	env.Go("stream", func(p *sim.Proc) {
		for client() == nil {
			p.Sleep(sim.Millisecond)
		}
		mss = client().stack.MSS()
		if err := client().WriteSynthetic(p, 10000*mss); err != nil {
			t.Errorf("write: %v", err)
		}
	})
	maxPending := 0
	for env.Step() {
		if n := env.Pending(); n > maxPending {
			maxPending = n
		}
	}
	c := client()
	if c.sndUna < int64(10000*mss) || c.Retransmits() != 0 {
		t.Fatalf("stream incomplete or lossy: %d bytes acked, %d retransmissions", c.sndUna, c.Retransmits())
	}
	// Each segment in flight is a handful of entries (wire, device and
	// protocol stages, its ack); a superseded deadline per ack would add
	// one entry per segment sent in the last RTO — hundreds here.
	if limit := 4 * window / mss; maxPending > limit {
		t.Errorf("up to %d entries pending for a %d-segment window, want <= %d", maxPending, window/mss, limit)
	}
	env.Shutdown()
}
