package sdp

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/topo"
)

func testbed(delay sim.Time) (*sim.Env, *cluster.Testbed) {
	env := sim.NewEnv()
	tb := cluster.New(env, cluster.Config{NodesA: 1, NodesB: 1, Delay: delay})
	return env, tb
}

func TestEchoBcopy(t *testing.T) {
	env, tb := testbed(sim.Micros(100))
	defer env.Shutdown()
	ln := Listen(tb.B[0], 7000)
	defer ln.Close()
	msg := []byte("hello sdp over the WAN")
	var echoed []byte
	env.Go("srv", func(p *sim.Proc) {
		c := ln.Accept(p)
		c.Write(p, c.ReadFull(p, len(msg)))
	})
	env.Go("cli", func(p *sim.Proc) {
		c := Dial(p, tb.A[0], tb.B[0], 7000)
		c.Write(p, msg)
		echoed = c.ReadFull(p, len(msg))
		env.Stop()
	})
	env.Run()
	if !bytes.Equal(echoed, msg) {
		t.Errorf("echo = %q", echoed)
	}
}

// A connection has no process of its own: the sender is a sim.Server and
// the receiver the CQ's completion handler, so once the applications have
// returned nothing is left live.
func TestConnsStartNoProcess(t *testing.T) {
	env, tb := testbed(sim.Micros(100))
	defer env.Shutdown()
	base := env.LiveProcs()
	ln := Listen(tb.B[0], 7000)
	defer ln.Close()
	const bcopy, zcopy = 40000, 100000
	var got []byte
	env.Go("srv", func(p *sim.Proc) { got = ln.Accept(p).ReadFull(p, bcopy+zcopy) })
	env.Go("cli", func(p *sim.Proc) {
		c := Dial(p, tb.A[0], tb.B[0], 7000)
		c.WriteSynthetic(p, bcopy)
		c.WriteSynthetic(p, zcopy)
	})
	env.Run()
	if len(got) != bcopy+zcopy {
		t.Fatalf("server read %d bytes, want %d", len(got), bcopy+zcopy)
	}
	if n := env.LiveProcs() - base; n != 0 {
		t.Errorf("%d processes live after both applications returned, want 0", n)
	}
}

func TestZcopyIntegrity(t *testing.T) {
	env, tb := testbed(sim.Micros(100))
	defer env.Shutdown()
	ln := Listen(tb.B[0], 7000)
	defer ln.Close()
	payload := make([]byte, 300000) // well above the zcopy threshold
	rand.New(rand.NewSource(4)).Read(payload)
	var got []byte
	env.Go("srv", func(p *sim.Proc) {
		c := ln.Accept(p)
		got = c.ReadFull(p, len(payload))
		env.Stop()
	})
	env.Go("cli", func(p *sim.Proc) {
		c := Dial(p, tb.A[0], tb.B[0], 7000)
		c.Write(p, payload)
	})
	env.Run()
	if !bytes.Equal(got, payload) {
		t.Error("zcopy payload corrupted")
	}
}

// throughput measures a one-way synthetic stream of writeChunk-sized
// application writes, in MillionBytes/s.
func throughput(env *sim.Env, tb *cluster.Testbed, total, writeChunk, zthr int) float64 {
	ln := Listen(tb.B[0], 7100)
	defer ln.Close()
	var srv *Conn
	env.Go("srv", func(p *sim.Proc) { srv = ln.Accept(p) })
	var elapsed sim.Time
	env.Go("cli", func(p *sim.Proc) {
		c := Dial(p, tb.A[0], tb.B[0], 7100)
		if zthr != 0 {
			c.SetZcopyThreshold(zthr)
		}
		start := p.Now()
		for sent := 0; sent < total; sent += writeChunk {
			c.WriteSynthetic(p, writeChunk)
		}
		// Drain: wait until everything has been delivered.
		for srv == nil || srv.Delivered() < int64(total) {
			p.Sleep(100 * sim.Microsecond)
		}
		elapsed = p.Now() - start
		env.Stop()
	})
	env.Run()
	return float64(total) / elapsed.Seconds() / 1e6
}

func TestSDPBeatsIPoIBCeiling(t *testing.T) {
	// The related-work claim: SDP achieves near-wire-speed over the
	// Longbows, far above IPoIB's host-processing ceiling (~445/888).
	env, tb := testbed(0)
	defer env.Shutdown()
	bw := throughput(env, tb, 64<<20, 1<<20, 0)
	if bw < 930 {
		t.Errorf("SDP zero-delay throughput = %.1f MB/s, want near wire (~960+)", bw)
	}
}

func TestZcopyVsBcopyAtHighDelay(t *testing.T) {
	// Writes block until the transfer's buffers are reusable, so each
	// zcopy write pays a fixed handshake (SrcAvail + read request +
	// RdmaRdCompl) and then streams the whole region — with large
	// application writes the handshake amortizes and zcopy approaches
	// wire rate, while bcopy stays pinned at window x chunk / RTT.
	zc := func() float64 {
		env, tb := testbed(sim.Micros(1000))
		defer env.Shutdown()
		return throughput(env, tb, 64<<20, 8<<20, 0) // default threshold: zcopy
	}()
	bc := func() float64 {
		env, tb := testbed(sim.Micros(1000))
		defer env.Shutdown()
		return throughput(env, tb, 64<<20, 8<<20, 1<<30) // force bcopy
	}()
	if zc < 2*bc {
		t.Errorf("zcopy (%.1f) not clearly above bcopy (%.1f) at 1ms", zc, bc)
	}
	if bc > 300 {
		t.Errorf("bcopy at 1ms = %.1f, expected window-limited (~256)", bc)
	}
}

func TestDialWithoutListenerPanics(t *testing.T) {
	env, tb := testbed(0)
	defer env.Shutdown()
	defer func() {
		if recover() == nil {
			t.Fatal("dial to closed port did not panic")
		}
	}()
	env.Go("cli", func(p *sim.Proc) {
		Dial(p, tb.A[0], tb.B[0], 9)
	})
	env.Run()
}

// TestDialAcrossEnvironmentsPanics: Dial makes both ends of a connection,
// so on the paper's testbed split into one shard per site it refuses, with
// an sdp: message, before building anything on the peer's shard.
func TestDialAcrossEnvironmentsPanics(t *testing.T) {
	env := sim.NewEnv()
	env.SetShardWorkers(2)
	defer env.Shutdown()
	nw, err := topo.Build(env, topo.Paper(1, 1, sim.Micros(100)))
	if err != nil {
		t.Fatal(err)
	}
	a, b := nw.Site("A").Nodes[0], nw.Site("B").Nodes[0]
	ln := Listen(b, 7000)
	defer ln.Close()
	defer func() {
		if got, _ := recover().(string); !strings.HasPrefix(got, "sdp: ") {
			t.Fatalf("Dial across environments panicked with %q, want an sdp: message", got)
		}
	}()
	Dial(nil, a, b, 7000)
}

func TestInterleavedPaths(t *testing.T) {
	// Mixed small (bcopy) and large (zcopy) writes must arrive in order.
	env, tb := testbed(sim.Micros(10))
	defer env.Shutdown()
	ln := Listen(tb.B[0], 7000)
	defer ln.Close()
	var parts [][]byte
	parts = append(parts, []byte("small-1"))
	big := make([]byte, 200000)
	rand.New(rand.NewSource(5)).Read(big)
	parts = append(parts, big, []byte("small-2"))
	var total int
	for _, p := range parts {
		total += len(p)
	}
	var got []byte
	env.Go("srv", func(p *sim.Proc) {
		c := ln.Accept(p)
		got = c.ReadFull(p, total)
		env.Stop()
	})
	env.Go("cli", func(p *sim.Proc) {
		c := Dial(p, tb.A[0], tb.B[0], 7000)
		for _, part := range parts {
			c.Write(p, part)
		}
	})
	env.Run()
	want := bytes.Join(parts, nil)
	if !bytes.Equal(got, want) {
		t.Error("interleaved bcopy/zcopy stream corrupted")
	}
}
