package tcpsim

import (
	"runtime"
	"testing"

	"repro/internal/cluster"
	"repro/internal/ipoib"
	"repro/internal/sim"
)

// The stack's transmit and receive contexts and the interface's receive
// engine are servers and a completion handler: bringing up both ends of a
// link starts no process, so the only live ones are the application's.
func TestStackContextsAreNotProcesses(t *testing.T) {
	env := sim.NewEnv()
	tb := cluster.New(env, cluster.Config{NodesA: 1, NodesB: 1, Delay: sim.Millisecond})
	base := env.LiveProcs()
	net := ipoib.NewNetwork()
	sa := NewStack(net.Attach(tb.A[0].HCA, ipoib.Datagram, 0), Config{})
	sb := NewStack(net.Attach(tb.B[0].HCA, ipoib.Datagram, 0), Config{})
	if n := env.LiveProcs() - base; n != 0 {
		t.Fatalf("two stacks on two interfaces started %d processes, want 0", n)
	}
	ln := sb.Listen(5000)
	env.Go("server", func(p *sim.Proc) {
		if c, err := ln.Accept(p); err == nil {
			readFull(p, c, nil, 1<<20)
		}
	})
	env.Go("client", func(p *sim.Proc) {
		if c, err := sa.Dial(p, sb.Addr(), 5000); err == nil {
			c.WriteSynthetic(p, 1<<20)
			p.Wait(env.NewEvent()) // park: still live when the world drains
		}
	})
	if n := env.LiveProcs() - base; n != 2 {
		t.Fatalf("%d live processes with two application processes started, want 2", n)
	}
	env.Run()
	if n := env.LiveProcs() - base; n != 1 {
		t.Fatalf("%d live processes after the transfer, want 1 (the parked client)", n)
	}
	if got := sb.Stats().RxBytes; got < 1<<20 {
		t.Fatalf("receiver processed %d payload bytes, want >= 1 MB", got)
	}
	env.Shutdown()
}

// lossFreeStreamEvents is Executed() after a 10 000-segment loss-free stream
// (rtoPair, 64 KB window, 1 ms WAN). A service context costs one dispatch
// per segment, its service end, and schedules nothing while idle, so the
// count moves only when the model does. It was 410 022 while every link
// crossing cost two events (arrival, then the device's ingress stage); the
// fabric folding the stage into the wire event took one off each of the 5
// links a segment or ack crosses. It was 310 007 while the server read with
// a blocking Read that resumed on every one of the 10 000 data deliveries;
// reading through ReadFunc in 1 MB pieces costs one hop and one resume per
// complete piece, 19 of the 20.04 MB: 310 007 - 10 000 + 2*19 = 300 045.
// The four contexts then still copied the process loops they replaced: an
// entry at construction, a start hop for a segment that found its context
// idle and a second hop after each service end. Over the 40 006 segments
// they serve (each context 10 001 or 10 002) that was 79 960 dispatches
// more than now: 4 + 40 006 second hops + 39 950 start hops.
const lossFreeStreamEvents = 220085

func TestLossFreeStreamEventCountPinned(t *testing.T) {
	env, _, client := rtoPair(t, Config{Window: 64 << 10}, 0)
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
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	env.Run()
	runtime.ReadMemStats(&after)
	c := client()
	if c.sndUna < int64(10000*mss) || c.Retransmits() != 0 {
		t.Fatalf("stream incomplete or lossy: %d bytes acked, %d retransmissions", c.sndUna, c.Retransmits())
	}
	// Segments go back to the stack that created them, so the receiver's
	// acks come out of its own pool and the sender's pool holds a window of
	// data segments, not one more segment per ack it ever received. A
	// synthetic stream read without a buffer materializes nothing; the
	// receiving application's Read result made it one per data segment, and
	// an ack segment allocated per data segment two.
	perSeg := float64(after.Mallocs-before.Mallocs) / 10000
	t.Logf("%.2f allocations per data segment, %d segments in the sender's pool", perSeg, len(c.stack.segs.free))
	if perSeg > 1.5 {
		t.Errorf("%.2f allocations per data segment over the stream, want <= 1.5", perSeg)
	}
	if n := len(c.stack.segs.free); n > 100 {
		t.Errorf("sender's pool holds %d segments after the stream, want a window's worth", n)
	}
	if got := env.Executed(); got != lossFreeStreamEvents {
		t.Errorf("Executed() = %d after the stream, want %d: a service context no longer takes one dispatch per segment, or the stream's model moved", got, lossFreeStreamEvents)
	}
	env.Shutdown()
}
