package tcpsim

import (
	"bytes"
	"testing"

	"repro/internal/ipoib"
	"repro/internal/sim"
)

func TestSlowStartReachesWindow(t *testing.T) {
	env, sa, sb := pairStacks(ipoib.Datagram, 0, sim.Micros(500), Config{Window: 256 << 10})
	defer env.Shutdown()
	ln := sb.Listen(5000)
	var conn *Conn
	env.Go("srv", func(p *sim.Proc) { ln.Accept(p) })
	env.Go("cli", func(p *sim.Proc) {
		conn, _ = sa.Dial(p, sb.Addr(), 5000)
		for i := 0; i < 100; i++ {
			conn.WriteSynthetic(p, 1<<20)
		}
	})
	env.RunUntil(200 * sim.Millisecond)
	if conn.cwnd != 256<<10 {
		t.Errorf("cwnd = %d after long flow, want window cap %d", conn.cwnd, 256<<10)
	}
}

func TestSegmentPackingAtMSS(t *testing.T) {
	// A long stream must be carried in MSS-sized segments (no
	// silly-window fragmentation), even when written in odd chunks.
	env, sa, sb := pairStacks(ipoib.Connected, 0, 0, Config{})
	defer env.Shutdown()
	ln := sb.Listen(5000)
	env.Go("srv", func(p *sim.Proc) { ln.Accept(p) })
	env.Go("cli", func(p *sim.Proc) {
		c, _ := sa.Dial(p, sb.Addr(), 5000)
		for i := 0; i < 1000; i++ {
			c.WriteSynthetic(p, 7777) // awkward chunk size
		}
	})
	env.RunUntil(40 * sim.Millisecond)
	st := sa.Stats()
	if st.TxSegments == 0 {
		t.Fatal("no segments sent")
	}
	// Sub-MSS segments are legitimate when the send queue drains (we
	// model TCP_NODELAY), but the bulk of a saturated stream must be
	// carried in large packed segments, not write-sized fragments.
	avg := float64(st.TxBytes) / float64(st.TxSegments)
	if avg < float64(sa.MSS())*0.5 {
		t.Errorf("average segment = %.0f bytes (MSS %d): silly-window fragmentation", avg, sa.MSS())
	}
	if avg < 2*7777 {
		t.Errorf("average segment = %.0f, not packing across %d-byte writes", avg, 7777)
	}
}

func TestDeliveredCounter(t *testing.T) {
	env, sa, sb := pairStacks(ipoib.Datagram, 0, 0, Config{})
	defer env.Shutdown()
	ln := sb.Listen(5000)
	var srvConn *Conn
	env.Go("srv", func(p *sim.Proc) {
		srvConn, _ = ln.Accept(p)
	})
	env.Go("cli", func(p *sim.Proc) {
		c, _ := sa.Dial(p, sb.Addr(), 5000)
		c.WriteSynthetic(p, 123456)
	})
	env.Run()
	if srvConn.Delivered() != 123456 {
		t.Errorf("Delivered = %d, want 123456", srvConn.Delivered())
	}
}

func TestInterleavedRealAndSyntheticSpans(t *testing.T) {
	// Real bytes and synthetic filler in one stream: real bytes must
	// survive byte-exact, synthetic reads back as zeros.
	env, sa, sb := pairStacks(ipoib.Datagram, 0, 0, Config{})
	defer env.Shutdown()
	ln := sb.Listen(5000)
	var got []byte
	env.Go("srv", func(p *sim.Proc) {
		c, _ := ln.Accept(p)
		got, _ = readFull(p, c, nil, 5+1000+5)
		env.Stop()
	})
	env.Go("cli", func(p *sim.Proc) {
		c, _ := sa.Dial(p, sb.Addr(), 5000)
		c.Write(p, []byte("HELLO"))
		c.WriteSynthetic(p, 1000)
		c.Write(p, []byte("WORLD"))
	})
	env.Run()
	if string(got[:5]) != "HELLO" || string(got[1005:]) != "WORLD" {
		t.Errorf("markers lost: %q ... %q", got[:5], got[1005:])
	}
	for i := 5; i < 1005; i++ {
		if got[i] != 0 {
			t.Fatalf("synthetic byte %d = %d, want 0", i, got[i])
		}
	}
}

// TestReadFullIsBytesOnlyWhereBytesWereSent: a range the peer wrote with
// WriteSynthetic alone is a length to the reader too — a ReadFunc without a
// buffer gets nil, never a buffer of zeroes — while a range that starts
// synthetic and turns real is bytes from its first byte, and a ReadFunc into
// a reused buffer gives it the stream's zeroes, not its own leftovers.
func TestReadFullIsBytesOnlyWhereBytesWereSent(t *testing.T) {
	env, sa, sb := pairStacks(ipoib.Datagram, 0, 0, Config{})
	defer env.Shutdown()
	ln := sb.Listen(5000)
	var synthetic, mixed []byte
	scratch := []byte("leftovers!")
	env.Go("srv", func(p *sim.Proc) {
		c, _ := ln.Accept(p)
		synthetic, _ = readFull(p, c, nil, 300_000) // several segments, none real
		mixed, _ = readFull(p, c, nil, 4000+3)
		readFull(p, c, scratch, len(scratch))
		env.Stop()
	})
	env.Go("cli", func(p *sim.Proc) {
		c, _ := sa.Dial(p, sb.Addr(), 5000)
		c.WriteSynthetic(p, 300_000)
		c.WriteSynthetic(p, 4000)
		c.Write(p, []byte("END"))
		c.WriteSynthetic(p, 6)
		c.Write(p, []byte("TAIL"))
	})
	env.Run()
	if synthetic != nil {
		t.Errorf("a wholly synthetic range came back as %d materialized bytes, want nil", len(synthetic))
	}
	if len(mixed) != 4003 || string(mixed[4000:]) != "END" || !bytes.Equal(mixed[:4000], make([]byte, 4000)) {
		t.Errorf("synthetic-then-real range: %d bytes ending %q, want 4000 zeroes then END", len(mixed), mixed[max(0, len(mixed)-3):])
	}
	if string(scratch) != "\x00\x00\x00\x00\x00\x00TAIL" {
		t.Errorf("a read into a reused buffer left %q, want six zeroes then TAIL", scratch)
	}
}

func TestWindowCapsInflight(t *testing.T) {
	env, sa, sb := pairStacks(ipoib.Datagram, 0, sim.Micros(5000), Config{Window: 128 << 10})
	defer env.Shutdown()
	ln := sb.Listen(5000)
	var conn *Conn
	env.Go("srv", func(p *sim.Proc) { ln.Accept(p) })
	env.Go("cli", func(p *sim.Proc) {
		conn, _ = sa.Dial(p, sb.Addr(), 5000)
		for i := 0; i < 50; i++ {
			conn.WriteSynthetic(p, 1<<20)
		}
	})
	env.RunUntil(100 * sim.Millisecond)
	inflight := int(conn.sndNxt - conn.sndUna)
	if inflight > 128<<10 {
		t.Errorf("in-flight = %d bytes, window is %d", inflight, 128<<10)
	}
	// At 5ms one-way the window must be the binding constraint: nearly
	// the whole window should be outstanding mid-flow.
	if inflight < 100<<10 {
		t.Errorf("in-flight = %d, expected window nearly full", inflight)
	}
}
