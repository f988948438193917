package tcpsim

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/ipoib"
	"repro/internal/sim"
)

// The contract of Conn.ReadFunc, which these tests pin: fn runs where a
// process blocked in a read loop would have carried on. With the bytes
// already buffered (or the connection dead), inline. Otherwise the delivery
// that completes the read, or the reset, schedules one same-instant hop from
// where the parked reader's resume was scheduled; partial deliveries
// schedule nothing. That is exact: the receive context serves a segment per
// segCPU (>= 2 270 ns), so a connection's deliveries fall at distinct
// instants (a hole fill's burst in one handleData schedules nothing between
// them). The blocked reader was parked again before each; its resumes on
// partial ones were unobservable, and dropping them shifts later sequence
// numbers uniformly, moving no tie.

// readPair returns an established connection's two ends on a zero-delay
// testbed, with nothing in flight and no process left.
func readPair(t *testing.T) (env *sim.Env, cli, srv *Conn) {
	t.Helper()
	env, sa, sb := pairStacks(ipoib.Datagram, 0, 0, Config{})
	ln := sb.Listen(5000)
	env.Go("srv", func(p *sim.Proc) { srv, _ = ln.Accept(p) })
	env.Go("cli", func(p *sim.Proc) { cli, _ = sa.Dial(p, sb.Addr(), 5000) })
	env.Run()
	if cli == nil || srv == nil {
		t.Fatal("no connection")
	}
	return env, cli, srv
}

// send writes data (real) or n synthetic bytes from a process and runs the
// world until it drains.
func send(env *sim.Env, c *Conn, data []byte, n int) {
	env.Go("writer", func(p *sim.Proc) {
		if data != nil {
			c.Write(p, data)
		} else {
			c.WriteSynthetic(p, n)
		}
	})
	env.Run()
}

// A read of bytes already buffered completes inside the call and schedules
// nothing.
func TestReadFuncBufferedRunsInline(t *testing.T) {
	env, cli, srv := readPair(t)
	defer env.Shutdown()
	send(env, cli, []byte("buffered bytes"), 0)
	executed, pending := env.Executed(), env.Pending()
	var got []byte
	calls := 0
	srv.ReadFunc(nil, 8, func(b []byte, err error) {
		calls++
		got = b
		if err != nil {
			t.Errorf("buffered read failed: %v", err)
		}
	})
	if calls != 1 || string(got) != "buffered" {
		t.Fatalf("after ReadFunc returned: %d calls, got %q; want one inline call with %q", calls, got, "buffered")
	}
	srv.ReadFunc(nil, 0, func(b []byte, err error) { calls++ })
	if calls != 2 {
		t.Error("an empty read did not complete inline")
	}
	if env.Executed() != executed || env.Pending() != pending {
		t.Errorf("inline reads scheduled work: executed %d -> %d, pending %d -> %d", executed, env.Executed(), pending, env.Pending())
	}
}

// A waiting read completes one hop after the delivery that completed it: fn
// sees the delivering segment's ACK queued on the receiver's transmit
// context, but not yet in service. Run inline in the delivery, fn would come
// before the ACK is queued, so the transmit context's wake-up, scheduled
// after fn's probe, would not have run when the probe looks; a hop any later
// than the transmit context's wake-up finds the ACK already in service.
func TestReadFuncWaitingCompletesInOneHop(t *testing.T) {
	env, cli, srv := readPair(t)
	defer env.Shutdown()
	tx := &srv.stack.stats.TxSegments
	var got []byte
	var atFn, atProbe int64 = -1, -1
	srv.ReadFunc(nil, 100, func(b []byte, err error) {
		got = b
		atFn = *tx
		env.At(0, func() { atProbe = *tx })
	})
	payload := bytes.Repeat([]byte{7}, 100)
	send(env, cli, payload, 0)
	if !bytes.Equal(got, payload) {
		t.Fatalf("read got %d bytes, want the %d written", len(got), len(payload))
	}
	if atProbe != atFn+1 {
		t.Errorf("transmit context served %d segments when fn ran and %d just after: the ACK was not queued-but-unserved when fn ran (inline: not yet queued; late: already in service)", atFn, atProbe)
	}
}

// Partial deliveries cost no event: a read waiting for a 50-segment range
// adds exactly one dispatch, its completing hop, to a world where nobody
// reads.
func TestReadFuncPartialDeliveriesScheduleNothing(t *testing.T) {
	const n = 100_000 // 50 segments at IPoIB-UD's MSS
	run := func(read bool) (int64, int) {
		env, cli, srv := readPair(t)
		defer env.Shutdown()
		calls := 0
		if read {
			srv.ReadFunc(nil, n, func(b []byte, err error) {
				if calls++; b != nil || err != nil {
					t.Errorf("synthetic read got %d bytes, err %v; want nil, nil", len(b), err)
				}
			})
		}
		base := env.Executed()
		send(env, cli, nil, n)
		if srv.Delivered() != n {
			t.Fatalf("receiver accepted %d of %d bytes", srv.Delivered(), n)
		}
		if segs := srv.stack.stats.RxSegments; segs < 10 {
			t.Fatalf("the range arrived in %d segments: not a test of partial deliveries", segs)
		}
		return env.Executed() - base, calls
	}
	idle, _ := run(false)
	reading, calls := run(true)
	if calls != 1 || reading-idle != 1 {
		t.Errorf("a waiting read added %d dispatches and ran fn %d times, want 1 and 1", reading-idle, calls)
	}
}

// A reset completes a waiting read with the error, in a hop, and consumes
// nothing; buffered data still drains inline before the error is reported.
func TestReadFuncReset(t *testing.T) {
	env, cli, srv := readPair(t)
	defer env.Shutdown()
	send(env, cli, []byte("0123456789"), 0)
	var got []byte
	var gotErr error
	calls := 0
	srv.ReadFunc(nil, 1000, func(b []byte, err error) { calls++; got, gotErr = b, err })
	srv.reset(ErrReset)
	if calls != 0 {
		t.Fatal("the reset completed the waiting read inline, not in a hop")
	}
	env.Run()
	if calls != 1 || got != nil || !errors.Is(gotErr, ErrReset) {
		t.Fatalf("after the reset: %d calls, %d bytes, err %v; want one call with nil and ErrReset", calls, len(got), gotErr)
	}
	if srv.recvBytes != 10 {
		t.Errorf("the failed read consumed buffered data: %d bytes left, want 10", srv.recvBytes)
	}
	srv.ReadFunc(make([]byte, 10), 10, func(b []byte, err error) { calls++; got, gotErr = b, err })
	if calls != 2 || string(got) != "0123456789" || gotErr != nil {
		t.Errorf("dead connection's buffered data: %d calls, %q, err %v; want %q drained inline", calls, got, gotErr, "0123456789")
	}
	srv.ReadFunc(nil, 1, func(b []byte, err error) { calls++; gotErr = err })
	if calls != 3 || !errors.Is(gotErr, ErrReset) {
		t.Errorf("a read past a dead connection's data: %d calls, err %v; want ErrReset inline", calls, gotErr)
	}
}

// A connection holds one waiting read: a second one panics, as does a
// negative length.
func TestReadFuncMisusePanics(t *testing.T) {
	env, _, srv := readPair(t)
	defer env.Shutdown()
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", what)
			}
		}()
		f()
	}
	mustPanic("a negative length", func() { srv.ReadFunc(nil, -1, func([]byte, error) {}) })
	srv.ReadFunc(nil, 1, func([]byte, error) {})
	mustPanic("a second waiting read", func() { srv.ReadFunc(nil, 1, func([]byte, error) {}) })
}
