package rpc

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/ib"
	"repro/internal/ipoib"
	"repro/internal/sim"
	"repro/internal/tcpsim"
)

// streamRun is a piece of a socket byte stream: real bytes, or n synthetic
// ones when data is nil.
type streamRun struct {
	data []byte
	n    int
}

// appendFrame appends f's bytes on the wire to runs, real runs merged so the
// writes chunking them cross frame boundaries.
func appendFrame(runs []streamRun, f *frame) []streamRun {
	addReal := func(b []byte) {
		if k := len(runs) - 1; k >= 0 && runs[k].data != nil {
			runs[k].data = append(runs[k].data, b...)
			runs[k].n = len(runs[k].data)
			return
		}
		if len(b) > 0 {
			runs = append(runs, streamRun{data: append([]byte(nil), b...), n: len(b)})
		}
	}
	var hdr [headerBytes]byte
	putHeader(&hdr, f.xid, f.proc, len(f.meta), f.bulkLen, f.readLen)
	addReal(hdr[:])
	addReal(f.meta)
	if f.bulk != nil {
		addReal(f.bulk)
	} else if f.bulkLen > 0 {
		runs = append(runs, streamRun{n: f.bulkLen})
	}
	return runs
}

// truncate keeps the first n bytes of runs.
func truncate(runs []streamRun, n int) []streamRun {
	var out []streamRun
	for _, r := range runs {
		if n == 0 {
			break
		}
		k := min(n, r.n)
		if r.data != nil {
			r.data = r.data[:k]
		}
		r.n = k
		out = append(out, r)
		n -= k
	}
	return out
}

func randomFrame(rng *rand.Rand) frame {
	f := frame{xid: rng.Uint64(), proc: rng.Uint32(), readLen: rng.Intn(1 << 20)}
	f.meta = make([]byte, rng.Intn(3)*rng.Intn(300)) // a third of them empty
	rng.Read(f.meta)
	switch rng.Intn(3) {
	case 1:
		f.bulk = make([]byte, 1+rng.Intn(40_000))
		rng.Read(f.bulk)
		f.bulkLen = len(f.bulk)
	case 2:
		f.bulkLen = 1 + rng.Intn(200_000)
	}
	return f
}

// TestReadFramesReassembles feeds readFrames seeded streams — random meta
// and bulk lengths including zero, real and synthetic bulk, cut into writes
// of random size that straddle frame boundaries — ending in part of one more
// frame, after which the reading connection resets. Every whole frame must
// come out as written, its bulk nil exactly when it was synthetic, and fail
// must run once, with the reset.
func TestReadFramesReassembles(t *testing.T) {
	for seed := int64(1); seed <= 16; seed++ {
		rng := rand.New(rand.NewSource(seed))
		mode := ipoib.Datagram
		if seed%2 == 0 {
			mode = ipoib.Connected
		}
		env, tb := testbed(sim.Micros(10))
		net := ipoib.NewNetwork()
		cfg := tcpsim.Config{MaxRetransmits: 2}
		rs := tcpsim.NewStack(net.Attach(tb.B[0].HCA, mode, 0), cfg)
		ws := tcpsim.NewStack(net.Attach(tb.A[0].HCA, mode, 0), cfg)

		want := make([]frame, 1+rng.Intn(12))
		var runs []streamRun
		for i := range want {
			want[i] = randomFrame(rng)
			runs = appendFrame(runs, &want[i])
		}
		last := randomFrame(rng)
		tail := appendFrame(nil, &last)
		tailLen := 0
		for _, r := range tail {
			tailLen += r.n
		}
		runs = append(runs, truncate(tail, 1+rng.Intn(tailLen-1))...)
		total := 0
		for _, r := range runs {
			total += r.n
		}

		var got []frame
		var fails []error
		ln := rs.Listen(7000)
		env.Go("reader", func(p *sim.Proc) {
			c, err := ln.Accept(p)
			if err != nil {
				t.Error(err)
				return
			}
			readFrames(c, func(_ *frame, n int) []byte { return make([]byte, n) },
				func(f *frame) { got = append(got, *f) }, func(err error) { fails = append(fails, err) })
			for c.Delivered() < int64(total) {
				p.Sleep(sim.Millisecond)
			}
			// Mid-frame now. Kill the WAN and send: the reading end's own
			// retransmission budget runs out and resets it.
			tb.WAN.Link().DropFn = func(sim.Time, ib.Crossing) bool { return true }
			c.Write(p, []byte("x"))
		})
		env.Go("writer", func(p *sim.Proc) {
			c, err := ws.Dial(p, rs.Addr(), 7000)
			for _, r := range runs {
				for off := 0; off < r.n && err == nil; {
					k := min(r.n-off, 1+rng.Intn(30_000))
					if r.data != nil {
						err = c.Write(p, r.data[off:off+k])
					} else {
						err = c.WriteSynthetic(p, k)
					}
					off += k
				}
			}
			if err != nil {
				t.Error(err)
			}
		})
		env.Run()
		env.Shutdown()

		if len(got) != len(want) {
			t.Fatalf("seed %d: %d frames delivered, %d written", seed, len(got), len(want))
		}
		for i, w := range want {
			g := got[i]
			if g.xid != w.xid || g.proc != w.proc || g.readLen != w.readLen || g.bulkLen != w.bulkLen ||
				!bytes.Equal(g.meta, w.meta) || !bytes.Equal(g.bulk, w.bulk) || (g.bulk == nil) != (w.bulk == nil) {
				t.Fatalf("seed %d: frame %d came out as xid %x proc %d meta %d bulk %d (nil %v) readLen %d; written xid %x proc %d meta %d bulk %d (nil %v) readLen %d",
					seed, i, g.xid, g.proc, len(g.meta), g.bulkLen, g.bulk == nil, g.readLen,
					w.xid, w.proc, len(w.meta), w.bulkLen, w.bulk == nil, w.readLen)
			}
		}
		if len(fails) != 1 || !errors.Is(fails[0], tcpsim.ErrReset) {
			t.Fatalf("seed %d: fail ran with %v, want once with ErrReset", seed, fails)
		}
	}
}
