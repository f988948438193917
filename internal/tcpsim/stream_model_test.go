package tcpsim

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/ipoib"
	"repro/internal/sim"
)

// streamModel is a byte stream stored as it was before synthetic runs
// merged: one ring entry per write. read is what a reader of the next n bytes
// must get — materialize asks for bytes even where the stream is synthetic
// (a ReadFunc into a buffer); otherwise the result is nil unless a real byte
// is in range (a ReadFunc without one).
type streamModel struct{ spans sim.Ring[span] }

func (m *streamModel) write(data []byte, n int) { m.spans.Push(span{data: data, length: n}) }

func (m *streamModel) read(n int, materialize bool) []byte {
	var out []byte
	if materialize {
		out = make([]byte, n)
	}
	for off := 0; off < n; {
		sp := m.spans.Front()
		k := min(n-off, sp.length)
		if sp.data != nil {
			if out == nil {
				out = make([]byte, n)
			}
			copy(out[off:], sp.data[:k])
			sp.data = sp.data[k:]
		}
		off += k
		if sp.length -= k; sp.length == 0 {
			m.spans.Pop()
		}
	}
	return out
}

// TestStreamBuffersMatchItemModel: with synthetic spans merged in the send
// queue and the receive buffer, seeded mixes of Write and WriteSynthetic —
// synthetic bursts, real bytes between them — read back through ReadFunc of
// random sizes, into a fresh buffer, a dirty one or none, give the bytes, and
// the nil results, the entry-per-write stream gives.
func TestStreamBuffersMatchItemModel(t *testing.T) {
	nilReads := 0
	for seed := int64(1); seed <= 16; seed++ {
		mode := ipoib.Datagram
		if seed%2 == 0 {
			mode = ipoib.Connected
		}
		env, sa, sb := pairStacks(mode, 0, 0, Config{})
		rng := rand.New(rand.NewSource(seed))
		// The writes, decided up front: the stream's content does not depend
		// on timing, only where reads fall in it does.
		var model streamModel
		var writes []span // nil data: WriteSynthetic
		total := 0
		add := func(w span) {
			writes = append(writes, w)
			model.write(w.data, w.length)
			total += w.length
		}
		for total < 3<<20 {
			if rng.Intn(3) == 0 {
				d := make([]byte, 1+rng.Intn(6000))
				rng.Read(d)
				add(span{data: d, length: len(d)})
				continue
			}
			for n := 1 + rng.Intn(6); n > 0; n-- {
				add(span{length: 1 + rng.Intn(100_000)})
			}
		}
		ln := sb.Listen(5000)
		read := 0
		env.Go("srv", func(p *sim.Proc) {
			defer env.Stop()
			c, err := ln.Accept(p)
			if err != nil {
				t.Error(err)
				return
			}
			for read < total {
				n := min(total-read, 1+rng.Intn(200_000))
				var got, want []byte
				switch rng.Intn(3) {
				case 0:
					got, err = readFull(p, c, make([]byte, n), n)
					want = model.read(n, true)
				case 1:
					got, err = readFull(p, c, nil, n)
					if want = model.read(n, false); want == nil {
						nilReads++
					}
				case 2:
					got, err = readFull(p, c, bytes.Repeat([]byte{0xA5}, n), n)
					want = model.read(n, true)
				}
				if err != nil || (got == nil) != (want == nil) || !bytes.Equal(got, want) {
					t.Errorf("seed %d: a read at byte %d got %d bytes (nil %v, err %v), model %d (nil %v), equal %v",
						seed, read, len(got), got == nil, err, len(want), want == nil, bytes.Equal(got, want))
					return
				}
				read += n
			}
		})
		env.Go("cli", func(p *sim.Proc) {
			c, err := sa.Dial(p, sb.Addr(), 5000)
			for _, w := range writes {
				if err != nil {
					break
				}
				if w.data != nil {
					err = c.Write(p, w.data)
				} else {
					err = c.WriteSynthetic(p, w.length)
				}
			}
			if err != nil {
				t.Error(err)
			}
		})
		env.Run()
		env.Shutdown()
		if read != total {
			t.Fatalf("seed %d: the reader got %d of %d bytes", seed, read, total)
		}
	}
	if nilReads == 0 {
		t.Error("no read without a buffer fell on a wholly synthetic range: not a test of merged runs")
	}
}

// TestReassemblyPopReleasesPayload: taking a segment off the reassembly queue
// clears its slot, so the shifted-off prefix of the backing array pins no
// payload.
func TestReassemblyPopReleasesPayload(t *testing.T) {
	env, sa, sb := pairStacks(ipoib.Datagram, 0, 0, Config{})
	defer env.Shutdown()
	ln := sb.Listen(5000)
	var c *Conn
	env.Go("srv", func(p *sim.Proc) { c, _ = ln.Accept(p) })
	env.Go("cli", func(p *sim.Proc) { sa.Dial(p, sb.Addr(), 5000) })
	env.Run()
	if c == nil {
		t.Fatal("no connection")
	}
	late := []byte("parked beyond a hole")
	c.insertOOO(&segment{seq: c.rcvNxt + 4, length: len(late), spans: []span{{data: late, length: len(late)}}})
	queue := c.ooo
	c.handleData(&segment{seq: c.rcvNxt, length: 4, spans: []span{{length: 4}}})
	if len(c.ooo) != 0 || c.recvBytes != 4+len(late) {
		t.Fatalf("the hole's filler released %d bytes and left %d parked, want %d and 0", c.recvBytes, len(c.ooo), 4+len(late))
	}
	if queue[0].spans != nil {
		t.Error("the popped reassembly slot still holds its segment's payload")
	}
}
