package core

import (
	"encoding/binary"
	"fmt"

	"repro/internal/mpi"
	"repro/internal/sim"
)

// Coalescer batches small messages into large carrier messages before
// sending them over MPI — the paper's "transferring data using large
// messages (message coalescing)" optimization. On a high-delay RC link the
// in-flight message window, not bandwidth, limits small-message throughput;
// packing k messages into one carrier multiplies effective throughput by
// nearly k.
//
// The wire format is a sequence of [4-byte length][payload] records, so
// coalesced streams carry real data end to end.
type Coalescer struct {
	rank      *Rank
	dst       int
	tag       int
	carrier   []byte
	threshold int
	pending   []*mpi.Request
	sent      int64
}

// Rank aliases mpi.Rank for the public API of this package.
type Rank = mpi.Rank

// NewCoalescer creates a coalescer sending to rank dst with the given tag;
// carriers are flushed when they reach threshold bytes (0 selects 64 KB, a
// size that stays efficient at high delay per Fig. 5).
func NewCoalescer(r *Rank, dst, tag, threshold int) *Coalescer {
	if threshold == 0 {
		threshold = 64 << 10
	}
	return &Coalescer{rank: r, dst: dst, tag: tag, threshold: threshold}
}

// Add queues one small message, flushing the carrier if it is full.
func (c *Coalescer) Add(p *sim.Proc, msg []byte) {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(msg)))
	c.carrier = append(c.carrier, hdr[:]...)
	c.carrier = append(c.carrier, msg...)
	if len(c.carrier) >= c.threshold {
		c.Flush(p)
	}
}

// Flush sends the current carrier (if any) without waiting for completion.
func (c *Coalescer) Flush(p *sim.Proc) {
	if len(c.carrier) == 0 {
		return
	}
	buf := c.carrier
	c.carrier = nil
	c.pending = append(c.pending, c.rank.Isend(p, c.dst, c.tag, buf, 0))
	c.sent++
}

// Wait flushes and blocks until every carrier has completed.
func (c *Coalescer) Wait(p *sim.Proc) {
	c.Flush(p)
	mpi.WaitAll(p, c.pending)
	clear(c.pending)
	c.pending = c.pending[:0]
}

// CarriersSent reports how many carrier messages have been sent.
func (c *Coalescer) CarriersSent() int64 { return c.sent }

// Decoalesce splits a received carrier back into the original messages.
func Decoalesce(carrier []byte) ([][]byte, error) {
	var out [][]byte
	for off := 0; off < len(carrier); {
		if off+4 > len(carrier) {
			return nil, fmt.Errorf("core: truncated coalesce header at %d", off)
		}
		n := int(binary.LittleEndian.Uint32(carrier[off:]))
		off += 4
		if off+n > len(carrier) {
			return nil, fmt.Errorf("core: truncated coalesced message at %d (len %d)", off, n)
		}
		out = append(out, carrier[off:off+n])
		off += n
	}
	return out, nil
}

// CoalescedReceiver receives carriers from src and yields the original
// messages in order.
type CoalescedReceiver struct {
	rank    *Rank
	src     int
	tag     int
	maxSize int
	queue   [][]byte
}

// NewCoalescedReceiver creates the receive side of a coalesced stream.
// maxSize bounds a single carrier (0 selects 1 MB).
func NewCoalescedReceiver(r *Rank, src, tag, maxSize int) *CoalescedReceiver {
	if maxSize == 0 {
		maxSize = 1 << 20
	}
	return &CoalescedReceiver{rank: r, src: src, tag: tag, maxSize: maxSize}
}

// Next blocks until the next original message is available and returns it.
func (cr *CoalescedReceiver) Next(p *sim.Proc) []byte {
	for len(cr.queue) == 0 {
		buf := make([]byte, cr.maxSize)
		n, _ := cr.rank.Recv(p, cr.src, cr.tag, buf, 0)
		msgs, err := Decoalesce(buf[:n])
		if err != nil {
			panic(err)
		}
		cr.queue = append(cr.queue, msgs...)
	}
	msg := cr.queue[0]
	cr.queue = cr.queue[1:]
	return msg
}
