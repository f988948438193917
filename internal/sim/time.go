// Package sim implements a deterministic discrete-event simulation (DES)
// kernel in the style of SimPy: an environment with a virtual clock and an
// event heap, plus cooperatively scheduled processes implemented as
// coroutines with strict one-at-a-time handoff. All higher layers of the
// ibwan repository (InfiniBand fabric, WAN extenders, TCP, MPI, NFS) are
// built on this kernel.
//
// Scheduling: Env.At and Env.AtArg put one entry in the heap per call. Two
// primitives keep the heap shallow where a model would otherwise park
// thousands of entries in it, without changing what is dispatched or when:
// a Pipe holds a FIFO of entries whose times never decrease (packets waiting
// out a link's propagation delay) behind a single heap entry, and a Timer is
// a re-armable deadline (a retransmission timeout) whose superseded settings
// cost nothing. Both consume sequence numbers exactly as the calls they
// replace, so every event keeps its (time, sequence) place in the order.
//
// Processes and servers: a Proc's body runs on a coroutine, and every resume
// of one is a switch to its stack and back (see proc.go) — right for
// application code that waits in the middle of its body, several times the
// price of a plain dispatch for a context that serves a queue one item and
// one service time after another. A Server is that context as a FIFO with
// one item in service and one heap entry per item: each item starts and
// finishes at the instants the process loop would give it (see server.go),
// without the loop's resumes.
//
// Memory: the kernel and the layers above it recycle what they allocate on
// per-environment freelists, and an Arena carries those lists from one world
// to the next its owner runs (see arena.go). Every object crosses reset, so
// this too changes host time and allocation only.
//
// Determinism: only one process or callback ever runs at a time, the event
// heap breaks ties by insertion sequence number, and no wall-clock or
// map-iteration ordering leaks into scheduling decisions. Two runs with the
// same inputs produce identical traces.
package sim

import (
	"fmt"
	"time"
)

// ibwanNeeds64BitInt fails the build where int is narrower than 64 bits:
// the layers above keep byte counts, transmit indices and thresholds in ints.
const ibwanNeeds64BitInt int = 1 << 62

// Time is a point in virtual time, in nanoseconds since the start of the
// simulation. It is deliberately a distinct type from time.Duration so that
// absolute times and durations are not confused at call sites.
type Time int64

// Common durations, expressed in Time units (nanoseconds).
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Duration converts a standard library duration to simulation Time units.
func Duration(d time.Duration) Time { return Time(d.Nanoseconds()) }

// Micros constructs a Time from a (possibly fractional) count of
// microseconds. It is the most common unit in the paper, which quotes all
// WAN delays in microseconds.
func Micros(us float64) Time { return Time(us * float64(Microsecond)) }

// Seconds reports t as a floating point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Microseconds reports t as a floating point number of microseconds.
func (t Time) Microseconds() float64 { return float64(t) / float64(Microsecond) }

// String formats the time with an adaptive unit, e.g. "12.5us" or "3.2ms".
func (t Time) String() string {
	switch {
	case t < 10*Microsecond:
		return fmt.Sprintf("%dns", int64(t))
	case t < Millisecond:
		return fmt.Sprintf("%.2fus", t.Microseconds())
	case t < Second:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	default:
		return fmt.Sprintf("%.3fs", t.Seconds())
	}
}
