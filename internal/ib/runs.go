package ib

import "repro/internal/sim"

// runs is a FIFO that stores a run of interchangeable adjacent entries as one
// entry and a count. pop hands out exactly the values, in exactly the order,
// an entry-per-item sim.Ring would; only storage differs. Which entries are
// interchangeable is the caller's rule, passed to push: two entries may share
// a run only when no reader can tell them apart (DESIGN §7, "Runs").
type runs[T any] struct {
	q sim.Ring[run[T]]
	n int // entries, summed over runs
}

type run[T any] struct {
	v T
	n int
}

// Len returns the number of entries.
func (r *runs[T]) Len() int { return r.n }

// push appends v, extending the tail run when joins(tail, v) says v is
// indistinguishable from the tail's value. v is passed by value so it does
// not escape through joins.
func (r *runs[T]) push(v T, joins func(tail *T, v T) bool) {
	r.n++
	if k := r.q.Len(); k > 0 {
		if t := r.q.At(k - 1); joins(&t.v, v) {
			t.n++
			return
		}
	}
	r.q.Push(run[T]{v: v, n: 1})
}

// pop removes and returns the head entry. It panics on an empty queue.
func (r *runs[T]) pop() T {
	h := r.q.Front()
	v := h.v
	if h.n--; h.n == 0 {
		r.q.Pop()
	}
	r.n--
	return v
}

// blankRecvs joins a receive WQE to the tail run when both are blank: a WQE
// with no buffer and no context hands its consumer nothing to tell it by.
func blankRecvs(tail *RecvWR, wr RecvWR) bool {
	return wr.Buf == nil && wr.Ctx == nil && tail.Buf == nil && tail.Ctx == nil
}

// sameCompletions joins a completion to the tail run when it carries no
// caller identity (Ctx, Meta) and equals the tail field for field. Comparing
// the tail's interfaces against nil ones never panics.
func sameCompletions(tail *Completion, c Completion) bool {
	return c.Ctx == nil && c.Meta == nil && *tail == c
}
