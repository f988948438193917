package sim

// entryKind discriminates what a heap entry does when dispatched. Typed
// entries exist so the kernel's hottest operations — resuming a process,
// triggering an event, delivering a packet to a cached handler — schedule
// without allocating a closure per event.
type entryKind uint8

const (
	// kindFn invokes tgt.(func())() — the general At path.
	kindFn entryKind = iota
	// kindFnArg invokes tgt.(func(any))(val) — AtArg and event callbacks;
	// the function is a long-lived value shared across many schedules.
	kindFnArg
	// kindResume hands control to process tgt.(*Proc), delivering val from
	// its pending Wait (skipped if the process finished or was killed in
	// the meantime).
	kindResume
	// kindTrigger fires event tgt.(*Event) with val — the timer path behind
	// Sleep.
	kindTrigger
	// kindPipe stands for the head of pipe tgt.(*Pipe): the entry carries
	// the head's (at, seq) key, the pipe node carries its handler.
	kindPipe
	// kindTimer is the standing wake-up of timer tgt.(*Timer); see
	// Timer.wake for what it does when it comes up.
	kindTimer
)

// entry is one scheduled occurrence. Entries live by value inside the
// heap's backing slice: scheduling an event moves a struct, never boxes a
// pointer through an interface as container/heap would. Every sift moves
// whole entries, so the struct is kept to 56 bytes: the one thing an entry
// acts on — a function, a process, an event, a pipe, a timer, all
// pointer-shaped and therefore free to store in an interface — shares the
// single tgt word pair, discriminated by kind.
type entry struct {
	at   Time
	seq  int64 // tie-breaker: FIFO among equal times
	kind entryKind
	tgt  any
	val  any
}

// entryLess orders entries by time, then insertion sequence.
func entryLess(a, b *entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// entryHeap is a 4-ary min-heap of entries, specialized and inlined: no
// interface dispatch, no per-element allocation, and a branching factor
// that halves the tree depth versus a binary heap — sift-downs touch
// fewer cache lines, which is where a DES kernel's time goes once
// allocation is off the hot path.
type entryHeap struct {
	s []entry
}

func (h *entryHeap) len() int     { return len(h.s) }
func (h *entryHeap) empty() bool  { return len(h.s) == 0 }
func (h *entryHeap) peek() *entry { return &h.s[0] }

// push inserts ent, sifting it up to its position.
func (h *entryHeap) push(ent entry) {
	h.s = append(h.s, ent)
	s := h.s
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) >> 2
		if !entryLess(&ent, &s[parent]) {
			break
		}
		s[i] = s[parent]
		i = parent
	}
	s[i] = ent
}

// pop removes and returns the minimum entry.
func (h *entryHeap) pop() entry {
	s := h.s
	top := s[0]
	n := len(s) - 1
	moved := s[n]
	s[n] = entry{} // drop references held by the vacated slot
	h.s = s[:n]
	if n > 0 {
		h.siftDown(moved)
	}
	return top
}

// siftDown places ent, displaced from the root, at its final position.
func (h *entryHeap) siftDown(ent entry) {
	s := h.s
	n := len(s)
	i := 0
	for {
		first := i<<2 + 1
		if first >= n {
			break
		}
		min := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if entryLess(&s[c], &s[min]) {
				min = c
			}
		}
		if !entryLess(&s[min], &ent) {
			break
		}
		s[i] = s[min]
		i = min
	}
	s[i] = ent
}
