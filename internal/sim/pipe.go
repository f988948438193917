package sim

// Pipe is a FIFO stage of scheduled events: a sequence of AtArg-style
// schedules whose times (almost) never decrease — packets waiting out a
// link's propagation delay, a device's fixed processing latency, timeouts of
// one constant length. Scheduling each of those directly keeps every one of
// them in the event heap for its whole delay, and a long pipe (a 10 ms WAN
// at SDR rate holds thousands of packets) makes every other event's sift
// that much deeper. A pipe keeps its entries in its own list and lets only
// the oldest — its minimum — stand in the heap.
//
// The result is exactly that of scheduling each entry with Env.AtArg. An
// entry takes its sequence number from the environment at the call, as AtArg
// does, and is dispatched at that (time, sequence) key: the heap entry
// standing for the pipe carries the head's key, the head is the pipe's
// minimum, so the heap top is still the global minimum; dispatching a head
// stands the next one before anything later can run. An entry earlier than
// the pipe's newest (the delay dropped mid-run) simply goes to the heap on
// its own, so monotone delays are what makes a pipe fast, never what makes
// it right.
//
// A Pipe is a value meant to be embedded in its owner (a port, a switch, a
// QP); it must not be copied once used, and every call must come from the
// owning environment's context. Its nodes come from a freelist on the
// environment, so an idle pipe costs no memory of its own.
type Pipe struct {
	env        *Env
	head, tail *pipeNode
}

// pipeNode is one entry waiting in a pipe.
type pipeNode struct {
	at   Time
	seq  int64
	fn   func(any)
	val  any
	next *pipeNode
}

// NewPipe returns an empty pipe scheduling on e.
func (e *Env) NewPipe() Pipe { return Pipe{env: e} }

// AtArg schedules fn(arg) at the given delay from now, exactly as Env.AtArg
// would.
func (p *Pipe) AtArg(delay Time, fn func(any), arg any) {
	if delay < 0 {
		panic("sim: negative delay")
	}
	e := p.env
	at := e.now + delay
	if p.tail != nil && at < p.tail.at {
		e.scheduleArg(at, fn, arg)
		return
	}
	e.seq++
	n := e.newPipeNode()
	n.at, n.seq, n.fn, n.val = at, e.seq, fn, arg
	if p.tail == nil {
		p.head, p.tail = n, n
		e.queue.push(entry{at: at, seq: n.seq, kind: kindPipe, tgt: p})
		return
	}
	p.tail.next = n
	p.tail = n
	e.piped++
}

// At schedules fn at the given delay from now, exactly as Env.At would.
func (p *Pipe) At(delay Time, fn func()) { p.AtArg(delay, callThunk, fn) }

func callThunk(fn any) { fn.(func())() }

// runPipeHead executes the pipe head standing at the top of the heap. The
// pipe's next entry takes the vacated root directly — one sift where a pop
// and a push would be two.
func (e *Env) runPipeHead() {
	top := e.queue.peek()
	p := top.tgt.(*Pipe)
	e.now = top.at
	e.executed++
	e.mix(top.at, kindPipe)
	n := p.head
	fn, val := n.fn, n.val
	if p.head = n.next; p.head == nil {
		p.tail = nil
		e.queue.pop()
	} else {
		e.piped--
		e.queue.siftDown(entry{at: p.head.at, seq: p.head.seq, kind: kindPipe, tgt: p})
	}
	*n = pipeNode{next: e.pipeFree}
	e.pipeFree = n
	fn(val)
}

// Pipe nodes are carved from slabs that double up to pipeSlabMax, so a small
// world pays for a few dozen nodes and a deep one allocates once per
// thousand. Nodes are never handed back to the collector before the
// environment itself goes — and under an Arena not then either: the freelist
// and the slab size it reached go to the arena's next world.
const (
	pipeSlabMin = 32
	pipeSlabMax = 1024
)

func (e *Env) newPipeNode() *pipeNode {
	if e.pipeFree == nil {
		size := min(max(2*e.pipeSlab, pipeSlabMin), pipeSlabMax)
		e.pipeSlab = size
		slab := make([]pipeNode, size)
		for i := range slab[:size-1] {
			slab[i].next = &slab[i+1]
		}
		e.pipeFree = &slab[0]
	}
	n := e.pipeFree
	e.pipeFree = n.next
	n.next = nil
	return n
}
