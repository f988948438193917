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
// owning environment's context. Its nodes are records of the environment's
// node list (a Free beside its events'), so an idle pipe costs no memory of
// its own, and at Arena.Reclaim every node comes back with the list's census,
// whatever pipe it was waiting in.
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
	n := e.nodes.Get()
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
	e.nodes.Put(n)
	fn(val)
}

// resetPipeNode is the node list's reset.
func resetPipeNode(n *pipeNode) { *n = pipeNode{} }
