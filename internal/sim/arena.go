package sim

// Arena keeps the memory a world recycles alive after the world is gone, so
// the next world starts with warm freelists instead of growing them again:
// the event heap's backing array, the kernel's lists of Events and pipe
// nodes, and the layers' freelists (FreeOf: the fabric's packets and
// transfers, the TCP stacks' segments, MPI's requests and headers, RPC's call
// records, and the world's skeleton: fabric, pools, switches, links, HCAs,
// QPs, CQs, WAN pairs with their Longbows). It holds one such set per shard
// index, so a partitioned world hands each view the memory a view at that
// index returned, and the last partitioned world's lanes, lane pipes and
// window scratch, emptied, for the next one of as many shards.
//
// An arena is plain memory owned by whoever runs the worlds — one per
// experiment worker — never a sync.Pool: what a world finds in it depends
// only on the worlds that worker ran before, and nothing simulated can
// depend on it at all, because every object it keeps is reset (see
// Reclaim). It serves one world at a time.
//
// Everything a list made crosses, so a warm world allocates only past the
// records the worlds before it needed: on an arena that ran fig6 once, fig6
// allocates 1 639 objects whatever ran in between (5 108 cold).
type Arena struct {
	shards []envMem // by shard index; an unpartitioned world uses shards[0]
	mail   mailbox  // the last partitioned world's lanes, pipes and scratch, emptied
	lent   bool     // the memory is out with a world until Reclaim
}

// envMem is what one environment (one shard view) recycles.
type envMem struct {
	heap    []entry
	evFree  Free[Event]
	nodes   Free[pipeNode]
	layers  []freeList
	records int // how many records the lists had made when their world ended
}

// NewArena returns an empty arena.
func NewArena() *Arena { return new(Arena) }

// Records returns how many records the arena's lists had made when their
// worlds ended, all of which they hold: a world that leaves it unchanged
// made none.
func (a *Arena) Records() (n int) {
	for _, m := range a.shards {
		n += m.records
	}
	return n
}

// NewEnv returns an empty environment that starts out with the arena's
// memory and gives it back at Reclaim. While the memory is out with another
// world, and on a nil arena, it is sim.NewEnv.
func (a *Arena) NewEnv() *Env {
	e := NewEnv()
	if a != nil && !a.lent {
		a.lent = true
		e.arena = a
		a.lend(e, 0)
	}
	return e
}

// lend moves the memory kept for the given shard index into e.
func (a *Arena) lend(e *Env, shard int) {
	if shard >= len(a.shards) {
		return
	}
	m := &a.shards[shard]
	e.queue.s, e.evFree, e.nodes, e.layers = m.heap, m.evFree, m.nodes, m.layers
	*m = envMem{}
}

// Reclaim takes back the memory of a world made by a.NewEnv, every shard
// view's into its index. The world must have been shut down and must not be
// run or scheduled on again; an environment that did not borrow from a is
// left alone. Everything a list made crosses to the next world, reset —
// also the records the stopped world still held: segments unacked or on the
// wire, packets on links, transfers in windows, nodes waiting in pipes,
// records in return lanes. The dead world's owners may go on naming them;
// nothing reads those names again.
//
// A world that failed is reclaimed the same way, even one a panic stopped
// mid-dispatch, in a process or a callback, on any shard. Reclaim reads
// nothing of the world's structure (no pipe, device or connection), only what
// the kernel keeps itself: the heap's array, cleared; the lists' censuses,
// each record reset from its own memory alone; a partitioned world's mailbox,
// zeroed to capacity. A panic leaves none of these half-written: the kernel
// is done with the heap and a pipe's node before it runs a handler, a list's
// Get and Put complete before their caller goes on, and the barrier collects
// every shard before it raises the earliest panic. What the panic left
// half-done lies in the world's records, which the resets overwrite, and in
// its structure, which nothing reads again.
func (a *Arena) Reclaim(e *Env) {
	if a == nil || e.arena != a {
		return
	}
	e.arena = nil
	a.lent = false
	views := e.world.shards
	for len(a.shards) < len(views) {
		a.shards = append(a.shards, envMem{})
	}
	for i, v := range views {
		a.shards[i] = v.detach()
	}
	if len(views) > 1 {
		a.mail = e.world.mailbox.emptied()
	}
}

// takeMailbox returns the storage of an n-shard world: the one a reclaimed
// world of n shards left, or a fresh one.
func (a *Arena) takeMailbox(n int) (m mailbox) {
	if a != nil && len(a.mail.next) == n {
		m, a.mail = a.mail, mailbox{}
		return m
	}
	return mailbox{bounds: make([]Time, n*n), lanes: make([]lane, n*n), pipes: make([]Pipe, n*n),
		next: make([]Time, n), est: make([]Time, n), limits: make([]Time, n),
		active: make([]int32, 0, n), repShards: make([]ShardStats, n)}
}

// detach empties e and returns what it recycles, reset and free of
// references into e's world.
func (e *Env) detach() envMem {
	clear(e.queue.s)
	n := e.evFree.reclaim() + e.nodes.reclaim()
	for _, l := range e.layers {
		n += l.reclaim()
	}
	m := envMem{heap: e.queue.s[:0], evFree: e.evFree, nodes: e.nodes, layers: e.layers, records: n}
	e.queue.s, e.evFree, e.nodes, e.layers, e.piped = nil, Free[Event]{}, Free[pipeNode]{}, nil, 0
	return m
}
