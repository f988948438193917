package sim

// Arena keeps the memory a world recycles alive after the world is gone, so
// the next world starts with warm freelists instead of growing them again:
// the event heap's backing array, the pooled Events, the pipe nodes and the
// slab size they had reached, and the layers' freelists (FreeOf: the
// fabric's packets and transfers, the TCP stacks' segments, MPI's requests
// and headers, RPC's call records). It holds one such set per shard index,
// so a partitioned world hands each view the memory a view at that index
// returned.
//
// An arena is plain memory owned by whoever runs the worlds — one per
// experiment worker — never a sync.Pool: what a world finds in it depends
// only on the worlds that worker ran before, and nothing simulated can
// depend on it at all, because only objects that were reset when they were
// released are kept (see Reclaim). It serves one world at a time.
//
// What a world allocates does depend on it: a world finds warm whatever
// records the worlds before it on the arena put back, so an experiment's
// allocation count depends on what its worker ran before (fig6 allocates
// 8 755 objects right after fig5 in registry order, 12 184 cold).
type Arena struct {
	shards []envMem // by shard index; an unpartitioned world uses shards[0]
	lent   bool     // the memory is out with a world until Reclaim
}

// envMem is what one environment (one shard view) recycles.
type envMem struct {
	heap     []entry
	evFree   Free[Event]
	pipeFree *pipeNode
	pipeSlab int
	layers   []any
}

// NewArena returns an empty arena.
func NewArena() *Arena { return new(Arena) }

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
	e.queue.s, e.evFree, e.pipeFree, e.pipeSlab, e.layers = m.heap, m.evFree, m.pipeFree, m.pipeSlab, m.layers
	*m = envMem{}
}

// Reclaim takes back the memory of a world made by a.NewEnv, every shard
// view's into its index. The world must have been shut down and must not be
// run or scheduled on again; an environment that did not borrow from a is
// left alone. Only what was free crosses to the next world — objects the
// stopped world still holds stay with it for the collector — with one
// exception: pipe nodes are carved from slabs, a slab lives as long as any
// node of it is kept, so the nodes still waiting in pipes are scrubbed and
// kept too rather than left pinning the dead world.
//
// A world that failed mid-event may have left anything half-done: drop its
// arena instead of reclaiming.
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
}

// detach empties e and returns what it recycles, free of references into
// e's world.
func (e *Env) detach() envMem {
	// Every non-empty pipe has its head standing in the heap.
	for i := range e.queue.s {
		if ent := &e.queue.s[i]; ent.kind == kindPipe {
			p := ent.tgt.(*Pipe)
			for n := p.head; n != nil; {
				next := n.next
				*n = pipeNode{next: e.pipeFree}
				e.pipeFree = n
				n = next
			}
			p.head, p.tail = nil, nil
		}
	}
	clear(e.queue.s)
	m := envMem{heap: e.queue.s[:0], evFree: e.evFree, pipeFree: e.pipeFree, pipeSlab: e.pipeSlab, layers: e.layers}
	e.queue.s, e.evFree, e.pipeFree, e.pipeSlab, e.layers, e.piped = nil, Free[Event]{}, nil, 0, nil, 0
	return m
}
