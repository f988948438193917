package sim

// Arena keeps the memory a world recycles alive after the world is gone, so
// the next world starts with warm freelists instead of growing them again:
// the event heap's backing array, the pooled Events, the pipe nodes and the
// slab size they had reached, and whatever the layers above keep under
// Env.Recycled (the fabric's packet and transfer lists, the TCP stacks'
// segments). It holds one such set per shard index, so a partitioned world
// hands each view the memory a view at that index returned.
//
// An arena is plain memory owned by whoever runs the worlds — one per
// experiment worker — never a sync.Pool: what a world finds in it depends
// only on the worlds that worker ran before, and nothing simulated can
// depend on it at all, because only objects that were reset when they were
// released are kept (see Reclaim). It serves one world at a time.
type Arena struct {
	shards []envMem // by shard index; an unpartitioned world uses shards[0]
	lent   bool     // the memory is out with a world until Reclaim
}

// envMem is what one environment (one shard view) recycles.
type envMem struct {
	heap     []entry
	evFree   []*Event
	pipeFree *pipeNode
	pipeSlab int
	layers   []layerMem
}

// layerMem is one layer's recycled memory, stored under the layer's own key
// type (see Env.Recycled).
type layerMem struct{ key, val any }

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
	for _, ev := range e.evFree {
		// ReleaseEvent truncated the waiters; the backing array still names
		// the old world's processes.
		ev.env = nil
		clear(ev.waiters[:cap(ev.waiters)])
	}
	m := envMem{heap: e.queue.s[:0], evFree: e.evFree, pipeFree: e.pipeFree, pipeSlab: e.pipeSlab, layers: e.layers}
	e.queue.s, e.evFree, e.pipeFree, e.pipeSlab, e.layers, e.piped = nil, nil, nil, 0, nil, 0
	return m
}

// Recycled returns the value a layer keeps under key in the memory this
// environment recycles, creating it with fresh on first use. Like the
// telemetry and fault slots it is opaque to the kernel: a layer stores its
// freelists here under a key type of its own, and when the environment came
// from an Arena they are what the previous world at this shard index left
// behind. Everything reachable from the value must stay valid without the
// world — free objects reset at release, nothing in use.
func (e *Env) Recycled(key any, fresh func() any) any {
	for _, l := range e.layers {
		if l.key == key {
			return l.val
		}
	}
	v := fresh()
	e.layers = append(e.layers, layerMem{key, v})
	return v
}
