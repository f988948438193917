package sim

// Free is a list of free records of type T: the one freelist of the stack.
// The kernel keeps its pooled Events and its pipe nodes on two, and every
// layer that recycles records — the fabric's packets and transfers, the TCP
// stacks' segments, MPI's requests and eager headers, RPC's call records —
// keeps them on the environment's list for their type (FreeOf), and so does
// the fabric for the records a world is built of, which only Arena.Reclaim
// takes back.
//
// A list owns the whole life of its records: it makes each one (Get), keeps
// a census of all it made, resets each one it takes back (Put, Return), and
// at Arena.Reclaim takes back every record of the census, reset, whether the
// stopped world released it or not.
//
// A list is plain memory of one environment, never a sync.Pool: it is
// touched only from that environment's scheduler, last in first out, so
// which record a Get returns depends on the simulated traffic alone. A reset
// record holds no state, only memory.
type Free[T any] struct {
	free  []*T
	made  []*T      // census: every record the list made, in order
	reset func(*T)  // returns a record to the state Get hands it out in
	put   func(any) // Return's sink, made once with the list (FreeOf)
}

// freeList is what an Env and its Arena need of a Free list of any type.
type freeList interface{ reclaim() int }

// FreeOf returns e's list of free *T, creating it with reset on first use.
// A type has one reset, so a layer finds its list of a type at one place,
// which passes it. The list lives in the memory e recycles, found by its
// type: when e came from an Arena it is the list the previous world at e's
// shard index left there.
func FreeOf[T any](e *Env, reset func(*T)) *Free[T] {
	for _, l := range e.layers {
		if f, ok := l.(*Free[T]); ok {
			return f
		}
	}
	f := &Free[T]{reset: reset}
	f.put = func(v any) { f.free = append(f.free, v.(*T)) }
	e.layers = append(e.layers, f)
	return f
}

// Get takes the record put last, or makes a fresh one, reset, and counts it
// in the census. The slot it vacates may keep naming it: the census does.
func (f *Free[T]) Get() *T {
	n := len(f.free)
	if n == 0 {
		v := new(T)
		f.reset(v)
		f.made = append(f.made, v)
		return v
	}
	v := f.free[n-1]
	f.free = f.free[:n-1]
	return v
}

// Put resets v, a record of f's, and adds it to the list.
func (f *Free[T]) Put(v *T) {
	f.reset(v)
	f.free = append(f.free, v)
}

// Return resets v and sends it home to f — the list of environment home,
// which made it — from environment from, where its last reference ended: at
// once when from is home, at the next window barrier otherwise
// (Env.ReturnTo). A record whose last consumer runs on another shard thus
// neither stays there (that list would grow while home's ran dry) nor
// touches home's list mid-window. f must come from FreeOf.
func (f *Free[T]) Return(from, home *Env, v *T) {
	f.reset(v)
	from.ReturnTo(home, f.put, v)
}

// Len returns the number of records on the list.
func (f *Free[T]) Len() int { return len(f.free) }

// reclaim relists every record f made, reset, whether its world released it
// or not, and returns how many there are; the world is never touched again.
// The list never outgrows the census, so every slot the world wrote is
// rewritten.
func (f *Free[T]) reclaim() int {
	f.free = append(f.free[:0], f.made...)
	for _, v := range f.made {
		f.reset(v)
	}
	return len(f.made)
}
