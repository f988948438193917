package sim

// Free is a list of free records of type T: the one freelist of the stack.
// The kernel keeps its pooled Events on one, and every layer that recycles
// records — the fabric's packets and transfers, the TCP stacks' segments,
// MPI's requests and eager headers, RPC's call records — keeps them on the
// environment's list for their type (FreeOf).
//
// A list is plain memory of one environment, never a sync.Pool: it is
// touched only from that environment's scheduler, last in first out, so
// which record a Get returns depends on the simulated traffic alone. A record
// is reset by whoever puts it back, so a list holds no state, only memory.
type Free[T any] struct {
	free []*T
	put  func(any) // Return's sink, made once with the list (FreeOf)
}

// FreeOf returns e's list of free *T, creating it on first use. It lives in
// the memory e recycles, found by its type: when e came from an Arena it is
// the list the previous world at e's shard index left there.
func FreeOf[T any](e *Env) *Free[T] {
	for _, l := range e.layers {
		if f, ok := l.(*Free[T]); ok {
			return f
		}
	}
	f := new(Free[T])
	f.put = func(v any) { f.Put(v.(*T)) }
	e.layers = append(e.layers, f)
	return f
}

// Get takes the record put last, or returns nil on an empty list: making a
// fresh one, and whatever setup that takes, is the caller's. The list may
// outlive the world (see Arena), so Get clears the slot it vacates: past the
// list's end its array must not go on naming a record the world now uses.
func (f *Free[T]) Get() *T {
	n := len(f.free)
	if n == 0 {
		return nil
	}
	v := f.free[n-1]
	f.free[n-1] = nil
	f.free = f.free[:n-1]
	return v
}

// Put adds v, already reset, to the list.
func (f *Free[T]) Put(v *T) { f.free = append(f.free, v) }

// Return sends v, already reset, home to f — the list of environment home —
// from environment from, where its last reference ended: at once when from
// is home, at the next window barrier otherwise (Env.ReturnTo). A record
// whose last consumer runs on another shard thus neither stays there (that
// list would grow while home's ran dry) nor touches home's list mid-window.
// f must come from FreeOf.
func (f *Free[T]) Return(from, home *Env, v *T) {
	if from == home {
		f.Put(v)
		return
	}
	from.ReturnTo(home, f.put, v)
}

// Len returns the number of records on the list.
func (f *Free[T]) Len() int { return len(f.free) }
