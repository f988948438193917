package sim

// Ring is a growable FIFO ring buffer. It replaces the slice-shift idiom
// (`s = s[1:]` after reading the head), which leaks the consumed prefix of
// the backing array and forces a fresh allocation every time append
// catches up with the shifted window. A Ring reuses its backing array
// forever: steady-state Push/Pop traffic allocates nothing.
//
// The zero value is an empty ring ready for use. Ring is not safe for
// concurrent use; like every simulation structure it relies on the
// one-goroutine-at-a-time execution model.
type Ring[T any] struct {
	buf  []T // power-of-two capacity
	head int // index of the first element
	n    int // number of elements
}

// Len returns the number of buffered elements.
func (r *Ring[T]) Len() int { return r.n }

// Push appends v at the tail.
func (r *Ring[T]) Push(v T) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

// Pop removes and returns the head element. It panics on an empty ring.
func (r *Ring[T]) Pop() T {
	if r.n == 0 {
		panic("sim: Pop from empty ring")
	}
	var zero T
	v := r.buf[r.head]
	r.buf[r.head] = zero // drop the reference so the GC can reclaim it
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return v
}

// Front returns a pointer to the head element (valid until the next Push
// or Pop). It panics on an empty ring.
func (r *Ring[T]) Front() *T {
	if r.n == 0 {
		panic("sim: Front of empty ring")
	}
	return &r.buf[r.head]
}

// At returns a pointer to the i-th element from the head (valid until the
// next Push or Pop).
func (r *Ring[T]) At(i int) *T {
	if i < 0 || i >= r.n {
		panic("sim: ring index out of range")
	}
	return &r.buf[(r.head+i)&(len(r.buf)-1)]
}

// Clear empties the ring and zeroes its slots, keeping the backing array.
func (r *Ring[T]) Clear() {
	clear(r.buf)
	r.head, r.n = 0, 0
}

// grow doubles the capacity, unwrapping the elements into order.
func (r *Ring[T]) grow() {
	c := len(r.buf) * 2
	if c == 0 {
		c = 8
	}
	buf := make([]T, c)
	for i := 0; i < r.n; i++ {
		buf[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
	}
	r.buf = buf
	r.head = 0
}
