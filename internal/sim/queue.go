package sim

// Queue is an unbounded-or-bounded FIFO channel between processes. A zero
// capacity means unbounded. Put blocks while the queue is full (bounded
// queues only); Get blocks while it is empty. Ordering among blocked
// processes is FIFO, which keeps the simulation deterministic.
//
// Items and waiter lists live in ring buffers, so steady-state streaming
// through a queue allocates nothing.
type Queue[T any] struct {
	env     *Env
	cap     int // 0 = unbounded
	items   Ring[T]
	getters Ring[*Event] // waiting receivers, FIFO
	putters Ring[*Event] // waiting senders, FIFO (bounded only)
}

// NewQueue creates a queue with the given capacity; capacity 0 means
// unbounded.
func NewQueue[T any](env *Env, capacity int) *Queue[T] {
	if capacity < 0 {
		panic("sim: negative queue capacity")
	}
	return &Queue[T]{env: env, cap: capacity}
}

// Len returns the number of buffered items.
func (q *Queue[T]) Len() int { return q.items.Len() }

// Put appends v, blocking while a bounded queue is full.
func (q *Queue[T]) Put(p *Proc, v T) {
	for q.cap > 0 && q.items.Len() >= q.cap {
		ev := q.env.AcquireEvent()
		q.putters.Push(ev)
		p.Wait(ev)
		q.env.ReleaseEvent(ev)
	}
	q.push(v)
}

// TryPut appends v without blocking and reports whether it fit.
func (q *Queue[T]) TryPut(v T) bool {
	if q.cap > 0 && q.items.Len() >= q.cap {
		return false
	}
	q.push(v)
	return true
}

func (q *Queue[T]) push(v T) {
	q.items.Push(v)
	if q.getters.Len() > 0 {
		q.getters.Pop().Trigger(nil)
	}
}

// Get removes and returns the head item, blocking while the queue is empty.
func (q *Queue[T]) Get(p *Proc) T {
	for q.items.Len() == 0 {
		ev := q.env.AcquireEvent()
		q.getters.Push(ev)
		p.Wait(ev)
		q.env.ReleaseEvent(ev)
	}
	v := q.items.Pop()
	if q.putters.Len() > 0 {
		q.putters.Pop().Trigger(nil)
	}
	return v
}

// TryGet removes and returns the head item without blocking.
func (q *Queue[T]) TryGet() (T, bool) {
	var zero T
	if q.items.Len() == 0 {
		return zero, false
	}
	v := q.items.Pop()
	if q.putters.Len() > 0 {
		q.putters.Pop().Trigger(nil)
	}
	return v, true
}

// Resource is a counting semaphore, used to model contended hardware such
// as a node CPU or a DMA engine. Waiters queue FIFO, but a releaser may
// barge: Release wakes the oldest waiter, and a holder that acquires again
// in the same dispatch takes the freed slot first, so the woken waiter finds
// it taken and queues again at the tail. A process that uses the resource
// in a loop thus keeps it for as long as it has work (a server's fragment
// batch is issued without interleaving); the waiter gets its turn once the
// holder blocks elsewhere or stops.
type Resource struct {
	env      *Env
	capacity int
	inUse    int
	waiters  Ring[*Event] // FIFO
}

// NewResource creates a resource with the given number of slots.
func NewResource(env *Env, capacity int) *Resource {
	if capacity <= 0 {
		panic("sim: resource capacity must be positive")
	}
	return &Resource{env: env, capacity: capacity}
}

// Acquire blocks until a slot is free and claims it.
func (r *Resource) Acquire(p *Proc) {
	for r.inUse >= r.capacity {
		ev := r.env.AcquireEvent()
		r.waiters.Push(ev)
		p.Wait(ev)
		r.env.ReleaseEvent(ev)
	}
	r.inUse++
}

// Release frees a slot previously claimed with Acquire.
func (r *Resource) Release() {
	if r.inUse <= 0 {
		panic("sim: release of unacquired resource")
	}
	r.inUse--
	if r.waiters.Len() > 0 {
		r.waiters.Pop().Trigger(nil)
	}
}

// Use runs the resource for d time on behalf of p: acquire, hold for d,
// release. It models a serial processing element.
func (r *Resource) Use(p *Proc, d Time) {
	r.Acquire(p)
	p.Sleep(d)
	r.Release()
}

// InUse returns the number of currently claimed slots.
func (r *Resource) InUse() int { return r.inUse }
