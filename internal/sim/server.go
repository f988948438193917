package sim

// Server is a serial service context without a process: items queue FIFO,
// one is in service at a time for cost(item) of virtual time, and done(item)
// runs when its service ends. It is the event-driven form of the loop
//
//	env.Go(name, func(p *Proc) {
//		for {
//			v := q.Get(p)
//			p.Sleep(cost(v))
//			done(v)
//		}
//	})
//
// and schedules exactly the heap entries that process would, so replacing
// one with the other moves no event, no tie and no Executed() count: one
// entry at construction (Go's first resume); one at now when Put finds the
// server idle (the parked Get's resume); per item one at now+cost (Sleep's
// trigger) whose dispatch schedules one more at now (the resume after the
// sleep), which runs done and takes the next item. What it saves is the
// coroutine switch behind every one of those resumes. cost is called when
// service starts, done in scheduler context — neither may block, which is
// what separates a server from a process: a body that waits for anything
// but its own input and one service time stays a Proc.
type Server[T any] struct {
	env    *Env
	cost   func(T) Time
	done   func(T)
	items  Ring[T]
	cur    T    // the item in service
	parked bool // idle with nothing queued: the next Put wakes the server
	// The three dispatch targets, bound once so scheduling allocates nothing.
	next, expire, finish func(any)
}

// NewServer creates a server on env. Like a process started with Go, it
// first looks at its queue after the work already scheduled for this instant.
func NewServer[T any](env *Env, cost func(T) Time, done func(T)) *Server[T] {
	s := &Server[T]{env: env, cost: cost, done: done}
	s.next = func(any) { s.serveNext() }
	s.expire = func(any) { env.scheduleArg(env.now, s.finish, nil) }
	s.finish = func(any) {
		v := s.cur
		var zero T
		s.cur = zero
		s.done(v)
		s.serveNext()
	}
	env.scheduleArg(env.now, s.next, nil)
	return s
}

// Put queues v for service. It never blocks and may be called from process
// or scheduler context, including from inside done.
func (s *Server[T]) Put(v T) {
	s.items.Push(v)
	if s.parked {
		s.parked = false
		s.env.scheduleArg(s.env.now, s.next, nil)
	}
}

// serveNext starts service of the head item, or parks the server.
func (s *Server[T]) serveNext() {
	if s.items.Len() == 0 {
		s.parked = true
		return
	}
	v := s.items.Pop()
	c := s.cost(v)
	if c < 0 {
		panic("sim: Server cost function returned a negative service time")
	}
	s.cur = v
	s.env.scheduleArg(s.env.now+c, s.expire, nil)
}
