package sim

// Server is a serial service context without a process: a FIFO with one
// item in service for cost(item) of virtual time, done(item) running when
// that service ends. Items start and finish by the recurrence
//
//	start_i = max(put_i, done_{i-1}),  done_i = start_i + cost_i
//
// which the process loop `for { v := q.Get(p); p.Sleep(cost(v)); done(v) }`
// computes too. The server starts idle, schedules nothing until the first
// Put, and takes one heap entry per item: at done_i, whose dispatch runs
// done and starts the next item or goes idle. The loop took a resume hop
// more to start an item on an idle queue and another after each sleep, so
// its instants are the server's but not its order among same-instant work.
//
// cost runs at service start — inside the caller's Put when the server is
// idle — so what it accounts (busy time, counters) is charged at start_i;
// done runs in scheduler context. Neither may block, which is what
// separates a server from a process: a body that waits for anything but its
// own input and one service time stays a Proc. Both may call Put, which
// queues behind the items already waiting.
type Server[T any] struct {
	env    *Env
	cost   func(T) Time
	done   func(T)
	items  Ring[T]
	cur    T         // the item in service
	busy   bool      // an item is in service: Put queues
	finish func(any) // bound once so scheduling allocates nothing
}

// NewServer creates an idle server on env.
func NewServer[T any](env *Env, cost func(T) Time, done func(T)) *Server[T] {
	s := &Server[T]{env: env, cost: cost, done: done}
	s.finish = func(any) {
		v := s.cur
		var zero T
		s.cur = zero
		s.done(v)
		s.busy = false
		if s.items.Len() > 0 {
			s.start(s.items.Pop())
		}
	}
	return s
}

// Put queues v for service, starting it at once on an idle server. It never
// blocks and may be called from process or scheduler context.
func (s *Server[T]) Put(v T) {
	if s.busy {
		s.items.Push(v)
	} else {
		s.start(v)
	}
}

// start puts v in service and schedules the end of its service.
func (s *Server[T]) start(v T) {
	s.busy = true
	c := s.cost(v)
	if c < 0 {
		panic("sim: Server cost function returned a negative service time")
	}
	s.cur = v
	s.env.scheduleArg(s.env.now+c, s.finish, nil)
}
