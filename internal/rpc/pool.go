package rpc

import "repro/internal/sim"

// threadPool is a server's nfsd threads: at most max handler processes,
// started as calls need them and kept, serving calls in arrival order. A
// call that finds a thread parked wakes it; one that finds none, with fewer
// than max running, starts one; otherwise it waits in the FIFO backlog,
// which a thread that finishes a call serves before it parks again.
//
// A handler body stays a process because it waits mid-body (on the node
// CPU, the server's data context, its fragment group). Waking a parked
// thread schedules the same resume entry, at the same instant, that
// starting a process per call did, so below max concurrent calls the pool
// moves no event.
type threadPool struct {
	env     *sim.Env
	name    string
	max     int
	started int
	idle    []*nfsd
	backlog sim.Ring[*Call]
	serve   func(p *sim.Proc, c *Call)
}

// nfsd is one thread of the pool: the call it serves, and the event it is
// parked on while idle.
type nfsd struct {
	call *Call
	wake *sim.Event
}

func newThreadPool(env *sim.Env, name string, threads int, serve func(*sim.Proc, *Call)) *threadPool {
	if threads <= 0 {
		panic("rpc: a server needs at least one thread")
	}
	return &threadPool{env: env, name: name, max: threads, serve: serve}
}

// dispatch hands an arrived call to a thread, or to the backlog.
func (tp *threadPool) dispatch(c *Call) {
	if n := len(tp.idle); n > 0 {
		t := tp.idle[n-1]
		tp.idle[n-1] = nil
		tp.idle = tp.idle[:n-1]
		t.call = c
		t.wake.Trigger(nil)
		return
	}
	if tp.started < tp.max {
		tp.started++
		t := &nfsd{call: c}
		tp.env.Go(tp.name, func(p *sim.Proc) { tp.run(p, t) })
		return
	}
	tp.backlog.Push(c)
}

// run is a thread's body: serve, take the backlog's oldest call or park.
func (tp *threadPool) run(p *sim.Proc, t *nfsd) {
	for {
		tp.serve(p, t.call)
		if tp.backlog.Len() > 0 {
			t.call = tp.backlog.Pop()
			continue
		}
		t.call = nil
		t.wake = tp.env.AcquireEvent()
		tp.idle = append(tp.idle, t)
		p.Wait(t.wake)
		tp.env.ReleaseEvent(t.wake)
		t.wake = nil
	}
}
