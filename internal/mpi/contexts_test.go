package mpi

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
)

// contextProgram is one fixed program over four ranks, two per node, across
// a 1 ms WAN (ranks 0, 1 in cluster A; 2, 3 in cluster B). It drives every
// arrival path of the progress engine: eager matched and unexpected,
// rendezvous with the RTS after and before the Irecv, AnySource, each of
// those over the wire and over shared memory, and a bidirectional eager
// burst whose acknowledgements and arrivals land on a CQ while it is held
// for a receive-side copy.
func contextProgram(t *testing.T) func(r *Rank, p *sim.Proc) {
	const small, large, burst = 1 << 10, 64 << 10, 8
	from := func(r *Rank, p *sim.Proc, q *Request, want int) {
		if _, src := q.Wait(p); src != want {
			t.Errorf("rank %d: message from rank %d, want %d", r.ID(), src, want)
		}
	}
	exchange := func(r *Rank, p *sim.Proc, peer int) {
		var reqs []*Request
		for i := 0; i < burst; i++ {
			reqs = append(reqs, r.Irecv(peer, 100+i, nil, 8<<10))
		}
		for i := 0; i < burst; i++ {
			reqs = append(reqs, r.Isend(p, peer, 100+i, nil, 8<<10))
		}
		WaitAll(p, reqs)
	}
	return func(r *Rank, p *sim.Proc) {
		switch r.ID() {
		case 0:
			r.Send(p, 2, 1, nil, small) // matched on arrival
			r.Send(p, 2, 2, nil, small) // unexpected
			WaitAll(p, []*Request{
				r.Isend(p, 2, 3, nil, large), // RTS after the Irecv
				r.Isend(p, 2, 4, nil, large), // RTS before the Irecv
			})
			exchange(r, p, 2)
			r.Send(p, 1, 5, nil, small)
			r.Send(p, 1, 6, nil, small)
			r.Send(p, 1, 7, nil, large)
			r.Send(p, 1, 8, nil, large)
		case 1:
			q5, q7 := r.Irecv(0, 5, nil, small), r.Irecv(AnySource, 7, nil, large)
			p.Sleep(20 * sim.Millisecond)
			from(r, p, r.Irecv(0, 6, nil, small), 0)
			from(r, p, r.Irecv(AnySource, 8, nil, large), 0)
			from(r, p, q5, 0)
			from(r, p, q7, 0)
			from(r, p, r.Irecv(AnySource, AnyTag, nil, small), 3)
		case 2:
			q1, q3 := r.Irecv(0, 1, nil, small), r.Irecv(0, 3, nil, large)
			p.Sleep(8 * sim.Millisecond)
			from(r, p, r.Irecv(AnySource, 2, nil, small), 0)
			from(r, p, r.Irecv(AnySource, 4, nil, large), 0)
			from(r, p, q1, 0)
			from(r, p, q3, 0)
			exchange(r, p, 0)
		case 3:
			p.Sleep(30 * sim.Millisecond)
			r.Send(p, 1, 9, nil, small)
		}
	}
}

// Pinned on the commit before the progress engine became a completion
// handler (a process per rank polling the CQ, sleeping for the receive-side
// copy): a handler that holds schedules entry for entry what that process
// did, so neither may move. The testbed's route is exclusive, so the count is
// of multi-packet messages crossing it as packet trains (ib/packet.go). It is
// the 562 pinned then less the 27 RC retry timeouts that came up after their
// messages were acked: a QP's one retry timer (ib.QP) dispatches none.
const (
	contextProgramEvents = 535
	contextProgramFinish = sim.Time(32016138)
)

// Only the application is a thread of control: a world starts no process of
// its own, Run starts one per rank, and the fixed program costs exactly the
// events it cost when every rank also ran a progress process.
func TestProgressEngineIsNotAProcess(t *testing.T) {
	env := sim.NewEnv()
	tb := cluster.New(env, cluster.Config{NodesA: 1, NodesB: 1, Delay: sim.Millisecond})
	base := env.LiveProcs()
	w := NewWorld(env, BlockPlacement([]*cluster.Node{tb.A[0], tb.B[0]}, 2), Config{})
	defer w.Shutdown()
	if n := env.LiveProcs() - base; n != 0 {
		t.Fatalf("a world of %d ranks started %d processes, want 0", w.Size(), n)
	}
	program := contextProgram(t)
	finish := w.Run(func(r *Rank, p *sim.Proc) {
		if n := env.LiveProcs() - base; r.ID() == 0 && n != w.Size() {
			t.Errorf("%d live processes with %d ranks started, want %d", n, w.Size(), w.Size())
		}
		program(r, p)
	})
	if got := env.Executed(); got != contextProgramEvents || finish != contextProgramFinish {
		t.Errorf("Executed() = %d, finish = %d ns; want %d, %d: the progress engine no longer schedules what its process did",
			got, int64(finish), contextProgramEvents, int64(contextProgramFinish))
	}
}
