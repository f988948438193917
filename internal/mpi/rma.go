package mpi

import (
	"fmt"

	"repro/internal/ib"
	"repro/internal/sim"
)

// This file implements MPI-2 one-sided communication (RMA): window
// creation, Put, Get and Fence, mapped directly onto RDMA write/read —
// the programming model RDMA-capable interconnects were built for, and a
// natural extension of the paper's middleware set.

// Win is one rank's handle on a window: a remotely accessible memory
// region on every rank.
type Win struct {
	rank    *Rank
	size    int
	local   []byte
	regions []*ib.MR // indexed by rank
	pending []*Request
	id      int
}

// winState accumulates a collective window creation.
type winState struct {
	regions []*ib.MR
	joined  int
	ready   *sim.Event
}

// WinCreate collectively creates a window exposing buf (or a synthetic
// region of the given size when buf is nil) on every rank. Like
// MPI_Win_create it must be called by all ranks in the same order.
func (r *Rank) WinCreate(p *sim.Proc, buf []byte, size int) *Win {
	if buf != nil {
		size = len(buf)
	}
	w := r.world
	if w.env.Sharded() {
		// The window-creation rendezvous (winStates, the shared ready
		// event) is cross-rank shared state with no wire between the
		// parties — it cannot run concurrently across shards. No multi-site
		// experiment uses RMA; revisit with a leader-based exchange if one
		// ever does.
		panic("mpi: WinCreate is not supported on a sharded (partitioned) world")
	}
	r.winSeq++
	id := r.winSeq
	st := w.winStates[id]
	if st == nil {
		st = &winState{regions: make([]*ib.MR, len(w.ranks)), ready: w.env.NewEvent()}
		w.winStates[id] = st
	}
	var mr *ib.MR
	if buf != nil {
		mr = r.node.HCA.RegisterMR(buf)
	} else {
		mr = r.node.HCA.RegisterVirtualMR(size)
	}
	st.regions[r.id] = mr
	st.joined++
	if st.joined == len(w.ranks) {
		st.ready.Trigger(nil)
	} else {
		p.Wait(st.ready)
	}
	// The exchange of region handles costs a barrier's worth of traffic.
	r.Barrier(p)
	return &Win{rank: r, size: size, local: buf, regions: st.regions, id: id}
}

// Put starts a one-sided write of data (or size synthetic bytes) into the
// target rank's window at the given offset. Completion is deferred to the
// next Fence.
func (w *Win) Put(p *sim.Proc, target int, data []byte, size, targetOff int) {
	if data != nil {
		size = len(data)
	}
	r := w.rank
	if target == r.id {
		// Local put: a memcpy.
		if data != nil && w.local != nil {
			copy(w.local[targetOff:], data)
		}
		p.Sleep(sim.Time(float64(size) * ShmPerByteNanos))
		return
	}
	if targetOff+size > w.size {
		panic(fmt.Sprintf("mpi: Put beyond window bounds: off=%d size=%d win=%d", targetOff, size, w.size))
	}
	peer := r.world.ranks[target]
	req := r.newRequest(target, 0, size, nil)
	r.world.profile.record(size)
	qp := r.qpTo(peer)
	qp.PostSend(ib.SendWR{
		Op: ib.OpRDMAWrite, Data: data, Len: size,
		RemoteMR: w.regions[target], RemoteOff: targetOff, Ctx: req,
	})
	w.pending = append(w.pending, req)
}

// Get starts a one-sided read of size bytes (into buf when non-nil) from
// the target rank's window at the given offset. Completion is deferred to
// the next Fence.
func (w *Win) Get(p *sim.Proc, target int, buf []byte, size, targetOff int) {
	if buf != nil {
		size = len(buf)
	}
	r := w.rank
	if target == r.id {
		if buf != nil && w.local != nil {
			copy(buf, w.local[targetOff:targetOff+size])
		}
		p.Sleep(sim.Time(float64(size) * ShmPerByteNanos))
		return
	}
	if targetOff+size > w.size {
		panic("mpi: Get beyond window bounds")
	}
	peer := r.world.ranks[target]
	req := r.newRequest(target, 0, size, nil)
	r.world.profile.record(size)
	qp := r.qpTo(peer)
	qp.PostSend(ib.SendWR{
		Op: ib.OpRDMARead, Len: size, LocalBuf: buf,
		RemoteMR: w.regions[target], RemoteOff: targetOff, Ctx: req,
	})
	w.pending = append(w.pending, req)
}

// Fence completes all locally issued one-sided operations and synchronizes
// all ranks (MPI_Win_fence): after it returns, every rank's puts are
// visible in every window.
func (w *Win) Fence(p *sim.Proc) {
	WaitAll(p, w.pending)
	clear(w.pending)
	w.pending = w.pending[:0]
	w.rank.Barrier(p)
}
