package mpi

import (
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
)

func TestHierAllreduceCorrect(t *testing.T) {
	for _, shape := range [][2]int{{2, 2}, {3, 4}, {4, 1}} {
		w, _ := spreadWorld(shape[0], shape[1], sim.Micros(100), Config{})
		n := shape[0] + shape[1]
		vecLen := 4
		want := make([]float64, vecLen)
		for i := 0; i < n; i++ {
			for j := 0; j < vecLen; j++ {
				want[j] += float64(i*100 + j)
			}
		}
		ok := true
		w.Run(func(r *Rank, p *sim.Proc) {
			vals := make([]float64, vecLen)
			for j := range vals {
				vals[j] = float64(r.ID()*100 + j)
			}
			got := r.HierAllreduce(p, vals)
			for j := range got {
				if math.Abs(got[j]-want[j]) > 1e-9 {
					ok = false
				}
			}
		})
		if !ok {
			t.Errorf("shape %v: HierAllreduce mismatch", shape)
		}
		w.Shutdown()
	}
}

func TestHierCollectivesCrossWANLess(t *testing.T) {
	// At 1 ms delay the hierarchical variants must beat the flat ones:
	// constant WAN crossings vs log(n) potentially-crossing rounds.
	measure := func(hier bool) sim.Time {
		w, _ := spreadWorld(8, 8, sim.Micros(1000), Config{})
		defer w.Shutdown()
		return w.Run(func(r *Rank, p *sim.Proc) {
			vals := []float64{float64(r.ID())}
			for i := 0; i < 3; i++ {
				if hier {
					r.HierAllreduce(p, vals)
				} else {
					r.Allreduce(p, vals)
				}
			}
		})
	}
	flat := measure(false)
	hier := measure(true)
	if hier >= flat {
		t.Errorf("hierarchical collectives (%v) not faster than flat (%v) at 1ms", hier, flat)
	}
}

func TestHierCollectivesSingleCluster(t *testing.T) {
	// Degenerate case: all ranks in one cluster falls back to the flat
	// algorithms.
	env := newEnvWorld(t)
	defer env.Shutdown()
	ok := true
	env.Run(func(r *Rank, p *sim.Proc) {
		got := r.HierAllreduce(p, []float64{1})
		if got[0] != float64(r.Size()) {
			ok = false
		}
	})
	if !ok {
		t.Error("single-cluster hierarchical collectives wrong")
	}
}

// newEnvWorld builds a world entirely within cluster A.
func newEnvWorld(t *testing.T) *World {
	t.Helper()
	env := sim.NewEnv()
	tb := cluster.New(env, cluster.Config{NodesA: 4, NodesB: 1})
	return NewWorld(env, []*cluster.Node{tb.A[0], tb.A[1], tb.A[2], tb.A[3]}, Config{})
}
