package mpi

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/sim"
)

// FuzzCollectives runs a Bcast and a Reduce over one binomial tree per input:
// n ranks (2..16) split over two sites, a root among them, a payload between
// BcastLargeMin/2 and 3·BcastLargeMin/2 bytes, so both the small-message tree
// and the two scatter + allgather forms run, and payload bytes and vectors
// drawn from the seed. Every rank must end holding the root's bytes, and the
// root the exact sum of every rank's vector (the values are integers, so the
// sum does not depend on the order the tree adds them in).
func FuzzCollectives(f *testing.F) {
	f.Add(uint8(3), uint8(2), uint16(9000), int64(1))
	f.Add(uint8(2), uint8(3), uint16(100), int64(2))
	f.Add(uint8(6), uint8(7), uint16(1000), int64(3))
	f.Add(uint8(14), uint8(5), uint16(12000), int64(4))
	f.Add(uint8(0), uint8(1), uint16(16000), int64(5))
	f.Fuzz(func(t *testing.T, nb, rootb uint8, sizeb uint16, seed int64) {
		n := 2 + int(nb)%15
		root := int(rootb) % n
		size := BcastLargeMin/2 + int(sizeb)%BcastLargeMin
		rng := rand.New(rand.NewSource(seed))
		payload := make([]byte, size)
		rng.Read(payload)
		vecLen := 1 + rng.Intn(8)
		vals := make([][]float64, n)
		want := make([]float64, vecLen)
		for i := range vals {
			vals[i] = make([]float64, vecLen)
			for j := range vals[i] {
				vals[i][j] = float64(rng.Intn(1 << 20))
				want[j] += vals[i][j]
			}
		}
		w, _ := spreadWorld((n+1)/2, n/2, sim.Micros(10), Config{})
		defer w.Shutdown()
		delivered := make([]bool, n)
		var sum []float64
		w.Run(func(r *Rank, p *sim.Proc) {
			buf := payload
			if r.ID() != root {
				buf = make([]byte, size)
			}
			delivered[r.ID()] = bytes.Equal(r.Bcast(p, root, buf, 0), payload)
			if res := r.Reduce(p, root, vals[r.ID()]); r.ID() == root {
				sum = append([]float64(nil), res...)
			}
		})
		for i, ok := range delivered {
			if !ok {
				t.Errorf("n=%d root=%d size=%d: rank %d did not receive the root's bytes", n, root, size, i)
			}
		}
		if len(sum) != vecLen {
			t.Fatalf("n=%d root=%d: the root's Reduce returned %v", n, root, sum)
		}
		for j := range want {
			if sum[j] != want[j] {
				t.Errorf("n=%d root=%d: Reduce[%d] = %v, want %v", n, root, j, sum[j], want[j])
			}
		}
	})
}
