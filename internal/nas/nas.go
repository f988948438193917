// Package nas implements communication skeletons of the NAS Parallel
// Benchmarks the paper runs over the WAN (§3.5, Fig. 12): IS, FT and CG,
// class B, on 64 processes split evenly across the two clusters.
//
// Each kernel reproduces the benchmark's communication structure and
// message-size distribution — which the paper identifies as the factor
// that decides WAN tolerance:
//
//   - IS (integer sort): per iteration, a bucket-count allreduce followed
//     by an all-to-all key redistribution; effectively 100% of the traffic
//     volume is large messages.
//   - FT (3-D FFT): per iteration a full array transpose (all-to-all of
//     large blocks); ~83% large messages (the rest are setup exchanges and
//     checksum reductions).
//   - CG (conjugate gradient): per iteration several medium point-to-point
//     row/column exchanges and multiple tiny dot-product allreduces — all
//     messages under 1 MB, many latency-bound collectives.
//
// Two further kernels extend Fig. 12's sensitivity spectrum: MG (multigrid
// V-cycles, whose coarse levels are latency-bound) and LU (pipelined
// wavefront sweeps of tiny blocking messages, the most delay-hostile
// pattern in the suite).
//
// Compute phases are charged as virtual time calibrated to class-B problem
// sizes, so the compute:communication ratio (and hence the delay
// sensitivity) matches the paper's qualitative behaviour.
package nas

import (
	"fmt"

	"repro/internal/mpi"
	"repro/internal/sim"
)

// Kernel names.
const (
	IS = "IS"
	FT = "FT"
	CG = "CG"
	MG = "MG"
	LU = "LU"
)

// Kernels lists the benchmarks the paper discusses explicitly (IS, FT, CG).
func Kernels() []string { return []string{IS, FT, CG} }

// AllKernels additionally includes MG (multigrid V-cycles: medium halo
// exchanges) and LU (pipelined wavefront sweeps: many tiny messages), which
// Figure 12's "NAS benchmarks" sweep covers.
func AllKernels() []string { return []string{IS, FT, CG, MG, LU} }

// Classes lists the problem classes, the paper's first.
func Classes() []string { return []string{"B", "A", "W"} }

// params holds NAS problem-class parameters.
type params struct {
	// IS: keys of 4 bytes, ranking iterations.
	isKeys  int64
	isIters int
	// FT: grid bytes (16-byte complex values), iterations.
	ftBytes int64
	ftIters int
	// CG: matrix order, nonzeros, iterations.
	cgN     int64
	cgNnz   int64
	cgIters int
	// MG: grid points per side, V-cycle iterations.
	mgDim   int64
	mgIters int
	// LU: grid points per side, SSOR iterations.
	luDim   int64
	luIters int
}

// classes maps NAS class letters to problem sizes. Class B is the paper's
// configuration; class W is a small instance for quick runs and tests.
var classes = map[string]params{
	"B": {
		isKeys: 1 << 25, isIters: 10,
		ftBytes: 512 * 256 * 256 * 16, ftIters: 20,
		cgN: 75000, cgNnz: 13_000_000, cgIters: 75,
		mgDim: 256, mgIters: 20,
		luDim: 102, luIters: 250,
	},
	"A": {
		isKeys: 1 << 23, isIters: 10,
		ftBytes: 256 * 256 * 128 * 16, ftIters: 6,
		cgN: 14000, cgNnz: 1_850_000, cgIters: 15,
		mgDim: 256, mgIters: 4,
		luDim: 64, luIters: 50,
	},
	"W": {
		isKeys: 1 << 20, isIters: 10,
		ftBytes: 128 * 128 * 32 * 16, ftIters: 6,
		cgN: 7000, cgNnz: 1_200_000, cgIters: 15,
		mgDim: 128, mgIters: 4,
		luDim: 33, luIters: 30,
	},
}

// Per-element compute costs (virtual nanoseconds), calibrated so the
// class-B compute:communication ratio matches mid-2000s Xeons (IS ranking
// is memory-bound at ~100+ ns per key touched; FT spends ~5 log N flops
// per point).
const (
	isRankNanosPerKey  = 400.0
	ftNanosPerByte     = 80.0
	cgNanosPerNonzero  = 150.0
	cgNanosPerVectorEl = 10.0
	mgNanosPerPoint    = 40.0
	luNanosPerPoint    = 30.0
)

// Run executes the class-B kernel skeleton on the world (the paper's
// configuration) and returns the elapsed virtual execution time.
func Run(w *mpi.World, kernel string) sim.Time {
	return RunClass(w, kernel, "B")
}

// RunClass executes the kernel skeleton at the given problem class ("B" or
// "W") and returns the elapsed virtual execution time.
func RunClass(w *mpi.World, kernel, class string) sim.Time {
	b, ok := classes[class]
	if !ok {
		panic(fmt.Sprintf("nas: unknown class %q (have %v)", class, Classes()))
	}
	switch kernel {
	case IS:
		return runIS(w, b)
	case FT:
		return runFT(w, b)
	case CG:
		return runCG(w, b)
	case MG:
		return runMG(w, b)
	case LU:
		return runLU(w, b)
	}
	panic(fmt.Sprintf("nas: unknown kernel %q", kernel))
}

// runIS: each iteration ranks local keys, allreduces bucket counts, then
// redistributes all keys with an all-to-all.
func runIS(w *mpi.World, b params) sim.Time {
	n := w.Size()
	keysPer := b.isKeys / int64(n)
	perPair := int(b.isKeys * 4 / int64(n) / int64(n))
	bucketCounts := make([]float64, 64) // 512 B reduction payload
	return w.Run(func(r *mpi.Rank, p *sim.Proc) {
		for it := 0; it < b.isIters; it++ {
			p.Sleep(sim.Time(float64(keysPer) * isRankNanosPerKey))
			r.Allreduce(p, bucketCounts)
			r.AlltoallSynthetic(p, perPair)
		}
		r.Barrier(p)
	})
}

// runFT: each iteration computes local 1-D FFTs and transposes the global
// array with an all-to-all.
func runFT(w *mpi.World, b params) sim.Time {
	n := w.Size()
	bytesPer := b.ftBytes / int64(n)
	perPair := int(bytesPer / int64(n))
	checksum := make([]float64, 2)
	return w.Run(func(r *mpi.Rank, p *sim.Proc) {
		for it := 0; it < b.ftIters; it++ {
			p.Sleep(sim.Time(float64(bytesPer) * ftNanosPerByte))
			r.AlltoallSynthetic(p, perPair)
			r.Allreduce(p, checksum)
		}
		r.Barrier(p)
	})
}

// runCG: a 2-D processor grid; each iteration does a sparse matvec with
// row-neighbour exchanges, then two dot-product allreduces — the
// latency-bound pattern that makes CG degrade on high-delay WANs.
func runCG(w *mpi.World, b params) sim.Time {
	n := w.Size()
	rows := gridRows(n)
	cols := n / rows
	segBytes := int(b.cgN / int64(rows) * 8) // vector segment exchanged
	nnzPer := b.cgNnz / int64(n)
	vecPer := b.cgN / int64(rows)
	dot := make([]float64, 1)
	return w.Run(func(r *mpi.Rank, p *sim.Proc) {
		myRow := r.ID() / cols
		myCol := r.ID() % cols
		for it := 0; it < b.cgIters; it++ {
			// Local sparse matvec.
			p.Sleep(sim.Time(float64(nnzPer)*cgNanosPerNonzero + float64(vecPer)*cgNanosPerVectorEl))
			// Row-group reduce-exchange of partial results: butterfly
			// over the row (log2(cols) medium messages).
			for mask := 1; mask < cols; mask <<= 1 {
				partner := myRow*cols + (myCol ^ mask)
				if partner < n {
					r.Sendrecv(p, partner, 2000+it*8+mask, nil, segBytes,
						partner, 2000+it*8+mask, nil, segBytes)
				}
			}
			// Transpose exchange with the diagonal partner.
			tp := transposePartner(r.ID(), rows, cols)
			if tp != r.ID() {
				r.Sendrecv(p, tp, 3000+it, nil, segBytes, tp, 3000+it, nil, segBytes)
			}
			// Two tiny dot-product reductions (rho, alpha).
			r.Allreduce(p, dot)
			r.Allreduce(p, dot)
		}
		r.Barrier(p)
	})
}

// gridRows picks the largest power-of-two row count <= sqrt(n).
func gridRows(n int) int {
	r := 1
	for r*r <= n {
		r <<= 1
	}
	r >>= 1
	if r < 1 {
		return 1
	}
	return r
}

// transposePartner mirrors a rank across the processor-grid diagonal.
func transposePartner(id, rows, cols int) int {
	row := id / cols
	col := id % cols
	if col >= rows || row >= cols {
		return id
	}
	return col*cols + row
}

// PerPairBytes returns the class-B all-to-all block size a kernel
// exchanges per process pair at the given world size (0 for CG, which has
// no all-to-all).
func PerPairBytes(kernel string, n int) int {
	b := classes["B"]
	switch kernel {
	case IS:
		return int(b.isKeys * 4 / int64(n) / int64(n))
	case FT:
		return int(b.ftBytes / int64(n) / int64(n))
	case CG:
		return 0
	}
	panic("nas: unknown kernel")
}
