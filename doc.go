// Package repro is a from-scratch reproduction of "Performance of HPC
// Middleware over InfiniBand WAN" (Narravula, Subramoni, Lai, Rajaraman,
// Noronha, Panda; OSU-CISRC-12/07-TR77 / ICPP 2008) as a deterministic
// discrete-event simulation in pure Go.
//
// The paper's hardware testbed — two InfiniBand DDR clusters joined by
// Obsidian Longbow XR WAN range extenders — is modeled packet by packet,
// and every middleware layer it measures (verbs, IPoIB/TCP, MVAPICH2-style
// MPI, NFS over RDMA and over TCP) is implemented on the model.
// cmd/ibwan-exp regenerates every table and figure of the paper's evaluation
// and probes single points of any layer; `sh bench/run.sh --trace 1` reports
// what each figure (core.family.<id>.*) and each layer costs to simulate.
//
// See README.md for the layout and DESIGN.md for the substitution map from
// paper hardware to simulated substrate.
package repro
