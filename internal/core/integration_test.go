package core

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/ib"
	"repro/internal/ipoib"
	"repro/internal/mpi"
	"repro/internal/nfs"
	"repro/internal/sim"
)

// TestMPIOverLossyWAN injects packet loss on the WAN link and checks that
// RC retransmission keeps MPI correct (if slower).
func TestMPIOverLossyWAN(t *testing.T) {
	env := sim.NewEnv()
	tb := cluster.New(env, cluster.Config{NodesA: 1, NodesB: 1, Delay: sim.Micros(100)})
	// Drop every 97th wire packet crossing the WAN.
	n := 0
	tb.WAN.Link().DropFn = func(sim.Time, ib.Crossing) bool {
		n++
		return n%97 == 0
	}
	w := mpi.NewWorld(env, []*cluster.Node{tb.A[0], tb.B[0]}, mpi.Config{})
	defer w.Shutdown()
	rng := rand.New(rand.NewSource(11))
	payloads := make([][]byte, 20)
	for i := range payloads {
		payloads[i] = make([]byte, 1+rng.Intn(30000))
		rng.Read(payloads[i])
	}
	ok := true
	w.Run(func(r *mpi.Rank, p *sim.Proc) {
		switch r.ID() {
		case 0:
			for i, pl := range payloads {
				r.Send(p, 1, 100+i, pl, 0)
			}
		case 1:
			for i, pl := range payloads {
				buf := make([]byte, len(pl))
				got, _ := r.Recv(p, 0, 100+i, buf, 0)
				if got != len(pl) || !bytes.Equal(buf, pl) {
					ok = false
				}
			}
		}
	})
	if !ok {
		t.Error("MPI payloads corrupted over lossy WAN")
	}
	if tb.WAN.Link().Counters().FaultDrops == 0 {
		t.Error("fault injection never fired; test vacuous")
	}
}

// TestNFSWriteThroughput exercises the write path the paper omitted for
// space ("NFS Write shows similar performance").
func TestNFSWriteThroughput(t *testing.T) {
	measure := func(build func(env *sim.Env, tb *cluster.Testbed) (*nfs.Server, *nfs.Client)) float64 {
		env := sim.NewEnv()
		tb := cluster.New(env, cluster.Config{NodesA: 1, NodesB: 1, Delay: sim.Micros(100)})
		defer env.Shutdown()
		srv, cl := build(env, tb)
		srv.AddSyntheticFile("f", 32<<20)
		return nfs.IOzone(env, cl, "f", nfs.IOzoneConfig{
			FileSize: 32 << 20, Threads: 8, Write: true,
		})
	}
	rdma := measure(func(env *sim.Env, tb *cluster.Testbed) (*nfs.Server, *nfs.Client) {
		return nfs.MountRDMA(tb.B[0], tb.A[0])
	})
	tcpRC := measure(func(env *sim.Env, tb *cluster.Testbed) (*nfs.Server, *nfs.Client) {
		srv, cl, err := nfs.MountTCP(env, tb.B[0], tb.A[0], ipoib.Connected)
		if err != nil {
			t.Fatalf("MountTCP: %v", err)
		}
		return srv, cl
	})
	if rdma <= 0 || tcpRC <= 0 {
		t.Fatalf("write throughput rdma=%.1f tcp=%.1f", rdma, tcpRC)
	}
	// As with reads at 100 us, the RDMA path (server pulls via RDMA read)
	// should beat the TCP path.
	if rdma < tcpRC {
		t.Errorf("NFS write at 100us: RDMA %.1f < TCP-RC %.1f; expected RDMA ahead", rdma, tcpRC)
	}
}

// TestSharedWANContention runs MPI traffic and an NFS stream over the same
// Longbow pair concurrently: both must make progress, stay correct, and
// together respect the SDR wire capacity.
func TestSharedWANContention(t *testing.T) {
	env := sim.NewEnv()
	tb := cluster.New(env, cluster.Config{NodesA: 2, NodesB: 2, Delay: sim.Micros(100)})
	// NFS between pair 0.
	srv, cl := nfs.MountRDMA(tb.B[0], tb.A[0])
	srv.AddSyntheticFile("f", 16<<20)
	// MPI between pair 1.
	w := mpi.NewWorld(env, []*cluster.Node{tb.A[1], tb.B[1]}, mpi.Config{})
	defer w.Shutdown()

	var nfsBW float64
	nfsDone := env.NewEvent()
	env.Go("nfs-driver", func(p *sim.Proc) {
		fh, _, err := cl.Lookup(p, "f")
		if err != nil {
			t.Errorf("lookup: %v", err)
			nfsDone.Trigger(nil)
			return
		}
		start := p.Now()
		const rec = 256 << 10
		for off := int64(0); off < 16<<20; off += rec {
			cl.Read(p, fh, off, rec, nil)
		}
		nfsBW = float64(16<<20) / (p.Now() - start).Seconds() / 1e6
		nfsDone.Trigger(nil)
	})
	var mpiBW float64
	w.Run(func(r *mpi.Rank, p *sim.Proc) {
		switch r.ID() {
		case 0:
			start := p.Now()
			const count, size = 64, 256 << 10
			var reqs []*mpi.Request
			for i := 0; i < count; i++ {
				reqs = append(reqs, r.Isend(p, 1, 1, nil, size))
			}
			mpi.WaitAll(p, reqs)
			r.Recv(p, 1, 2, nil, 4)
			mpiBW = float64(count*size) / (p.Now() - start).Seconds() / 1e6
		case 1:
			for i := 0; i < 64; i++ {
				r.Recv(p, 0, 1, nil, 256<<10)
			}
			r.Send(p, 0, 2, nil, 4)
		}
		if r.ID() == 0 {
			p.Wait(nfsDone)
		}
	})
	if nfsBW <= 0 || mpiBW <= 0 {
		t.Fatalf("progress: nfs=%.1f mpi=%.1f", nfsBW, mpiBW)
	}
	// Combined goodput cannot exceed the SDR WAN wire rate.
	if nfsBW+mpiBW > 1000 {
		t.Errorf("combined WAN goodput %.1f MB/s exceeds SDR wire", nfsBW+mpiBW)
	}
	// And each should have been slowed by the other (not starved).
	if nfsBW < 50 || mpiBW < 50 {
		t.Errorf("starvation under contention: nfs=%.1f mpi=%.1f", nfsBW, mpiBW)
	}
}

// TestDeterministicExperiment runs the same experiment twice and requires
// bit-identical results.
func TestDeterministicExperiment(t *testing.T) {
	run := func() []float64 {
		var out []float64
		for _, tab := range Run("fig9", Options{}) {
			for _, s := range tab.Series {
				out = append(out, s.Y...)
			}
		}
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("results diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}
