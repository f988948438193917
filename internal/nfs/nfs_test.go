package nfs

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/ipoib"
	"repro/internal/sim"
)

func testbed(delay sim.Time) (*sim.Env, *cluster.Testbed) {
	env := sim.NewEnv()
	tb := cluster.New(env, cluster.Config{NodesA: 1, NodesB: 1, Delay: delay})
	return env, tb
}

// run executes fn in a fresh process and runs the sim to completion.
func run(env *sim.Env, fn func(p *sim.Proc)) {
	env.Go("test", func(p *sim.Proc) {
		fn(p)
		env.Stop()
	})
	env.Run()
}

func TestLookupGetattrRDMA(t *testing.T) {
	env, tb := testbed(sim.Micros(100))
	defer env.Shutdown()
	srv, cl := MountRDMA(tb.B[0], tb.A[0])
	srv.AddSyntheticFile("big", 1<<30)
	run(env, func(p *sim.Proc) {
		fh, size, err := cl.Lookup(p, "big")
		if err != nil || size != 1<<30 {
			t.Errorf("Lookup = fh %d size %d err %v", fh, size, err)
		}
		if _, _, err := cl.Lookup(p, "missing"); err != ErrNotFound {
			t.Errorf("Lookup(missing) err = %v", err)
		}
	})
}

func TestReadWriteDataRDMA(t *testing.T) {
	env, tb := testbed(sim.Micros(100))
	defer env.Shutdown()
	srv, cl := MountRDMA(tb.B[0], tb.A[0])
	content := make([]byte, 20000)
	rand.New(rand.NewSource(5)).Read(content)
	srv.AddFile("data", append([]byte(nil), content...))
	run(env, func(p *sim.Proc) {
		fh, _, _ := cl.Lookup(p, "data")
		buf := make([]byte, 8192)
		n, err := cl.Read(p, fh, 4096, 8192, buf)
		if err != nil || n != 8192 {
			t.Fatalf("Read = %d, %v", n, err)
		}
		if !bytes.Equal(buf, content[4096:4096+8192]) {
			t.Error("RDMA read data mismatch")
		}
		// Overwrite a region and read it back.
		patch := []byte("PATCHED-REGION-0123456789")
		if _, err := cl.Write(p, fh, 100, patch, 0); err != nil {
			t.Fatalf("Write: %v", err)
		}
		rb := make([]byte, len(patch))
		cl.Read(p, fh, 100, len(patch), rb)
		if !bytes.Equal(rb, patch) {
			t.Errorf("read-back = %q, want %q", rb, patch)
		}
	})
}

func TestReadWriteDataTCP(t *testing.T) {
	for _, mode := range []ipoib.Mode{ipoib.Datagram, ipoib.Connected} {
		env, tb := testbed(sim.Micros(10))
		srv, cl, _ := MountTCP(env, tb.B[0], tb.A[0], mode)
		content := make([]byte, 30000)
		rand.New(rand.NewSource(6)).Read(content)
		srv.AddFile("data", append([]byte(nil), content...))
		run(env, func(p *sim.Proc) {
			fh, size, err := cl.Lookup(p, "data")
			if err != nil || size != 30000 {
				t.Fatalf("mode %v: Lookup = %d, %v", mode, size, err)
			}
			buf := make([]byte, 30000)
			n, err := cl.Read(p, fh, 0, 30000, buf)
			if err != nil || n != 30000 {
				t.Fatalf("mode %v: Read = %d, %v", mode, n, err)
			}
			if !bytes.Equal(buf, content) {
				t.Errorf("mode %v: TCP read mismatch", mode)
			}
			patch := []byte("tcp write path check")
			cl.Write(p, fh, 12345, patch, 0)
			rb := make([]byte, len(patch))
			cl.Read(p, fh, 12345, len(patch), rb)
			if !bytes.Equal(rb, patch) {
				t.Errorf("mode %v: write/read-back mismatch", mode)
			}
		})
		env.Shutdown()
	}
}

func TestCreate(t *testing.T) {
	env, tb := testbed(0)
	defer env.Shutdown()
	srv, cl := MountRDMA(tb.B[0], tb.A[0])
	_ = srv
	run(env, func(p *sim.Proc) {
		fh, err := cl.Create(p, "new", 4096)
		if err != nil || fh == 0 {
			t.Fatalf("Create = %d, %v", fh, err)
		}
		if _, err := cl.Create(p, "new", 4096); err != ErrExists {
			t.Errorf("duplicate Create err = %v", err)
		}
		if _, sz, _ := cl.Lookup(p, "new"); sz != 4096 {
			t.Errorf("size = %d", sz)
		}
	})
}

func TestConcurrentThreadsShareMount(t *testing.T) {
	env, tb := testbed(sim.Micros(100))
	defer env.Shutdown()
	srv, cl := MountRDMA(tb.B[0], tb.A[0])
	srv.AddSyntheticFile("f", 10<<20)
	bw := IOzone(env, cl, "f", IOzoneConfig{FileSize: 10 << 20, RecordSize: 256 << 10, Threads: 4})
	if bw <= 0 {
		t.Fatalf("IOzone bw = %v", bw)
	}
	if srv.Ops() < 40 {
		t.Errorf("server ops = %d, expected ~41 (40 reads + lookup)", srv.Ops())
	}
}

// TestNFSDThreadsAreKept runs a warm IOzone twice over each transport: the
// server's nfsd threads are started by the first run and reused by the
// second, and there are never more of them than calls at once (four client
// threads) or DefaultThreads.
func TestNFSDThreadsAreKept(t *testing.T) {
	for _, rdma := range []bool{true, false} {
		env, tb := testbed(sim.Micros(100))
		var srv *Server
		var cl *Client
		// The transport's own processes: none over RDMA; over TCP the
		// acceptor, the connection's reply writer and the client's writer.
		base := 0
		if rdma {
			srv, cl = MountRDMA(tb.B[0], tb.A[0])
		} else {
			srv, cl, _ = MountTCP(env, tb.B[0], tb.A[0], ipoib.Connected)
			base = 3
		}
		srv.AddSyntheticFile("f", 16<<20)
		cfg := IOzoneConfig{FileSize: 16 << 20, Threads: 4}
		IOzone(env, cl, "f", cfg)
		first := env.LiveProcs()
		IOzone(env, cl, "f", cfg)
		if second := env.LiveProcs(); second != first {
			t.Errorf("rdma %v: %d live processes after the second run, %d after the first", rdma, second, first)
		}
		if threads := first - base; threads < 1 || threads > min(cfg.Threads, DefaultThreads) {
			t.Errorf("rdma %v: %d nfsd threads for %d concurrent calls, want 1..%d", rdma, threads, cfg.Threads, min(cfg.Threads, DefaultThreads))
		}
		env.Shutdown()
	}
}

func TestIOzoneThreadScalingRDMA(t *testing.T) {
	// Paper Fig. 13(a): throughput rises with client threads.
	measure := func(threads int) float64 {
		env, tb := testbed(sim.Micros(100))
		defer env.Shutdown()
		srv, cl := MountRDMA(tb.B[0], tb.A[0])
		srv.AddSyntheticFile("f", 64<<20)
		return IOzone(env, cl, "f", IOzoneConfig{FileSize: 64 << 20, Threads: threads})
	}
	one := measure(1)
	eight := measure(8)
	if eight < one*1.5 {
		t.Errorf("thread scaling: 1 thread %.1f, 8 threads %.1f MB/s", one, eight)
	}
}

func TestRDMABeatsTCPAtModerateDelay(t *testing.T) {
	// Paper Fig. 13(b), 100 us delay: NFS/RDMA > NFS/IPoIB-RC > NFS/IPoIB-UD.
	rdma := func() float64 {
		env, tb := testbed(sim.Micros(100))
		defer env.Shutdown()
		srv, cl := MountRDMA(tb.B[0], tb.A[0])
		srv.AddSyntheticFile("f", 64<<20)
		return IOzone(env, cl, "f", IOzoneConfig{FileSize: 64 << 20, Threads: 8})
	}()
	tcpRC := func() float64 {
		env, tb := testbed(sim.Micros(100))
		defer env.Shutdown()
		srv, cl, _ := MountTCP(env, tb.B[0], tb.A[0], ipoib.Connected)
		srv.AddSyntheticFile("f", 64<<20)
		return IOzone(env, cl, "f", IOzoneConfig{FileSize: 64 << 20, Threads: 8})
	}()
	tcpUD := func() float64 {
		env, tb := testbed(sim.Micros(100))
		defer env.Shutdown()
		srv, cl, _ := MountTCP(env, tb.B[0], tb.A[0], ipoib.Datagram)
		srv.AddSyntheticFile("f", 64<<20)
		return IOzone(env, cl, "f", IOzoneConfig{FileSize: 64 << 20, Threads: 8})
	}()
	if !(rdma > tcpRC && tcpRC > tcpUD) {
		t.Errorf("at 100us want RDMA > IPoIB-RC > IPoIB-UD, got %.1f / %.1f / %.1f", rdma, tcpRC, tcpUD)
	}
}

func TestIPoIBRCBestAtHighDelay(t *testing.T) {
	// Paper Fig. 13(c), 1000 us delay: NFS/IPoIB-RC beats NFS/RDMA (the
	// 4K-fragment RDMA path is window-crushed).
	rdma := func() float64 {
		env, tb := testbed(sim.Micros(1000))
		defer env.Shutdown()
		srv, cl := MountRDMA(tb.B[0], tb.A[0])
		srv.AddSyntheticFile("f", 32<<20)
		return IOzone(env, cl, "f", IOzoneConfig{FileSize: 32 << 20, Threads: 8})
	}()
	tcpRC := func() float64 {
		env, tb := testbed(sim.Micros(1000))
		defer env.Shutdown()
		srv, cl, _ := MountTCP(env, tb.B[0], tb.A[0], ipoib.Connected)
		srv.AddSyntheticFile("f", 32<<20)
		return IOzone(env, cl, "f", IOzoneConfig{FileSize: 32 << 20, Threads: 8})
	}()
	if tcpRC <= rdma {
		t.Errorf("at 1ms want IPoIB-RC (%.1f) > RDMA (%.1f)", tcpRC, rdma)
	}
}

func TestWANDegradesRDMAPeak(t *testing.T) {
	// Paper Fig. 13(a): introducing the WAN routers (SDR hop) cuts the
	// LAN (DDR) peak substantially.
	lan := func() float64 {
		env := sim.NewEnv()
		tb := cluster.New(env, cluster.Config{NodesA: 2, NodesB: 1})
		defer env.Shutdown()
		// Same-cluster mount: DDR path, no Longbows.
		srv, cl := MountRDMA(tb.A[1], tb.A[0])
		srv.AddSyntheticFile("f", 64<<20)
		return IOzone(env, cl, "f", IOzoneConfig{FileSize: 64 << 20, Threads: 8})
	}()
	wan := func() float64 {
		env, tb := testbed(0)
		defer env.Shutdown()
		srv, cl := MountRDMA(tb.B[0], tb.A[0])
		srv.AddSyntheticFile("f", 64<<20)
		return IOzone(env, cl, "f", IOzoneConfig{FileSize: 64 << 20, Threads: 8})
	}()
	if wan >= lan*0.85 {
		t.Errorf("WAN peak %.1f not clearly below LAN peak %.1f", wan, lan)
	}
	if lan < 1000 || lan > 1400 {
		t.Errorf("LAN peak = %.1f MB/s, want ~1200 (server-ceiling calibration)", lan)
	}
}

// Property: random read offsets/sizes return exactly the file's bytes, over
// the RDMA transport.
func TestPropRandomReadsRDMA(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		env, tb := testbed(sim.Micros(10))
		defer env.Shutdown()
		srv, cl := MountRDMA(tb.B[0], tb.A[0])
		content := make([]byte, 1+rng.Intn(100000))
		rng.Read(content)
		srv.AddFile("f", append([]byte(nil), content...))
		ok := true
		run(env, func(p *sim.Proc) {
			fh, _, _ := cl.Lookup(p, "f")
			for i := 0; i < 5; i++ {
				off := rng.Intn(len(content))
				count := 1 + rng.Intn(len(content)-off)
				buf := make([]byte, count)
				n, err := cl.Read(p, fh, int64(off), count, buf)
				if err != nil || n != count || !bytes.Equal(buf[:n], content[off:off+count]) {
					ok = false
				}
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// TestWriteSameOnEveryTransport: what a WRITE leaves in the file, and what a
// READ of it then returns, depends on the write and the file — never on the
// transport that carried them. A synthetic write used to reach the handler
// as a length over RDMA and as materialized zeroes over TCP, so on a file
// with contents one extended Size and the other zero-filled Data.
func TestWriteSameOnEveryTransport(t *testing.T) {
	const fileLen, off, n = 1000, 600, 900 // the write runs past the end
	seed := make([]byte, fileLen)
	rand.New(rand.NewSource(21)).Read(seed)
	patch := bytes.Repeat([]byte{0xAB}, n)
	zeroes := make([]byte, n)
	for _, tc := range []struct {
		name     string
		realFile bool
		data     []byte // nil: a synthetic write of n bytes
		wantData []byte // the file's contents afterwards; nil on a synthetic file
		wantRead []byte // what reading the written range back returns
	}{
		{"real write, real file", true, patch, append(append([]byte(nil), seed[:off]...), patch...), patch},
		{"synthetic write, real file", true, nil, append(append([]byte(nil), seed[:off]...), zeroes...), zeroes},
		{"real write, synthetic file", false, patch, nil, zeroes},
		{"synthetic write, synthetic file", false, nil, nil, zeroes},
	} {
		for _, transport := range []string{"tcp-rc", "tcp-ud", "rdma"} {
			t.Run(tc.name+"/"+transport, func(t *testing.T) {
				env, tb := testbed(sim.Micros(10))
				defer env.Shutdown()
				var srv *Server
				var cl *Client
				switch transport {
				case "rdma":
					srv, cl = MountRDMA(tb.B[0], tb.A[0])
				case "tcp-rc":
					srv, cl, _ = MountTCP(env, tb.B[0], tb.A[0], ipoib.Connected)
				case "tcp-ud":
					srv, cl, _ = MountTCP(env, tb.B[0], tb.A[0], ipoib.Datagram)
				}
				var f *File
				if tc.realFile {
					f = srv.AddFile("f", append([]byte(nil), seed...))
				} else {
					f = srv.AddSyntheticFile("f", fileLen)
				}
				got := bytes.Repeat([]byte{0xEE}, n) // a read must overwrite all of it
				run(env, func(p *sim.Proc) {
					fh, _, _ := cl.Lookup(p, "f")
					if w, err := cl.Write(p, fh, off, tc.data, n); err != nil || w != n {
						t.Errorf("Write = %d, %v, want %d", w, err, n)
					}
					if r, err := cl.Read(p, fh, off, n, got); err != nil || r != n {
						t.Errorf("Read = %d, %v, want %d", r, err, n)
					}
				})
				if f.Size != off+n {
					t.Errorf("Size = %d after the write, want %d", f.Size, off+n)
				}
				if !bytes.Equal(f.Data, tc.wantData) || (f.Data == nil) != (tc.wantData == nil) {
					t.Errorf("file contents differ from what this write leaves on the other transports (len %d, want %d)", len(f.Data), len(tc.wantData))
				}
				if !bytes.Equal(got, tc.wantRead) {
					t.Errorf("reading the written range back returned other bytes than on the other transports")
				}
			})
		}
	}
}
