//go:build mutants

package repro

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// mutant is one deliberate defect and the tests that must catch it: the
// exact snippet of file it replaces, and the package, -run pattern and
// build tags whose tests must fail once it is in.
type mutant struct {
	name     string
	file     string
	old, new string
	pkg      string
	run      string
	tags     string
}

var mutants = []mutant{
	{
		name: "server second hop after each service end",
		file: "internal/sim/server.go",
		old:  "s.env.scheduleArg(s.env.now+c, s.finish, nil)",
		new:  "s.env.scheduleArg(s.env.now+c, func(any) { s.env.scheduleArg(s.env.now, s.finish, nil) }, nil)",
		pkg:  "./internal/tcpsim",
		run:  "TestLossFreeStreamEventCountPinned",
	},
	{
		name: "server serves the newest item first",
		file: "internal/sim/server.go",
		old:  "s.start(s.items.Pop())",
		new:  "last := *s.items.At(s.items.Len() - 1)\n\ts.items.n--\n\ts.start(last)",
		pkg:  "./internal/sim",
		run:  "TestServerMatchesProcessLoopInstants|TestServerKeepsFIFORecurrence",
	},
	{
		name: "server ends service when it starts",
		file: "internal/sim/server.go",
		old:  "s.env.scheduleArg(s.env.now+c, s.finish, nil)",
		new:  "s.env.scheduleArg(s.env.now, s.finish, nil)",
		pkg:  "./internal/sim",
		run:  "TestServerMatchesProcessLoopInstants|TestServerKeepsFIFORecurrence",
	},
	{
		name: "waiting read completes inside the delivery",
		file: "internal/tcpsim/conn.go",
		old:  "c.stack.env.AtArg(0, runRead, c)",
		new:  "runRead(c)",
		pkg:  "./internal/tcpsim",
		run:  "TestReadFuncWaitingCompletesInOneHop",
	},
	{
		name: "waiting read completes a hop late",
		file: "internal/tcpsim/conn.go",
		old:  "c.stack.env.AtArg(0, runRead, c)",
		new:  "c.stack.env.AtArg(0, func(v any) { c.stack.env.AtArg(0, runRead, v) }, c)",
		pkg:  "./internal/tcpsim",
		run:  "TestReadFuncPartialDeliveriesScheduleNothing",
	},
	{
		name: "trace timestamps written from integer digits past 2^53",
		file: "internal/telemetry/jsonw.go",
		old:  "const microsExact = 1 << 42",
		new:  "const microsExact = 1 << 62",
		pkg:  "./internal/telemetry",
		run:  "FuzzNumberFormat|TestPerfettoMatchesEncodingJSON",
	},
	{
		name: "negative zero written as 0",
		file: "internal/telemetry/jsonw.go",
		old:  "(i != 0 || !math.Signbit(v))",
		new:  "true",
		pkg:  "./internal/telemetry",
		run:  "FuzzNumberFormat|TestPerfettoMatchesEncodingJSON|TestTimelineJSONMatchesEncodingJSON",
	},
	{
		name: "sampler extends a tick run whatever its time",
		file: "internal/telemetry/sampler.go",
		old:  "n > 0 && s.ticks[n-1].at+sim.Time(s.ticks[n-1].n)*s.every == at",
		new:  "n > 0",
		pkg:  "./internal/telemetry",
		run:  "TestSamplerTickMatchesSevenPassTick",
	},
	{
		name: "sampler refresh skips a metric registered after the first tick",
		file: "internal/telemetry/sampler.go",
		old:  "if len(s.counters) == len(s.reg.counters) && len(s.hires) == len(s.reg.hires) {",
		new:  "if s.nTicks > 0 {",
		pkg:  "./internal/telemetry",
		run:  "TestSamplerTickMatchesSevenPassTick",
	},
	{
		name: "shard window not clamped to the next sample time",
		file: "internal/sim/shard.go",
		old:  "root.sampleFn != nil && root.sampleNext < windowHorizon",
		new:  "false && root.sampleNext < windowHorizon",
		pkg:  "./internal/sim",
		run:  "TestSamplerShardedMatchesClassic|TestSamplerHorizonSplit|TestSamplerStopSkipsTail",
	},
	{
		name: "samples fired after a Stop",
		file: "internal/sim/shard.go",
		old:  "if !w.stopped.Load() {",
		new:  "if true {",
		pkg:  "./internal/sim",
		run:  "TestSamplerShardedMatchesClassic|TestSamplerHorizonSplit|TestSamplerStopSkipsTail",
	},
	{
		name: "loss lever fires at p = 0",
		file: "internal/fault/fault.go",
		old:  "(in.loss > 0 && chance(in.seed, in.lossSalt, dir, flow, seq) < in.loss)",
		new:  "chance(in.seed, in.lossSalt, dir, flow, seq) >= in.loss",
		pkg:  "./internal/core",
		run:  "TestPlansThatCannotFire",
	},
	{
		name: "waiting read wakes on every delivery",
		file: "internal/tcpsim/conn.go",
		old:  "if c.readFn != nil && !c.readHop && (c.recvBytes >= c.readN || c.err != nil) {\n\t\tc.readHop = true\n\t\tc.stack.env.AtArg(0, runRead, c)",
		new:  "if c.readFn != nil && !c.readHop {\n\t\tc.readHop = true\n\t\tc.stack.env.AtArg(0, func(v any) {\n\t\t\tif c.readHop = false; c.recvBytes >= c.readN || c.err != nil {\n\t\t\t\trunRead(v)\n\t\t\t}\n\t\t}, c)",
		pkg:  "./internal/tcpsim",
		run:  "TestReadFuncPartialDeliveriesScheduleNothing",
	},
	{
		name: "eager header returned to the receiver's list",
		file: "internal/mpi/proto.go",
		old:  "sender.msgs.Return(r.env(), sender.env(), m)",
		new:  "r.msgs.Return(r.env(), r.env(), m)\n\t_ = sender",
		pkg:  "./internal/mpi",
		run:  "TestRequestsReleasedAtHome/sharded",
	},
	{
		name: "eager header zeroed before its payload is copied",
		file: "internal/mpi/proto.go",
		old:  "func (r *Rank) deliverEager(req *Request, m *mpiMsg) {\n",
		new:  "func (r *Rank) deliverEager(req *Request, m *mpiMsg) {\n\t*m = mpiMsg{}\n",
		pkg:  "./internal/mpi",
		run:  "TestEagerTruncationKeepsPrefix",
	},
	{
		name: "rendezvous truncation checked on the backed wire path only",
		file: "internal/mpi/proto.go",
		old:  "if req.size < m.size {",
		new:  "if peer := r.world.ranks[m.src]; req.data != nil && peer.node != r.node && len(req.data) < m.size {",
		pkg:  "./internal/mpi",
		run:  "TestRendezvousTruncationPanics",
	},
	{
		name: "fresh segment without its inline span",
		file: "internal/tcpsim/tcpsim.go",
		old:  "spans = seg.one[:0]",
		new:  "_ = seg.one",
		pkg:  "./internal/tcpsim",
		run:  "TestFreshSegmentIsOneObject",
	},
	{
		name: "quantile interpolation without its rounded product",
		file: "internal/telemetry/hires.go",
		old:  "float64(lo) + float64(frac*float64(hi-lo))",
		new:  "float64(lo) + frac*float64(hi-lo)",
		pkg:  "./cmd/ibwan-exp",
		run:  "TestCI/crossarch",
		tags: "ci",
	},
	{
		name: "two-site worlds never shard",
		file: "internal/topo/topo.go",
		old:  "len(t.Sites) < 2",
		new:  "len(t.Sites) < 3",
		pkg:  "./internal/core",
		run:  "TestDeterminismMatrix/default/par2-shards2/fig5",
	},
	{
		name: "a point's value depends on the size of the worker pool",
		file: "internal/core/runner.go",
		old:  "pt.commit(y)",
		new:  "pt.commit(y + float64(workers-1))",
		pkg:  "./internal/core",
		run:  "TestShardedMatchesSequential/^star3$/multisite-/par8",
	},
	{
		name: "an observed WAN port books each packet's serialization twice",
		file: "internal/ib/fabric.go",
		old:  "obs.wanBusy.Add(int64(ser))",
		new:  "obs.wanBusy.Add(int64(ser))\n\t\tp.busyUntil += ser",
		pkg:  "./internal/core",
		run:  "TestDeterminismMatrix/default/observed/fig5",
	},
	{
		name: "a stopped world raises a clock past a deposit waiting for it",
		file: "internal/sim/shard.go",
		old:  "s.now = max(s.now, min(maxNow, w.earliestMail(di)))",
		new:  "s.now = maxNow\n\t\t\t_ = di",
		pkg:  "./internal/sim",
		run:  "TestStopDeliversPendingMail",
	},
	{
		name: "per-link plan matches its link named one way only",
		file: "internal/fault/plan.go",
		old:  ` || p.Link == b+"-"+a`,
		new:  "",
		pkg:  "./internal/core",
		run:  "TestPerLinkPlanMatchesRunWide/B-A",
	},
	{
		name: "options validated without their topology preset",
		file: "internal/core/experiments.go",
		old:  "if _, err := topo.Preset(o.Topo, 0, 0); err != nil {",
		new:  "if _, err := topo.Preset(o.Topo, 0, 0); false && err != nil {",
		pkg:  "./internal/core",
		run:  "TestOptionsValidate",
	},
	{
		name: "ipoib probe on a fixed 100 ms window",
		file: "internal/core/probe.go",
		old:  "return tcpPoint(m, ipMode, mtu, window, streams, b.d, b.opt)",
		new:  "return tcpPoint(m, ipMode, mtu, window, streams, b.d, Options{TCPMillis: 100})",
		pkg:  "./internal/core",
		run:  "TestProbeMatchesRegistryCell",
	},
	{
		name: "lossless port admits past a waiting packet",
		file: "internal/ib/fabric.go",
		old:  "cfg.Lossless && (full || q.waitq.Len() > 0)",
		new:  "cfg.Lossless && full",
		pkg:  "./internal/ib",
		run:  "TestLosslessPortFIFO",
	},
	{
		name: "retry timer left at a completed transfer's key",
		file: "internal/ib/rc.go",
		old:  "\tif t == q.aim {\n\t\tq.reaim()\n\t}\n",
		new:  "",
		pkg:  "./internal/ib",
		run:  "TestLossyRCMatchesPerLaunchTimeouts",
	},
	{
		name: "timer armed at a fresh sequence number instead of the reserved key",
		file: "internal/sim/timer.go",
		old:  "\tt.key = k\n",
		new:  "\tk = t.env.Reserve(k.at - t.env.now)\n\tt.key = k\n",
		pkg:  "./internal/sim",
		run:  "TestTimerAtReservedKeysMatchesPerLaunchEvents",
	},
	{
		name: "cleared slots left at the window's head",
		file: "internal/ib/rc.go",
		old:  "for q.launched > 0 && *q.window.Front() == nil {",
		new:  "for false && q.launched > 0 && *q.window.Front() == nil {",
		pkg:  "./internal/ib",
		run:  "TestRCWindowLimitsInflight",
	},
	{
		name: "error flush takes the queue before the window",
		file: "internal/ib/rc.go",
		old:  "\t// then the queued ones.\n",
		new:  "\t// then the queued ones.\n\tfor i := q.launched; i < q.window.Len(); i++ {\n\t\tq.flushTransfer(*q.window.At(i))\n\t\t*q.window.At(i) = nil\n\t}\n",
		pkg:  "./internal/ib",
		run:  "TestLossyRCMatchesPerLaunchTimeouts",
	},
	{
		name: "datagram receive completed on the sending QP",
		file: "internal/ib/ud.go",
		old:  "\tt.resp = q\n",
		new:  "\tt.resp = t.origin\n",
		pkg:  "./internal/ib",
		run:  "TestStageHandlersFindTheirQP",
	},
	{
		name: "a delivery closure per port",
		file: "internal/ib/fabric.go",
		old:  "deliverArg: dev.ingress(),",
		new:  "deliverArg: func(v any) { dev.ingress()(v) },",
		pkg:  "./internal/ib",
		run:  "TestConstructionAllocs",
	},
	{
		name: "pooled packet left unzeroed",
		file: "internal/ib/packet.go",
		old:  "\t*pkt = packet{train: pkt.train}\n",
		new:  "",
		pkg:  "./internal/ib",
		run:  "TestPooledPacketsZeroedAtHome",
	},
	{
		name: "transfer list without its reset",
		file: "internal/ib/fabric.go",
		old:  "sim.FreeOf(env, (*transfer).reset)",
		new:  "sim.FreeOf(env, func(*transfer) {})",
		pkg:  "./internal/ib",
		run:  "TestTransferReleasedOnce",
	},
	{
		name: "arena relists only the records already free",
		file: "internal/sim/free.go",
		old:  "\tf.free = append(f.free[:0], f.made...)\n",
		new:  "",
		pkg:  "./internal/sim",
		run:  "TestFreeList",
	},
	{
		name: "arena relists only the records already free, seen by a stopped TCP world",
		file: "internal/sim/free.go",
		old:  "\tf.free = append(f.free[:0], f.made...)\n",
		new:  "",
		pkg:  "./internal/core",
		run:  "TestArenaReclaimsStrandedRecords",
	},
	{
		name: "fresh record left out of the census",
		file: "internal/sim/free.go",
		old:  "\t\tf.made = append(f.made, v)\n",
		new:  "",
		pkg:  "./internal/sim",
		run:  "TestFreeList",
	},
	{
		name: "stranded record relisted without its reset",
		file: "internal/sim/free.go",
		old:  "\tfor _, v := range f.made {\n\t\tf.reset(v)\n\t}\n",
		new:  "",
		pkg:  "./internal/sim",
		run:  "TestArenaKeepsNothingOfTheWorld",
	},
	{
		name: "pipe node relisted without its reset",
		file: "internal/sim/arena.go",
		old:  "n := e.evFree.reclaim() + e.nodes.reclaim()",
		new:  "e.nodes.free = append(e.nodes.free[:0], e.nodes.made...)\n\tn := e.evFree.reclaim() + len(e.nodes.made)",
		pkg:  "./internal/sim",
		run:  "TestArenaWorldMatchesFresh",
	},
	{
		name: "pipe node list left out of detach's reclaim",
		file: "internal/sim/arena.go",
		old:  "n := e.evFree.reclaim() + e.nodes.reclaim()",
		new:  "n := e.evFree.reclaim()",
		pkg:  "./internal/sim",
		run:  "TestArenaKeepsNothingOfTheWorld",
	},
	{
		name: "record sent home without its reset",
		file: "internal/sim/free.go",
		old:  "\tf.reset(v)\n\tfrom.ReturnTo(",
		new:  "\tfrom.ReturnTo(",
		pkg:  "./internal/ib",
		run:  "TestPooledPacketsZeroedAtHome",
	},
	{
		name: "record sent home without its reset, seen by MPI",
		file: "internal/sim/free.go",
		old:  "\tf.reset(v)\n\tfrom.ReturnTo(",
		new:  "\tfrom.ReturnTo(",
		pkg:  "./internal/mpi",
		run:  "TestRequestsReleasedAtHome",
	},
	{
		name: "nfsd pool starts a thread past its size",
		file: "internal/rpc/pool.go",
		old:  "if tp.started < tp.max {",
		new:  "if true {",
		pkg:  "./internal/rpc",
		run:  "TestThreadPoolBoundsConcurrency",
	},
	{
		name: "nfsd backlog served newest first",
		file: "internal/rpc/pool.go",
		old:  "t.call = tp.backlog.Pop()",
		new:  "i := tp.backlog.Len() - 1\n\t\t\tt.call = *tp.backlog.At(i)\n\t\t\t*tp.backlog.At(i) = *tp.backlog.Front()\n\t\t\ttp.backlog.Pop()",
		pkg:  "./internal/rpc",
		run:  "TestThreadPoolBoundsConcurrency",
	},
	{
		name: "call record not returned home",
		file: "internal/rpc/rpc.go",
		old:  "\tc.release(c.home)\n",
		new:  "",
		pkg:  ".",
		run:  "TestKernelNFSReadCallAllocs",
	},
	{
		name: "failed call's record recycled",
		file: "internal/rpc/rpc.go",
		old:  "\tif c.err != nil {\n\t\treturn\n\t}\n\tc.release(c.home)",
		new:  "\tc.release(c.home)",
		pkg:  "./internal/rpc",
		run:  "TestFailedCallRecordNotRecycled",
	},
	{
		name: "frame reader keeps the previous frame's bulk",
		file: "internal/rpc/tcp.go",
		old:  "\t\tr.f.bulk = b\n",
		new:  "\t\tif b != nil {\n\t\t\tr.f.bulk = b\n\t\t}\n",
		pkg:  "./internal/rpc",
		run:  "TestReadFramesReassembles",
	},
	{
		name: "switch reset keeps its port slots",
		file: "internal/ib/fabric.go",
		old:  "*s = Switch{plist: emptied(s.plist), ",
		new:  "*s = Switch{plist: s.plist, ",
		pkg:  "./internal/core",
		run:  "TestArenaIsolation",
	},
	{
		name: "CQ reset keeps its drain",
		file: "internal/ib/qp.go",
		old:  "waiters: c.waiters}",
		new:  "waiters: c.waiters, drain: c.drain}",
		pkg:  "./internal/core",
		run:  "TestArenaRebuildsTheFabricFromRecords",
	},
	{
		name: "QP reset keeps its remote",
		file: "internal/ib/qp.go",
		old:  "reorder: q.reorder}",
		new:  "reorder: q.reorder, remote: q.remote}",
		pkg:  "./internal/ib",
		run:  "TestOwnershipFabricRecordsComeBackBlank",
	},
	{
		name: "HCA reset keeps its wire track",
		file: "internal/ib/hca.go",
		old:  "*h = HCA{qps: h.qps}",
		new:  "*h = HCA{qps: h.qps, wireTrackCache: h.wireTrackCache}",
		pkg:  "./internal/core",
		run:  "TestArenaIsolation",
	},
}

// copyModule copies the module's sources (go.mod, the Go files at its root
// and every directory not starting with a dot) into a fresh directory.
func copyModule(t *testing.T) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		name := e.Name()
		switch {
		case strings.HasPrefix(name, "."):
		case e.IsDir():
			err = os.CopyFS(filepath.Join(dst, name), os.DirFS(name))
		case name == "go.mod" || strings.HasSuffix(name, ".go"):
			var b []byte
			if b, err = os.ReadFile(name); err == nil {
				err = os.WriteFile(filepath.Join(dst, name), b, 0o644)
			}
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestMutants applies each mutant to a copy of the module and requires its
// tests to fail. A snippet that no longer appears exactly once fails the
// row too: a change to the code under a mutant must carry the mutant along.
func TestMutants(t *testing.T) {
	for _, m := range mutants {
		t.Run(m.name, func(t *testing.T) {
			dir := copyModule(t)
			path := filepath.Join(dir, m.file)
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if n := strings.Count(string(src), m.old); n != 1 {
				t.Fatalf("%s holds the snippet %d times, want once: %q", m.file, n, m.old)
			}
			mutated := strings.Replace(string(src), m.old, m.new, 1)
			if err := os.WriteFile(path, []byte(mutated), 0o644); err != nil {
				t.Fatal(err)
			}
			cmd := exec.Command("go", "test", "-count=1", "-tags", m.tags, "-run", m.run, m.pkg)
			cmd.Dir = dir
			out, err := cmd.CombinedOutput()
			switch {
			case strings.Contains(string(out), "[build failed]") || strings.Contains(string(out), "[setup failed]"):
				t.Fatalf("the mutant does not build:\n%s", out)
			case err == nil:
				t.Fatalf("the mutant survived go test -tags '%s' -run '%s' %s", m.tags, m.run, m.pkg)
			case !strings.Contains(string(out), "--- FAIL"):
				t.Fatalf("go test failed without a failing test:\n%s", out)
			}
		})
	}
}
