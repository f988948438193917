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
		old:  "r.env().ReturnTo(sender.env(), sender.reqs.take, m)",
		new:  "r.env().ReturnTo(r.env(), r.reqs.take, m)\n\t_ = sender",
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
		old:  "seg.spans = seg.one[:0]",
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
		run:  "TestEveryFamilyShards/fig5",
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
