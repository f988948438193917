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
// exact snippet of file it replaces, and the package and -run pattern whose
// tests must fail once it is in.
type mutant struct {
	name     string
	file     string
	old, new string
	pkg      string
	run      string
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
			cmd := exec.Command("go", "test", "-count=1", "-run", m.run, m.pkg)
			cmd.Dir = dir
			out, err := cmd.CombinedOutput()
			switch {
			case strings.Contains(string(out), "[build failed]") || strings.Contains(string(out), "[setup failed]"):
				t.Fatalf("the mutant does not build:\n%s", out)
			case err == nil:
				t.Fatalf("the mutant survived go test -run '%s' %s", m.run, m.pkg)
			case !strings.Contains(string(out), "--- FAIL"):
				t.Fatalf("go test failed without a failing test:\n%s", out)
			}
		})
	}
}
