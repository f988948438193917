package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// bin is the ibwan-exp binary under test, built once by TestMain.
var bin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "ibwan-exp-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	bin = filepath.Join(dir, "ibwan-exp")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "go build: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// runBin executes the binary and returns its streams and exit code. Leading
// NAME=value arguments are set in its environment, as a shell would.
func runBin(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	var env []string
	for len(args) > 0 && !strings.HasPrefix(args[0], "-") && strings.Contains(args[0], "=") {
		env, args = append(env, args[0]), args[1:]
	}
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), env...)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("ibwan-exp %v: %v", args, err)
	}
	return out.String(), errb.String(), code
}

// TestProbeMisuseExitsTwo drives the command lines the side binaries used
// to answer with a stack trace, a NaN or a negative bandwidth: each must be
// refused before any simulation, with exit 2, a first stderr line that names
// the problem, nothing on stdout and no Go traceback.
func TestProbeMisuseExitsTwo(t *testing.T) {
	for _, c := range []struct{ args, want string }{
		{"probe iscsi", `unknown layer "iscsi"`},
		{"probe", `unknown layer ""`},
		{"probe perftest -test bw -size -1", "-size must be at least 1"},
		{"probe perftest -test bw -count 0", "-count must be at least 1"},
		{"probe nfs -threads 0", "-threads must be at least 1"},
		{"probe perftest -delay -5", "-delay must be between"},
		{"probe mpi -size -5", "-size must be at least 1"},
		{"probe perftest -transport xx", "-transport must be one of rc, ud"},
		{"-class Z probe nas", "-class must be one of B, A, W"},
		{"probe nas -procs 7", "-procs must be even"},
		{"probe mpi -no-such-flag", "flag provided but not defined"},
		{"-quick probe mpi", "-quick shapes registry sweeps"},
		{"-topo ring4 probe nfs", "-topo shapes registry sweeps"},
	} {
		stdout, stderr, code := runBin(t, strings.Fields(c.args)...)
		first, _, _ := strings.Cut(stderr, "\n")
		if code != 2 {
			t.Errorf("ibwan-exp %s: exit %d, want 2", c.args, code)
		}
		if !strings.HasPrefix(first, "ibwan-exp: ") || !strings.Contains(first, c.want) {
			t.Errorf("ibwan-exp %s: first stderr line %q does not mention %q", c.args, first, c.want)
		}
		if strings.Contains(stderr, "goroutine") {
			t.Errorf("ibwan-exp %s: stderr holds a traceback:\n%s", c.args, stderr)
		}
		if stdout != "" {
			t.Errorf("ibwan-exp %s: printed to stdout:\n%s", c.args, stdout)
		}
	}
}

// TestSweepFlagMisuseExitsTwo: a worker count below one and an unknown NAS
// class are refused up front like -shards 0 and -topo bogus — exit 2, one
// line naming the flag, nothing on stdout — rather than written into the
// report as "par": -3, slipped under the -par x -shards guard as a negative
// product, or run as a fig12 of ERR cells. So are two outputs sharing one
// destination and a profile sent to stdout, which used to exit 0 with
// output no reader parses; nothing is created at the shared path. So are a
// negative window, file size, sampling interval or span depth, a timeline
// with nothing sampled, a span depth with no trace, two table formats at
// once, and more workers than the host can run: exit 2 with the message, not
// any non-zero exit, which a panic would pass too.
func TestSweepFlagMisuseExitsTwo(t *testing.T) {
	dir := t.TempDir()
	shared := filepath.Join(dir, "out.json")
	for _, c := range []struct{ args, want string }{
		{"-quick -par 0 table1", "-par and -shards must be at least 1 (got 0 and 1)"},
		{"-quick -par -3 -json - table1", "-par and -shards must be at least 1 (got -3 and 1)"},
		{"-quick -topo mesh4 -par -64 -shards 64 multisite-bcast", "-par and -shards must be at least 1 (got -64 and 64)"},
		{"-quick -class Z fig12", `-class must be one of B, A, W (got "Z")`},
		{"-quick -json - -trace-out - fig3", "-json and -trace-out both write to -"},
		{"-quick -sample-every 1ms -metrics-out - -timeline-out - fig3", "-metrics-out and -timeline-out both write to -"},
		{"-quick -trace-out " + shared + " -metrics-out " + shared + " fig3", "-trace-out and -metrics-out both write to " + shared},
		{"-quick -json " + shared + " -memprofile " + dir + "/./out.json fig3", "-memprofile and -json both write to " + shared},
		{"-quick -cpuprofile - fig3", "-cpuprofile writes a binary profile and cannot write to stdout"},
		{"-quick -memprofile - fig3", "-memprofile writes a binary profile and cannot write to stdout"},
		{"-quick -tcpms -5 fig6", "-tcpms must not be negative (got -5)"},
		{"-quick -filemb -1 fig13", "-filemb must not be negative (got -1)"},
		{"-timeline-out " + dir + "/tl.json fig3", "-timeline-out requires -sample-every"},
		{"-quick -topo mesh4 -par 64 -shards 64 multisite-bcast", "-par 64 x -shards 64 needs 4096 OS workers"},
		{"-shards 0 fig3", "-par and -shards must be at least 1 (got "},
		{"-topo bogus fig3", `-topo: topo: unknown preset "bogus"`},
		{"-sample-every -1ms fig3", "-sample-every must be a positive duration (got -1ms)"},
		{"-span-depth -1 fig3", "-span-depth must be non-negative (got -1)"},
		{"-span-depth 2 table1", "-span-depth requires -trace-out"},
		{"-csv -chart table1", "-csv and -chart are two table formats"},
	} {
		stdout, stderr, code := runBin(t, strings.Fields(c.args)...)
		if code != 2 || stdout != "" || !strings.HasPrefix(stderr, "ibwan-exp: "+c.want) {
			t.Errorf("ibwan-exp %s: exit %d, stderr %q, stdout %q; want exit 2, %q and no output", c.args, code, stderr, stdout, c.want)
		}
	}
	if _, err := os.Stat(shared); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("a refused run left %s behind (stat: %v)", shared, err)
	}
}

// TestFaultNaNExitsTwo checks that a NaN probability is refused like any
// other out-of-range one — exit 2 before any simulation — rather than run
// as a plan that never drops.
func TestFaultNaNExitsTwo(t *testing.T) {
	for _, spec := range []string{"wan-loss=NaN", "tcp-loss=nan", "wan-corrupt=NaN"} {
		stdout, stderr, code := runBin(t, "-quick", "-fault", spec, "fig3")
		if code != 2 || stdout != "" || !strings.Contains(stderr, "outside [0, 1]") {
			t.Errorf("-fault %s: exit %d, stderr %q, stdout %q; want exit 2, a range error and no output", spec, code, stderr, stdout)
		}
	}
}

// TestProbeRunsOnTheHarness checks that a probe is an ordinary experiment to
// everything before the word "probe": it prints its figure's cell, -list
// shows it, a dead WAN is an ERR row and exit 0, and -trace-out holds its
// packet log as valid JSON.
func TestProbeRunsOnTheHarness(t *testing.T) {
	stdout, stderr, code := runBin(t, strings.Fields("probe perftest -test bw -size 4096 -delay 1000 -count 2048")...)
	if code != 0 || !strings.Contains(stdout, "16.215") || strings.Contains(stdout, "ERR") {
		t.Errorf("fig5's 4K/1000us cell: exit %d, stdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}

	stdout, _, code = runBin(t, "-list")
	for _, layer := range []string{"perftest", "ipoib", "mpi", "nas", "nfs"} {
		if !strings.Contains(stdout, "probe "+layer) {
			t.Errorf("-list (exit %d) does not show probe %s", code, layer)
		}
	}

	stdout, stderr, code = runBin(t, strings.Fields("-fault wan-down probe mpi -bench bw")...)
	if code != 0 || !strings.Contains(stdout, "ERR") || !strings.Contains(stdout, "!! probe mpi -bench bw: bw: ") {
		t.Errorf("dead WAN: exit %d, want 0 and an ERR row; stdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	if strings.Contains(stderr, "goroutine") {
		t.Errorf("dead WAN: stderr holds a traceback:\n%s", stderr)
	}

	trace := filepath.Join(t.TempDir(), "p.trace.json")
	_, stderr, code = runBin(t, "-trace-out", trace, "probe", "perftest", "-test", "bw", "-size", "65536", "-delay", "1000", "-count", "8")
	if code != 0 {
		t.Fatalf("-trace-out probe: exit %d\n%s", code, stderr)
	}
	data, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(data) {
		t.Error("the probe's trace is not valid JSON")
	}
	for _, want := range []string{`"tx data"`, `"rx ack"`, `"probe-perftest probe perftest -test bw -size 65536 -delay 1000 -count 8: bw"`} {
		if !bytes.Contains(data, []byte(want)) {
			t.Errorf("trace lacks %s", want)
		}
	}
}
