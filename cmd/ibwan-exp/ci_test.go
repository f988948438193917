//go:build ci

package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestCI is every check CI makes through the ibwan-exp binary, the examples
// and cross-compiled builds, one subtest per row: go test -tags ci -count=1
// ./cmd/ibwan-exp runs them all, -run 'TestCI/<group>' one group, and the
// go toolchain is all it needs. A binary row runs its command line
// (leading NAME=value words are environment, {dir} is the run's own
// temporary directory), requires exit 0, then applies its checks. Refusals
// are not rows: they exit 2 with a message, and TestSweepFlagMisuseExitsTwo
// and TestProbeMisuseExitsTwo check both.
func TestCI(t *testing.T) {
	var groups []string
	byGroup := map[string][]ciRow{}
	for _, r := range ciRows {
		if byGroup[r.group] == nil {
			groups = append(groups, r.group)
		}
		byGroup[r.group] = append(byGroup[r.group], r)
	}
	for _, g := range groups {
		t.Run(g, func(t *testing.T) {
			t.Parallel()
			for _, r := range byGroup[g] {
				t.Run(r.name, func(t *testing.T) {
					t.Parallel()
					if r.fn != nil {
						r.fn(t)
						return
					}
					run := runCI(t, r.cmd)
					for _, c := range r.want {
						c(t, run)
					}
				})
			}
		})
	}
}

// ciRow is one check: a binary command line and what its run must show,
// or a function for the checks that drive the go tool instead.
type ciRow struct {
	group, name string
	cmd         string
	want        []check
	fn          func(t *testing.T)
}

var ciRows = []ciRow{
	tool("examples", "quickstart", goRun("./examples/quickstart")),
	tool("examples", "multisite-wan", goRun("./examples/multisite-wan")),

	// experiments_output.txt is the paper's twelve figures at full
	// fidelity; the committed file must be what the binary prints.
	row("reference", "paper", "table1 fig3 fig4 fig5 fig6 fig7 fig8 fig9 fig10 fig11 fig12 fig13",
		equalsFile("../../experiments_output.txt")),

	// Both exports are valid JSON, a second run streams the same trace
	// bytes, and each fact is one metric of the one histogram kind: every
	// histogram name appears exactly once, and none as a "histogram".
	row("telemetry", "fig8", "-quick -span-depth 4 -trace-out {dir}/trace.json -metrics-out {dir}/metrics.json fig8",
		validJSON("trace.json"), validJSON("metrics.json"),
		contains("metrics.json", `"ibwan-metrics/v1"`),
		count("metrics.json", `"name": "mpi.rndv.handshake.ns"`, 1),
		count("metrics.json", `"name": "mpi.msg.bytes"`, 1),
		count("metrics.json", `"name": "ib.rc.window.occupancy"`, 1),
		count("metrics.json", `"name": "wan.link.queue.wait.ns"`, 1),
		count("metrics.json", `"kind": "histogram"`, 0),
		sameAs("-quick -span-depth 4 -trace-out {dir}/trace.json fig8", "trace.json")),
	row("telemetry", "fig13", "-quick -metrics-out {dir}/metrics.json fig13",
		count("metrics.json", `"name": "nfs.rpc.latency.ns"`, 1),
		count("metrics.json", `"name": "tcp.segment.proc.ns"`, 1)),

	// Attaching telemetry sends every message packet by packet instead of
	// as a train: the tables must not show it.
	row("trains", "telemetry-off-on", "-quick -json {dir}/trains.json fig5 fig7 fig8 fig9 fig13 loss-tcp",
		sameAs("-quick -metrics-out {dir}/m.json fig5 fig7 fig8 fig9 fig13 loss-tcp", "stdout")),

	row("timeline", "loss-flap", "-quick -sample-every 1ms -timeline-out {dir}/tl.json loss-flap",
		validJSON("tl.json"),
		contains("tl.json", `"ibwan-timeline/v1"`),
		contains("tl.json", `"wan.link.busy.ns"`),
		contains("tl.json", `"ib.rc.window.occupancy"`),
		contains("tl.json", `"ib.rc.sendq.depth"`),
		contains("tl.json", `"wan.link.utilization.permille"`)),

	// Seeded loss plans recover to numbers; a dead WAN is ERR rows, not a
	// hang.
	row("chaos", "loss-families", "-quick loss-goodput loss-flap", noERR),
	row("chaos", "wan-down", "-quick -fault wan-down fig5", hasERR),
	row("chaos", "wan-loss", "-quick -fault wan-loss=0.02,seed=7 fig5"),

	// Each layer's probe at a README invocation: a number, no ERR row, and
	// the same bytes on two shard workers (the sdp probe's world stays on
	// one environment).
	tool("probes", "one-binary", oneBinary),
	probe("probe perftest -test bw -size 65536 -delay 1000 -window 8"),
	probe("probe ipoib -mode ud -delay 1000 -streams 8"),
	probe("probe ipoib -mode rc -delay 1000 -streams 4"),
	probe("probe ipoib -mode sdp -delay 1000 -streams 4"),
	probe("probe mpi -bench bw -size 16384 -delay 1000 -threshold 65536"),
	probe("-class A probe nas -kernel CG -procs 16 -delay 10000 -profile"),
	probe("-filemb 64 probe nfs -transport tcp-rc -threads 8 -delay 1000"),
	probe("-filemb 32 probe nfs -transport tcp-ud -threads 4 -delay 1000"),
	// More client threads than the server's 32 nfsd threads: calls wait in
	// the server's backlog.
	probe("-filemb 16 probe nfs -transport rdma -threads 48 -delay 1000"),
	// -tcpms sets the probe's window as it sets the figure's: fig7(b)'s
	// -quick 4-streams cell.
	probe("-tcpms 10 probe ipoib -mode rc -streams 4 -delay 1000", contains("stdout", "888.820")),

	row("multisite", "list", "-list", contains("stdout", "multisite-bcast")),
	row("multisite", "star3-bcast", "-quick -topo star3 multisite-bcast", noERR),
	row("multisite", "star3-loss", "-quick -topo star3 multisite-loss", hasERR),
	row("multisite", "ring4-allreduce", "-quick -topo ring4 multisite-allreduce"),

	// One shard per site must print the single-heap run's bytes: on the
	// uniform mesh, on the heterogeneous star, for cross-site services
	// (and their MPI abort, raised on a shard worker), for worlds that
	// start on an arena earlier worlds left, for the whole registry and
	// under random-drop plans.
	row("sharded", "mesh4", "-quick -topo mesh4 multisite-allreduce",
		sameAs("-quick -topo mesh4 -shards 4 multisite-allreduce", "stdout")),
	row("sharded", "star3-hetero", "-quick -topo star3-hetero multisite-allreduce",
		sameAs("-quick -topo star3-hetero -shards 4 multisite-allreduce", "stdout")),
	row("sharded", "ring4-services", "-quick -topo ring4 -shards 1 failover-services",
		noERR, sameAs("-quick -topo ring4 -shards 2 failover-services", "stdout")),
	row("sharded", "star3-services-abort", "-quick -topo star3 -shards 1 failover-services",
		contains("stdout", "mpi: mpi: rank 0: SEND completed with RETRY_EXCEEDED"),
		sameAs("-quick -topo star3 -shards 2 failover-services", "stdout", "stderr")),
	row("sharded", "arena", "-quick -par 1 fig13 multisite-nfs failover-services",
		sameAs("GOMAXPROCS=8 -quick -par 4 -shards 2 fig13 multisite-nfs failover-services", "stdout", "stderr")),
	row("sharded", "all", "-quick -par 1 -shards 1 all",
		sameAs("GOMAXPROCS=4 -quick -par 1 -shards 2 -json {dir}/all2.json all", "stdout", "stderr")),
	row("sharded", "wan-loss", "-quick -par 1 -shards 1 -fault wan-loss=0.01,seed=7 fig5 fig8",
		sameAs("GOMAXPROCS=4 -quick -par 1 -shards 2 -fault wan-loss=0.01,seed=7 fig5 fig8", "stdout", "stderr")),
	row("sharded", "ring4-loss", "-quick -par 1 -shards 1 -topo ring4 -fault wan-loss=0.001,seed=3 multisite-bcast multisite-nfs",
		sameAs("GOMAXPROCS=4 -quick -par 1 -shards 2 -topo ring4 -fault wan-loss=0.001,seed=3 multisite-bcast multisite-nfs", "stdout", "stderr")),

	// Killing one WAN link of a redundant preset leaves every point a
	// measurement; failover is one path on every world, sharded or not.
	row("failover", "ring4-kill", "-quick -topo ring4 failover-kill", noERR),
	row("failover", "mesh4-kill", "-quick -topo mesh4 failover-kill", noERR),
	row("failover", "star3-hetero", "-quick -shards 1 -topo star3-hetero failover-kill failover-debounce failover-services",
		sameAs("GOMAXPROCS=4 -quick -par 1 -shards 4 -topo star3-hetero failover-kill failover-debounce failover-services", "stdout", "stderr")),
	row("failover", "ring4-flap", "-quick -shards 1 -topo ring4 -fault wan-flap=2ms:3ms failover-debounce",
		sameAs("GOMAXPROCS=4 -quick -par 1 -shards 4 -topo ring4 -fault wan-flap=2ms:3ms failover-debounce", "stdout", "stderr")),

	// Every congestion loss is emergent: the ECN ledger counts marks and
	// the injected-fault ledger stays at zero. congest-queue is the one
	// family that stalls on lossless credits.
	row("congestion", "streams", "-quick -metrics-out {dir}/congest.metrics.txt congest-streams",
		noERR,
		counter("congest.metrics.txt", "wan.link.ecn.marks", "> 0", func(v int64) bool { return v > 0 }),
		counter("congest.metrics.txt", "ib.link.drops", "= 0", func(v int64) bool { return v == 0 }),
		sameAs("-quick -shards 4 congest-streams", "stdout")),
	row("congestion", "queue", "-quick congest-queue",
		noERR, sameAs("-quick -shards 4 congest-queue", "stdout")),

	// Go may fuse x*y + z into one FMA instruction on these, which rounds
	// once instead of twice; an explicit float64(x*y) forbids it. No
	// repro/ symbol may hold a fused op.
	tool("crossarch", "arm64", noFusedOps("arm64")),
	tool("crossarch", "ppc64le", noFusedOps("ppc64le")),
	tool("crossarch", "riscv64", noFusedOps("riscv64")),
}

// row is a binary row, tool a row that runs fn, and probe a probes row.
func row(group, name, cmd string, want ...check) ciRow {
	return ciRow{group: group, name: name, cmd: cmd, want: want}
}

func tool(group, name string, fn func(t *testing.T)) ciRow {
	return ciRow{group: group, name: name, fn: fn}
}

func probe(cmd string, want ...check) ciRow {
	return row("probes", strings.TrimPrefix(cmd, "probe "), cmd, append(want,
		matches("stdout", `[0-9]+\.[0-9]+`), noERR,
		sameAs("GOMAXPROCS=4 -par 1 -shards 2 "+cmd, "stdout"))...)
}

// ciRun is one finished run of the binary.
type ciRun struct {
	cmd            string
	stdout, stderr []byte
	dir            string
}

// runCI runs cmd in a fresh directory and requires exit 0.
func runCI(t *testing.T, cmd string) *ciRun {
	t.Helper()
	dir := t.TempDir()
	cmd = strings.ReplaceAll(cmd, "{dir}", dir)
	stdout, stderr, code := runBin(t, strings.Fields(cmd)...)
	if code != 0 {
		t.Fatalf("ibwan-exp %s: exit %d\n%s", cmd, code, stderr)
	}
	return &ciRun{cmd, []byte(stdout), []byte(stderr), dir}
}

// open returns a stream of the run: "stdout", "stderr", or the name of a
// file it wrote into its directory.
func (r *ciRun) open(t *testing.T, name string) io.Reader {
	t.Helper()
	switch name {
	case "stdout":
		return bytes.NewReader(r.stdout)
	case "stderr":
		return bytes.NewReader(r.stderr)
	}
	f, err := os.Open(filepath.Join(r.dir, name))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

func (r *ciRun) read(t *testing.T, name string) []byte {
	t.Helper()
	b, err := io.ReadAll(r.open(t, name))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// A check is one expectation on a finished run.
type check func(t *testing.T, r *ciRun)

// noERR and hasERR require stdout to hold no ERR row, or one at least.
var (
	noERR check = func(t *testing.T, r *ciRun) {
		if bytes.Contains(r.stdout, []byte("ERR")) {
			t.Errorf("ibwan-exp %s: ERR rows:\n%s", r.cmd, r.stdout)
		}
	}
	hasERR check = func(t *testing.T, r *ciRun) {
		if !bytes.Contains(r.stdout, []byte("ERR")) {
			t.Errorf("ibwan-exp %s: no ERR row:\n%s", r.cmd, r.stdout)
		}
	}
)

// contains requires stream to hold s.
func contains(stream, s string) check {
	return func(t *testing.T, r *ciRun) {
		if !bytes.Contains(r.read(t, stream), []byte(s)) {
			t.Errorf("ibwan-exp %s: %s lacks %q", r.cmd, stream, s)
		}
	}
}

// count requires stream to hold s exactly n times.
func count(stream, s string, n int) check {
	return func(t *testing.T, r *ciRun) {
		if got := bytes.Count(r.read(t, stream), []byte(s)); got != n {
			t.Errorf("ibwan-exp %s: %s holds %q %d times, want %d", r.cmd, stream, s, got, n)
		}
	}
}

// matches requires stream to match the regular expression re.
func matches(stream, re string) check {
	return func(t *testing.T, r *ciRun) {
		if !regexp.MustCompile(re).Match(r.read(t, stream)) {
			t.Errorf("ibwan-exp %s: %s does not match %s", r.cmd, stream, re)
		}
	}
}

// validJSON requires stream to parse as one JSON document.
func validJSON(stream string) check {
	return func(t *testing.T, r *ciRun) {
		if !json.Valid(r.read(t, stream)) {
			t.Errorf("ibwan-exp %s: %s is not valid JSON", r.cmd, stream)
		}
	}
}

// counter requires the text metrics dump file to hold one line
// "counter name v" whose v satisfies ok (described by want).
func counter(file, name, want string, ok func(int64) bool) check {
	return func(t *testing.T, r *ciRun) {
		var vals []string
		for _, line := range strings.Split(string(r.read(t, file)), "\n") {
			if f := strings.Fields(line); len(f) >= 3 && f[0] == "counter" && f[1] == name {
				vals = append(vals, f[2])
			}
		}
		if len(vals) != 1 {
			t.Fatalf("ibwan-exp %s: %s holds counter %s %d times, want once", r.cmd, file, name, len(vals))
		}
		if v, err := strconv.ParseInt(vals[0], 10, 64); err != nil || !ok(v) {
			t.Errorf("ibwan-exp %s: counter %s is %s, want %s", r.cmd, name, vals[0], want)
		}
	}
}

// equalsFile requires stdout to be the bytes of the file at path.
func equalsFile(path string) check {
	return func(t *testing.T, r *ciRun) {
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(r.stdout, want) {
			t.Errorf("ibwan-exp %s: stdout differs from %s at line %d", r.cmd, path, firstDiffLine(r.stdout, want))
		}
	}
}

// sameAs runs a second command line and requires each named stream to be
// the same bytes in both runs.
func sameAs(cmd string, streams ...string) check {
	return func(t *testing.T, r *ciRun) {
		other := runCI(t, cmd)
		for _, s := range streams {
			same, err := sameBytes(r.open(t, s), other.open(t, s))
			if err != nil {
				t.Fatal(err)
			}
			if !same {
				t.Errorf("%s differs:\n  ibwan-exp %s\n  ibwan-exp %s", s, r.cmd, other.cmd)
			}
		}
	}
}

// sameBytes reports whether a and b hold the same bytes, without holding
// either whole (a trace is ~180 MB).
func sameBytes(a, b io.Reader) (bool, error) {
	ba, bb := make([]byte, 1<<16), make([]byte, 1<<16)
	for {
		na, ea := io.ReadFull(a, ba)
		nb, eb := io.ReadFull(b, bb)
		if !bytes.Equal(ba[:na], bb[:nb]) {
			return false, nil
		}
		for _, err := range []error{ea, eb} {
			if err != nil && !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
				return false, err
			}
		}
		if ea != nil {
			return true, nil
		}
	}
}

// firstDiffLine returns the 1-based line where a and b first differ.
func firstDiffLine(a, b []byte) int {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	return bytes.Count(a[:i], []byte("\n")) + 1
}

// goRun runs an example to completion from the module root.
func goRun(pkg string) func(t *testing.T) {
	return func(t *testing.T) {
		cmd := exec.Command("go", "run", pkg)
		cmd.Dir = "../.."
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go run %s: %v\n%s", pkg, err, out)
		}
	}
}

// oneBinary: ibwan-exp is the only command, so go build ./... finds one
// main under cmd/.
func oneBinary(t *testing.T) {
	entries, err := os.ReadDir("..")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "ibwan-exp" {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Errorf("cmd/ holds %v, want only ibwan-exp", names)
	}
}

var fusedOp = regexp.MustCompile(`FMADD|FMSUB|FNMADD|FNMSUB`)

// noFusedOps builds the binary for arch and fails on each fused
// multiply-add that go tool objdump shows inside a repro/ symbol.
func noFusedOps(arch string) func(t *testing.T) {
	return func(t *testing.T) {
		exe := filepath.Join(t.TempDir(), "ibwan-exp."+arch)
		build := exec.Command("go", "build", "-o", exe, ".")
		build.Env = append(os.Environ(), "GOARCH="+arch)
		if out, err := build.CombinedOutput(); err != nil {
			t.Fatalf("GOARCH=%s go build: %v\n%s", arch, err, out)
		}
		dump := exec.Command("go", "tool", "objdump", exe)
		out, err := dump.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		var stderr bytes.Buffer
		dump.Stderr = &stderr
		if err := dump.Start(); err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(out)
		sc.Buffer(make([]byte, 1<<16), 1<<20)
		sym := ""
		for sc.Scan() {
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, "TEXT "); ok {
				sym, _, _ = strings.Cut(rest, " ")
			}
			if strings.HasPrefix(sym, "repro/") && fusedOp.MatchString(line) {
				t.Errorf("%s: %s: %s", arch, sym, line)
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		if err := dump.Wait(); err != nil {
			t.Fatalf("go tool objdump: %v\n%s", err, stderr.String())
		}
	}
}
