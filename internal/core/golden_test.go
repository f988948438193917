package core

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden output files")

// goldenIDs is the representative experiment subset pinned by the golden
// regression test. It covers every simulation layer the kernel
// optimizations touch: the raw DES/event path (table1), verbs latency
// (fig3), UD and RC streaming over the fabric (fig4, fig5), the TCP/IPoIB
// stack (fig7) and MPI collectives (fig11). None of these configure a
// queue bound, so the file also pins the congestion-disabled contract: with
// bounded queues, ECN and credit backpressure compiled in but off, the
// transmit path and tcpsim's slow start must render byte-identical to the
// pre-congestion seed.
var goldenIDs = []string{"table1", "fig3", "fig4", "fig5", "fig7", "fig11"}

// TestGoldenQuickOutput asserts that quick-mode ibwan-exp rendering is
// byte-identical to the checked-in pre-optimization output, and that every
// registered experiment dispatches exactly the pinned number of events, in
// the pinned order, on the classic single heap
// (testdata/golden_quick_events.txt, one `id events digest` line per
// registry entry; the digest is Result.Metrics.Digest): tables round, so a
// simulator-only change could move an event — an extra wake-up, a tie
// resolved the other way — without moving a rendered digit, and a reordered
// tie moves no count either. The counts and digests make "this change
// leaves the simulation alone"
// a machine check on every layer, including the ones whose tables are too
// long to pin; sharded counts are not pinned (a Stop on a partitioned world
// lands at a scheduling-dependent event). The par=1 vs par=8 determinism
// test proves output is independent of scheduling; this test additionally
// proves it is independent of the kernel's internal representation (heap
// layout, freelists and the arenas that carry them between worlds, ring
// buffers, processes vs servers), which is the contract every performance
// PR against internal/sim, internal/ib or internal/tcpsim must preserve.
// Regenerate (only when an intentional modeling change shifts the numbers)
// with:
//
//	go test ./internal/core -run TestGoldenQuickOutput -update
func TestGoldenQuickOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("golden sweep skipped in -short mode")
	}
	var tables, events strings.Builder
	for _, id := range ExperimentIDs {
		res := RunWith(id, Options{Quick: true}, RunnerOptions{Workers: 1})
		if slices.Contains(goldenIDs, id) {
			tables.WriteString(renderTables(res))
		}
		fmt.Fprintf(&events, "%s %d %016x\n", id, res.Metrics.Events, res.Metrics.Digest)
	}
	checkGolden(t, "golden_quick.txt", tables.String(),
		"The optimized kernel must render byte-identical results; a diff "+
			"means a behavioral (not just performance) change.")
	checkGolden(t, "golden_quick_events.txt", events.String(),
		"A simulator-only change must dispatch exactly the events its parent "+
			"did; a modeling change regenerates the file and says so.")
}

// checkGolden compares got with testdata/name, or rewrites the file under
// -update.
func checkGolden(t *testing.T, name, got, contract string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("quick-mode output diverges from golden %s.\n%s\n--- got ---\n%s",
			path, contract, diffHint(string(want), got))
	}
}

// diffHint returns the first diverging line pair, to keep failure output
// readable (the full rendering is thousands of lines).
func diffHint(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	n := len(wl)
	if len(gl) < n {
		n = len(gl)
	}
	for i := 0; i < n; i++ {
		if wl[i] != gl[i] {
			return "line " + itoa(i+1) + ":\n  want: " + wl[i] + "\n  got:  " + gl[i]
		}
	}
	return "line count differs: want " + itoa(len(wl)) + ", got " + itoa(len(gl))
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}
