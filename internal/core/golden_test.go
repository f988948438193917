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

// TestGoldenQuickOutput asserts that the determinism matrix's default row —
// the sequential pass of every family at Options{Quick: true} — renders the
// golden families byte-identical to the checked-in pre-optimization output,
// and that every registered experiment dispatches exactly the pinned number
// of events, in the pinned order, on the classic single heap
// (testdata/golden_quick_events.txt, one `id events digest` line per
// registry entry; the digest is Result.Metrics.Digest): tables round, so a
// simulator-only change could move an event — an extra wake-up, a tie
// resolved the other way — without moving a rendered digit, and a reordered
// tie moves no count either. The counts and digests make "this change
// leaves the simulation alone" a machine check on every layer, including
// the ones whose tables are too long to pin; sharded counts are not pinned
// (a Stop on a partitioned world lands at a scheduling-dependent event).
// The matrix's cells prove output is independent of scheduling; this test
// additionally proves it is independent of the kernel's internal
// representation (heap layout, freelists and the arenas that carry them
// between worlds, ring buffers, processes vs servers), which is the
// contract every performance change to internal/sim, internal/ib or
// internal/tcpsim must preserve.
// Regenerate (only when an intentional modeling change shifts the numbers;
// it runs the default row's sequential pass and nothing else) with:
//
//	go test ./internal/core -run TestGoldenQuickOutput -update
func TestGoldenQuickOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("golden sweep skipped in -short mode")
	}
	in := matrixRow(defaultInput)
	var tables, events strings.Builder
	for _, id := range ExperimentIDs {
		res := in.baseline(id)
		if slices.Contains(goldenIDs, id) {
			tables.WriteString(render(res))
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
	for i := range min(len(wl), len(gl)) {
		if wl[i] != gl[i] {
			return fmt.Sprintf("line %d:\n  want: %s\n  got:  %s", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("line count differs: want %d, got %d", len(wl), len(gl))
}
