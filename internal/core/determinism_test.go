package core

import (
	"bytes"
	"fmt"
	"testing"
)

// renderTables renders an experiment the way the CLI does, for comparison.
func renderTables(res Result) string {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "=== %s ===\n", res.ID)
	for _, t := range res.Tables {
		t.Render(&buf)
	}
	return buf.String()
}

// TestParallelRunMatchesSequential is the determinism regression test for
// the parallel runner: for every registered experiment, Quick-mode output
// at 8 workers must be byte-identical to the sequential (1-worker) path, and
// so must the event count and dispatch digest (a sum over points, so the
// order points complete in cannot move it).
func TestParallelRunMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("parallel determinism sweep skipped in -short mode")
	}
	opt := Options{Quick: true}
	for _, id := range ExperimentIDs {
		id := id
		t.Run(id, func(t *testing.T) {
			seqRes := RunWith(id, opt, RunnerOptions{Workers: 1})
			parRes := RunWith(id, opt, RunnerOptions{Workers: 8})
			seq, par := renderTables(seqRes), renderTables(parRes)
			if seq != par {
				t.Errorf("parallel output diverges from sequential\n--- par=1 ---\n%s\n--- par=8 ---\n%s", seq, par)
			}
			if s, p := seqRes.Metrics, parRes.Metrics; s.Events != p.Events || s.Digest != p.Digest {
				t.Errorf("events/digest %d/%016x at par=1, %d/%016x at par=8", s.Events, s.Digest, p.Events, p.Digest)
			}
		})
	}
}

// TestRunAllWithParallelMatchesSequential checks the full RunAll path,
// including the === headers and table interleaving, across worker counts.
func TestRunAllWithParallelMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("RunAll determinism check skipped in -short mode")
	}
	opt := Options{Quick: true, NASClass: "W", NFSFileMB: 4, TCPMillis: 4}
	var seq, par bytes.Buffer
	RunAllWith(&seq, opt, RunnerOptions{Workers: 1})
	RunAllWith(&par, opt, RunnerOptions{Workers: 8})
	if !bytes.Equal(seq.Bytes(), par.Bytes()) {
		t.Error("RunAllWith output differs between 1 and 8 workers")
	}
}
