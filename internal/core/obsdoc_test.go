package core

import (
	"os"
	"regexp"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

// docMetrics parses OBSERVABILITY.md's catalog table (header "| name | kind
// | meaning |") into name -> kind. A row may list several backquoted names;
// "<i>" in a name stands for a shard index.
func docMetrics(t *testing.T) map[string]string {
	t.Helper()
	doc, err := os.ReadFile("../../OBSERVABILITY.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(doc), "| name | kind | meaning |\n|---|---|---|\n")
	if !ok {
		t.Fatal("OBSERVABILITY.md: metric catalog table not found")
	}
	quoted := regexp.MustCompile("`([^`]+)`")
	out := map[string]string{}
	for _, row := range strings.Split(table, "\n") {
		cols := strings.Split(row, "|")
		if len(cols) < 4 {
			break // end of the table
		}
		for _, m := range quoted.FindAllStringSubmatch(cols[1], -1) {
			out[m[1]] = strings.TrimSpace(cols[2])
		}
	}
	return out
}

// TestObservabilityDocMatchesCode pins OBSERVABILITY.md's metric catalog to
// the code in both directions: across experiments that construct every
// instrumented layer (MPI, NFS over both transports, the fault and
// congestion paths, and a sharded failover world for the scheduler's own
// counters), every registered metric is documented under its kind, and
// every documented metric is registered by some layer.
func TestObservabilityDocMatchesCode(t *testing.T) {
	if testing.Short() {
		t.Skip("runs five experiment families")
	}
	reg := telemetry.NewRegistry()
	for _, id := range []string{"fig8", "fig13", "loss-flap", "congest-streams", "failover-kill"} {
		RunWith(id, Options{Quick: true}, RunnerOptions{
			ShardWorkers: 2, Telemetry: &telemetry.Telemetry{Metrics: reg}})
	}
	doc := docMetrics(t)
	shard := regexp.MustCompile(`^sim\.shard\.\d+\.`)
	seen := map[string]string{} // name -> registered kind
	for _, s := range reg.Snapshot() {
		name := shard.ReplaceAllString(s.Name, "sim.shard.<i>.")
		if prev, dup := seen[name]; dup {
			if prev != s.Kind {
				t.Errorf("%s is registered as both %s and %s: one metric per fact", name, prev, s.Kind)
			}
			continue
		}
		seen[name] = s.Kind
		switch kind, ok := doc[name]; {
		case !ok:
			t.Errorf("%s (%s) is registered but missing from OBSERVABILITY.md's catalog", name, s.Kind)
		case kind != s.Kind:
			t.Errorf("%s is registered as %s but documented as %q", name, s.Kind, kind)
		}
	}
	for name, kind := range doc {
		// A derived series is computed from a counter at sample time and
		// has no registration of its own.
		if seen[name] == "" && kind != "derived timeline series" {
			t.Errorf("%s (%s) is documented in OBSERVABILITY.md but no layer registers it", name, kind)
		}
	}
}
