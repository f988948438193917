package core

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/topo"
)

// render renders one experiment as RunAllWith writes it: the === id ===
// header, the tables and a line per failed point.
func render(res Result) string {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "=== %s ===\n", res.ID)
	for _, t := range res.Tables {
		t.Render(&buf)
	}
	RenderErrors(&buf, res.Errors)
	return buf.String()
}

// family lists the registered experiments whose id starts with prefix.
func family(prefix string) []string {
	return slices.DeleteFunc(slices.Clone(ExperimentIDs), func(id string) bool { return !strings.HasPrefix(id, prefix) })
}

// without returns ids less drop.
func without(ids []string, drop ...string) []string {
	return slices.DeleteFunc(slices.Clone(ids), func(id string) bool { return slices.Contains(drop, id) })
}

// defaultInput names the matrix's row of every family at Options{Quick:
// true}, whose pass the golden files pin.
const defaultInput = "default"

// matrixInput is a row of the determinism matrix: what is simulated, which
// families run it, and what their sequential pass must show.
type matrixInput struct {
	name string
	// preset and plan name a preset row's topology and fault plan ("" for
	// none); its cells report as <preset>/<family>[/<plan>].
	preset, plan string
	opt          Options
	ids          []string
	// sane lists the families whose sequential pass must pass checkSane.
	// All of them but multisite-loss, whose kill series have no alternate
	// route on a star, must also fail no point.
	sane []string
	// sharded lists the families that must run sharded windows whenever
	// ShardWorkers > 1.
	sharded []string
	// base holds the sequential (Workers: 1) pass, each family run once.
	base map[string]Result
}

func (in *matrixInput) baseline(id string) Result {
	if _, ok := in.base[id]; !ok {
		in.base[id] = RunWith(id, in.opt, RunnerOptions{Workers: 1})
	}
	return in.base[id]
}

// matrixRows holds the matrix's rows for the life of the test binary, so
// each row's sequential pass runs once, however many tests read it.
var matrixRows = sync.OnceValue(matrixInputs)

// matrixRow returns the row named name.
func matrixRow(name string) *matrixInput {
	rows := matrixRows()
	return rows[slices.IndexFunc(rows, func(in *matrixInput) bool { return in.name == name })]
}

// matrixInputs returns the matrix's rows: every family at the default
// Options; then every multisite family on every topology preset with no
// fault plan, a WAN flap, WAN loss and corruption, and TCP segment loss —
// with the failover family on ring4, where a killed link has an alternate
// route, and congest-streams on the heterogeneous-delay star, whose queue
// marks, drops and stalls feed back into endpoint pacing.
func matrixInputs() []*matrixInput {
	failover, multisite := family("failover-"), family("multisite-")
	// On the default star a killed link has no alternate route, so the
	// failover family's kill series are ERR rows by design
	// (TestFailoverPartitionTerminates); its sanity is read on ring4.
	ins := []*matrixInput{{name: defaultInput, opt: Options{Quick: true}, ids: ExperimentIDs,
		sane: without(ExperimentIDs, failover...),
		// The paper's own testbed partitions.
		sharded: []string{"fig5", "fig7", "fig13", "loss-goodput"}, base: map[string]Result{}}}
	plans := []struct {
		name string
		plan *fault.Plan
	}{
		{"", nil},
		{"wan-flap", &fault.Plan{Seed: 7, WANFlaps: []fault.FlapStep{
			{At: 2 * sim.Millisecond, Down: true},
			{At: 6 * sim.Millisecond, Down: false},
		}}},
		{"wan-loss", &fault.Plan{Seed: 7, WANLoss: 0.01, WANCorrupt: 0.005}},
		{"tcp-loss", &fault.Plan{Seed: 5, TCPLoss: 0.01}},
	}
	// multisite-loss builds its worlds at zero delay, so they never
	// partition, and on a star or the paper's testbed its kill series are
	// all ERR.
	lossless := without(multisite, "multisite-loss")
	for _, preset := range topo.PresetNames() {
		for _, p := range plans {
			in := &matrixInput{name: preset, preset: preset, plan: p.name,
				opt: Options{Quick: true, Topo: preset, Fault: p.plan}, ids: multisite, base: map[string]Result{}}
			switch {
			case p.plan != nil:
				in.name += "+" + p.name
				if p.plan.WANLoss+p.plan.WANCorrupt+p.plan.TCPLoss > 0 {
					in.sharded = lossless // a random-drop plan shards like any other
				}
			case preset == "ring4":
				in.ids = slices.Concat(multisite, failover)
				in.sane = slices.Concat(lossless, failover)
			case preset == "star3-hetero":
				in.ids = slices.Concat(multisite, []string{"congest-streams"})
				in.sane = slices.Concat(lossless, []string{"congest-streams"})
			default:
				in.sane = lossless
			}
			ins = append(ins, in)
		}
	}
	return ins
}

// matrixModes are the matrix's columns: each runs a row's families, which
// must render every table and error row of the sequential pass.
var matrixModes = []struct {
	name string
	ropt RunnerOptions
}{
	// Points in parallel replay the sequential pass event for event: the
	// event count and dispatch digest match too (the digest is a sum over
	// points, so the order points complete in cannot move it).
	{"par8", RunnerOptions{Workers: 8}},
	{"shards4", RunnerOptions{Workers: 1, ShardWorkers: 4}},
	{"par2-shards2", RunnerOptions{Workers: 2, ShardWorkers: 2}},
	// A metrics registry and a 1 ms sampler, on the default row only.
	// Events and digests may move: an attached observer sends every message
	// packet by packet instead of as a train (DESIGN §7).
	{"observed", RunnerOptions{Workers: 2, SampleEvery: sim.Millisecond}},
}

// TestDeterminismMatrix: every table the registry renders at the default
// Options is the same at any worker count, shard count or observer. Each
// cell, default/<mode>/<family>, compares the family under the mode with
// the row's sequential pass, which the sanity, shape and golden tests read
// too. The preset rows are in TestShardedMatchesSequential.
func TestDeterminismMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("determinism matrix skipped in -short mode")
	}
	in := matrixRow(defaultInput)
	for _, md := range matrixModes {
		t.Run(in.name+"/"+md.name, func(t *testing.T) { in.compare(t, md.ropt) })
	}
}

// compare runs the row's families under ropt, one cell each, against the
// sequential pass. The default row's par8 cell runs the whole registry
// through RunAllWith, whose byte stream is one more cell.
func (in *matrixInput) compare(t *testing.T, ropt RunnerOptions) {
	var stream bytes.Buffer
	runAll := map[string]Result{}
	if ropt.ShardWorkers == 0 && ropt.SampleEvery == 0 && in.name == defaultInput {
		for _, res := range RunAllWith(&stream, in.opt, ropt) {
			runAll[res.ID] = res
		}
	}
	for _, id := range in.ids {
		t.Run(id, func(t *testing.T) { in.check(t, id, ropt, runAll) })
	}
	if len(runAll) > 0 {
		t.Run("RunAllWith", func(t *testing.T) {
			var want strings.Builder
			for _, id := range in.ids {
				want.WriteString(render(in.baseline(id)))
			}
			if got := stream.String(); got != want.String() {
				t.Errorf("RunAllWith's stream diverges from the sequential pass: %s", diffHint(want.String(), got))
			}
		})
	}
}

// check runs family id under ropt (a sampling mode with a metrics registry
// attached), unless ran holds that run already, and compares it with the
// row's sequential pass: the same tables and error rows, the same events
// and digest when neither shards nor an observer are on, and sharded
// windows where the row says its worlds partition.
func (in *matrixInput) check(t *testing.T, id string, ropt RunnerOptions, ran map[string]Result) {
	t.Helper()
	res, ok := ran[id]
	if !ok {
		if ropt.SampleEvery > 0 {
			ropt.Telemetry = &telemetry.Telemetry{Metrics: telemetry.NewRegistry()}
		}
		res = RunWith(id, in.opt, ropt)
	}
	base := in.baseline(id)
	if want, got := render(base), render(res); got != want {
		t.Fatalf("tables or error rows diverge from the sequential pass: %s", diffHint(want, got))
	}
	exact := ropt.ShardWorkers == 0 && ropt.SampleEvery == 0
	if s, p := base.Metrics, res.Metrics; exact && (s.Events != p.Events || s.Digest != p.Digest) {
		t.Errorf("events/digest %d/%016x sequential, %d/%016x here", s.Events, s.Digest, p.Events, p.Digest)
	}
	if ropt.ShardWorkers > 1 && slices.Contains(in.sharded, id) && res.Metrics.ShardWindows == 0 {
		t.Errorf("%s ran no sharded window at %d shard workers", id, ropt.ShardWorkers)
	}
}

// checkBaseline checks family id's sequential pass if the row lists it as
// sane: checkSane, and no failed point but multisite-loss's.
func (in *matrixInput) checkBaseline(t *testing.T, id string) {
	t.Helper()
	if !slices.Contains(in.sane, id) {
		return
	}
	res := in.baseline(id)
	checkSane(t, res)
	if len(res.Errors) != 0 && id != "multisite-loss" {
		t.Errorf("failed points: %v", res.Errors)
	}
}

// TestAllExperimentsQuick sanity-checks every family's sequential pass at
// Quick, as the determinism matrix holds it — the failover family's on
// ring4, where a killed link has an alternate route.
func TestAllExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("quick experiment sweep skipped in -short mode")
	}
	for _, id := range ExperimentIDs {
		t.Run(id, func(t *testing.T) {
			in := matrixRow(defaultInput)
			if strings.HasPrefix(id, "failover-") {
				in = matrixRow("ring4")
			}
			in.checkBaseline(t, id)
		})
	}
}

// checkSane checks a sequential pass's tables: there are some, each titled,
// and every series is non-empty, non-negative and, but for Table 1's, not
// all zero.
func checkSane(t *testing.T, res Result) {
	t.Helper()
	if len(res.Tables) == 0 {
		t.Fatal("no tables")
	}
	for _, tab := range res.Tables {
		if tab.Title == "" {
			t.Error("table without title")
		}
		if len(tab.Series) == 0 {
			t.Errorf("table %q has no series", tab.Title)
		}
		for _, s := range tab.Series {
			if len(s.Y) == 0 {
				t.Errorf("series %q empty", s.Label)
			}
			for _, y := range s.Y {
				if y < 0 {
					t.Errorf("series %q has negative value %v", s.Label, y)
				}
			}
			if s.Max() <= 0 && !strings.Contains(tab.Title, "Table 1") {
				t.Errorf("series %q all-zero", s.Label)
			}
		}
	}
}

// TestQuickShapesHold spot-checks that the headline orderings survive even
// the coarse Quick sweeps, in the default row's sequential pass.
func TestQuickShapesHold(t *testing.T) {
	if testing.Short() {
		t.Skip("shape checks skipped in -short mode")
	}
	in := matrixRow(defaultInput)

	// Fig5: at 1 ms delay, the largest size far exceeds the middle size
	// (RC window collapse).
	fig5 := in.baseline("fig5").Tables[0].Series
	i := slices.IndexFunc(fig5, func(s *stats.Series) bool { return strings.Contains(s.Label, "1000us") })
	if i < 0 {
		t.Fatal("fig5 missing 1000us series")
	}
	if y := fig5[i].Y; y[len(y)-1] < 3*y[len(y)/2] {
		t.Errorf("fig5 quick: large/medium at 1ms = %v / %v, want >3x", y[len(y)-1], y[len(y)/2])
	}

	// Fig13(c): IPoIB-RC above RDMA at 1 ms.
	tabs := in.baseline("fig13").Tables
	var rdma, rc float64
	for _, s := range tabs[len(tabs)-1].Series {
		switch s.Label {
		case "RDMA":
			rdma = s.Max()
		case "IPoIB-RC":
			rc = s.Max()
		}
	}
	if rc <= rdma {
		t.Errorf("fig13(c) quick: IPoIB-RC %v not above RDMA %v at 1ms", rc, rdma)
	}
}
