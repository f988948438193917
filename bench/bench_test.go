package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// benchmarkJSON is BENCHMARK.json's shape.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// TestBenchmarkJSONMatchesDefinitions keeps BENCHMARK.json and the
// benchmark's own tables in step, and both inside the driver's limits.
func TestBenchmarkJSONMatchesDefinitions(t *testing.T) {
	b := readBenchmarkJSON(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		t.Helper()
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside [A-Za-z0-9_.-]{1,64}", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds is %d, the benchmark's default is %d", b.RunSeconds, defaultSeconds)
	}
	if want := []string{"bench"}; !reflect.DeepEqual(b.Paths, want) {
		t.Errorf("paths is %v, want %v", b.Paths, want)
	}
	ws := workloads()
	if len(b.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(b.Workloads), len(ws))
	}
	for i, w := range ws {
		name(w.name)
		if got := b.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)", i, got.Name, got.Why, w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.name)
		}
		if w.shards > shardWorkers() || w.setups < 1 {
			t.Errorf("workload %s: shards %d (host allows %d), setups %d", w.name, w.shards, shardWorkers(), w.setups)
		}
	}
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics; the driver takes 16 and 128", len(endToEnd), len(perLayer))
	}
	if len(b.EndToEnd) != len(endToEnd) || len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d + %d metrics, the benchmark defines %d + %d",
			len(b.EndToEnd), len(b.PerLayer), len(endToEnd), len(perLayer))
	}
	setup := false
	for i, d := range endToEnd {
		name(d.Name)
		got := b.EndToEnd[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the benchmark %+v", i, got, d)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g is outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Bound > endToEnd[0].Bound {
			t.Errorf("%s: bound %g exceeds setup_s's, which must be the largest", d.Name, d.Bound)
		}
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q", d.Name, d.Unit)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !setup {
		t.Error("setup_s (s, lower) is missing from the end-to-end metrics")
	}
	for i, d := range perLayer {
		name(d.Name)
		got := b.PerLayer[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the benchmark %s %s %s", i, got, d.Name, d.Unit, d.Better)
		}
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q", d.Name, d.Unit)
		}
	}
}

// TestTracedRunEmitsEveryPerLayerMetric is the smoke run: the traced child
// in-process on shrunken drivers, on the cheapest workload (the emission
// code is the same for all four; a pass of the others costs 3 to 7 s).
// Every per-layer name must come out exactly once (metricSet.set panics on
// a second emission) with a finite value, the run must be correct, and the
// spans must nest.
func TestTracedRunEmitsEveryPerLayerMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two multisite-sharded passes and every layer driver")
	}
	rep := childTrace(workloadByName("multisite-sharded"), 1, 10)
	for _, p := range rep.Problems {
		t.Errorf("problem: %s", p)
	}
	if rep.Failed != 0 || rep.Attempted == 0 {
		t.Errorf("%d of %d points failed", rep.Failed, rep.Attempted)
	}
	if err := rep.PerLayer.check(perLayer); err != nil {
		t.Error(err)
	}
	ids := map[int]bool{0: true}
	for _, s := range rep.Spans {
		if !ids[s.Parent] {
			t.Errorf("span %d %q names parent %d, which does not precede it", s.ID, s.Name, s.Parent)
		}
		if s.DurUS < 0 {
			t.Errorf("span %d %q was never closed", s.ID, s.Name)
		}
		ids[s.ID] = true
	}
	var buf bytes.Buffer
	if err := writeChromeTrace(&buf, []traceProcess{{Name: "smoke", Spans: rep.Spans}}); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Error("trace is not valid JSON")
	}
}

// TestSimulatedCountsRepeat runs the layer drivers twice and a classic
// workload's pass twice in one process: event counts and every other
// simulated count must be identical, and the rendering must not depend on
// the seed's order.
func TestSimulatedCountsRepeat(t *testing.T) {
	a, b := metricSet{}, metricSet{}
	for _, out := range []metricSet{a, b} {
		if err := runLayerDrivers(nil, 7, 10, out); err != nil {
			t.Fatal(err)
		}
	}
	for _, d := range perLayer {
		if va, ok := a[d.Name]; ok && d.Kind == "exact" && va != b[d.Name] {
			t.Errorf("%s: %v then %v", d.Name, va, b[d.Name])
		}
	}
	w := &workload{name: "classic", cells: cellsOf(quick, "table1", "fig3", "fig4")}
	p1 := w.runPass(w.order(1), passConfig{shards: 1})
	p2 := w.runPass(w.order(2), passConfig{shards: 1})
	if p1.events() != p2.events() || p1.events() == 0 {
		t.Errorf("events per pass: %d then %d", p1.events(), p2.events())
	}
	if p1.rendering() != p2.rendering() {
		t.Error("rendered tables depend on the seed's order")
	}
	if e := w.peakErrPct(&p1); math.IsNaN(e) || e <= 0 {
		t.Errorf("paper peak error over fig4 is %v, want a positive percentage", e)
	}
}

// TestUnitsTileThePass checks what quietSum rests on: a pass's units sum to
// its wall time, tile alike from pass to pass whatever the seed's order, and
// the estimate is each position's fastest sample.
func TestUnitsTileThePass(t *testing.T) {
	w := &workload{name: "classic", cells: cellsOf(quick, "table1", "fig3")}
	p1 := w.runPass(w.order(1), passConfig{shards: 1})
	p2 := w.runPass(w.order(2), passConfig{shards: 1})
	for _, byCell := range []bool{false, true} {
		u1, u2 := p1.units(byCell), p2.units(byCell)
		if len(u1) != len(u2) || len(u1) < len(w.cells)+1 {
			t.Fatalf("byCell=%v: %d then %d units", byCell, len(u1), len(u2))
		}
		sum := 0.0
		for _, u := range u1 {
			sum += u
		}
		// The pass's wall also spans the closing runtime.ReadMemStats.
		if d := ms(p1.wall) - sum; d < 0 || d > 25 {
			t.Errorf("byCell=%v: units sum to %v ms, the pass took %v ms", byCell, sum, ms(p1.wall))
		}
	}
	if got := quietSum([][]float64{{3, 5, 2}, {4, 1, 2}, {9, 9, 1}}); got != 3+1+1 {
		t.Errorf("quietSum = %v, want 5", got)
	}
	if got := quietSum([][]float64{{1, 2}, {1}}); !math.IsNaN(got) {
		t.Errorf("quietSum over unlike tilings = %v, want NaN", got)
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// == [3.5, 13.5, 31.0]
	q1, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %v, %v; want 3.5, 31", q1, q3)
	}
}

func TestVerdict(t *testing.T) {
	d := metricDef{Name: "pass_wall_ms", Better: "lower", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102, 98}
	for _, c := range []struct {
		name string
		b    []float64
		want string
	}{
		{"same", steady, "ok"},
		{"5% slower", []float64{105, 106, 104, 105, 107, 103}, "ok"},
		{"20% slower", []float64{120, 121, 119, 120, 122, 118}, "worse"},
		{"noisy", []float64{80, 130, 95, 140, 70, 100}, "unresolved"},
		{"noisy but always better", []float64{50, 80, 60, 90, 40, 70}, "ok"},
	} {
		if got := verdict(d, steady, c.b); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}
