package telemetry

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
)

// tickSampler drives a sampler through a scripted run: register metrics,
// mutate, tick, mutate, tick.
func tickSampler(t *testing.T) *Sampler {
	t.Helper()
	r := NewRegistry()
	c := r.Counter("pkts")
	h := r.HiRes("lat.ns")
	s := NewSampler(r, sim.Millisecond)

	c.Add(10)
	h.Observe(100)
	h.Observe(200)
	s.Tick(1 * sim.Millisecond)

	c.Add(5)
	s.Tick(2 * sim.Millisecond) // hires has no new observations this interval

	c.Add(85)
	h.Observe(1000)
	s.Tick(3 * sim.Millisecond)
	return s
}

func TestSamplerDeltas(t *testing.T) {
	series := tickSampler(t).Series()
	if len(series) != 2 {
		t.Fatalf("series = %d, want 2", len(series))
	}
	lat, pkts := series[0], series[1]
	if lat.Name != "lat.ns" || lat.Kind != KindHiRes || pkts.Name != "pkts" || pkts.Kind != KindCounter {
		t.Fatalf("series order/kind: %+v", series)
	}
	wantDeltas := []int64{10, 5, 85}
	if len(pkts.Samples) != 3 {
		t.Fatalf("counter rows = %d, want 3", len(pkts.Samples))
	}
	for i, smp := range pkts.Samples {
		if smp.V != wantDeltas[i] || smp.T != sim.Time(i+1)*sim.Millisecond {
			t.Errorf("counter row %d = %+v, want delta %d at %dms", i, smp, wantDeltas[i], i+1)
		}
	}
	if len(lat.Quantiles) != 3 {
		t.Fatalf("hires rows = %d, want 3", len(lat.Quantiles))
	}
	if q := lat.Quantiles[0]; q.Count != 2 || q.Sum != 300 {
		t.Errorf("hires row 0 = %+v, want count 2 sum 300", q)
	}
	if q := lat.Quantiles[1]; q.Count != 0 || q.P99 != 0 {
		t.Errorf("hires row 1 = %+v, want an explicit zero row", q)
	}
	// Interval 3's single observation: every quantile collapses onto it.
	if q := lat.Quantiles[2]; q.Count != 1 || q.P50 < 960 || q.P50 > 1088 {
		t.Errorf("hires row 2 = %+v", q)
	}
}

func TestSamplerLateRegistration(t *testing.T) {
	r := NewRegistry()
	s := NewSampler(r, sim.Millisecond)
	r.Counter("early").Add(1)
	s.Tick(1 * sim.Millisecond)
	// A metric registered mid-run starts sampling from its first tick.
	r.Counter("late").Add(7)
	s.Tick(2 * sim.Millisecond)
	series := s.Series()
	if len(series) != 2 || series[0].Name != "early" || series[1].Name != "late" {
		t.Fatalf("series: %+v", series)
	}
	if len(series[0].Samples) != 2 || len(series[1].Samples) != 1 {
		t.Fatalf("row counts = %d/%d, want 2/1", len(series[0].Samples), len(series[1].Samples))
	}
	if series[1].Samples[0].V != 7 || series[1].Samples[0].T != 2*sim.Millisecond {
		t.Errorf("late row = %+v", series[1].Samples[0])
	}
}

func TestPointTimelineAbsorbAndDerive(t *testing.T) {
	pt := PointTimeline{Experiment: "e", Point: "p", Every: sim.Millisecond}
	pt.Absorb([]Series{{Name: "wan.link.busy.ns", Kind: KindCounter,
		Samples: []Sample{{T: sim.Millisecond, V: 250_000}}}}, 0)
	// Second environment's series shift past the first's end.
	pt.Absorb([]Series{{Name: "wan.link.busy.ns", Kind: KindCounter,
		Samples: []Sample{{T: sim.Millisecond, V: 500_000}}}}, 10*sim.Millisecond)
	pt.Finish()
	if len(pt.Series) != 2 {
		t.Fatalf("series = %d, want busy + derived utilization", len(pt.Series))
	}
	busy, util := pt.Series[0], pt.Series[1]
	if busy.Name != "wan.link.busy.ns" || util.Name != "wan.link.utilization.permille" || util.Kind != KindDerived {
		t.Fatalf("series: %q/%q", busy.Name, util.Name)
	}
	if busy.Samples[1].T != 11*sim.Millisecond {
		t.Errorf("absorbed offset: row 1 at %v, want 11ms", busy.Samples[1].T)
	}
	if util.Samples[0].V != 250 || util.Samples[1].V != 500 {
		t.Errorf("derived permille = %d/%d, want 250/500", util.Samples[0].V, util.Samples[1].V)
	}
	if pt.SampleCount() != 4 {
		t.Errorf("SampleCount = %d, want 4", pt.SampleCount())
	}
}

// refAbsorb is PointTimeline.Absorb as it was before it took ownership of
// its input: every row copied, src left as it was.
func refAbsorb(pt *PointTimeline, src []Series, offset sim.Time) {
	for _, s := range src {
		dst := pt.series(s.Name, s.Kind)
		for _, smp := range s.Samples {
			smp.T += offset
			dst.Samples = append(dst.Samples, smp)
		}
		for _, q := range s.Quantiles {
			q.T += offset
			dst.Quantiles = append(dst.Quantiles, q)
		}
	}
}

// sampledEnv is one environment's sampler after a seeded run: counters and
// histograms, some registered late, over a few dozen ticks.
func sampledEnv(seed int64, names []string) *Sampler {
	rng := rand.New(rand.NewSource(seed))
	reg := NewRegistry()
	s := NewSampler(reg, sim.Millisecond)
	for tick := 1; tick <= 20+rng.Intn(20); tick++ {
		name := names[rng.Intn(len(names))]
		reg.Counter(name).Add(int64(rng.Intn(100)))
		reg.HiRes(name + ".ns").Observe(int64(rng.Intn(1_000_000)))
		s.Tick(sim.Time(tick) * sim.Millisecond)
	}
	return s
}

// TestPointTimelineAbsorbAdoptsRows: a point with one sampled environment
// keeps the sampler's row slices — nothing copied — and a point with two,
// whose series partly overlap, equals the copying reference row for row.
func TestPointTimelineAbsorbAdoptsRows(t *testing.T) {
	s := sampledEnv(1, []string{"a", "b"})
	src := s.Series()
	var pt PointTimeline
	pt.Absorb(src, 0)
	for i := range src {
		got, want := pt.series(src[i].Name, src[i].Kind), &src[i]
		if len(want.Samples) > 0 && &got.Samples[0] != &want.Samples[0] ||
			len(want.Quantiles) > 0 && &got.Quantiles[0] != &want.Quantiles[0] {
			t.Errorf("series %s/%s was copied, want the sampler's rows adopted", want.Name, want.Kind)
		}
	}

	for seed := int64(0); seed < 20; seed++ {
		envs := []*Sampler{sampledEnv(seed, []string{"a", "b"}), sampledEnv(seed+100, []string{"b", "c"})}
		offsets := []sim.Time{0, 45 * sim.Millisecond}
		want := PointTimeline{Experiment: "e", Point: "p", Every: sim.Millisecond}
		got := want
		for i, s := range envs {
			refAbsorb(&want, s.Series(), offsets[i])
		}
		for i, s := range envs {
			got.Absorb(s.Series(), offsets[i])
		}
		want.Finish()
		got.Finish()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: adopted timeline differs from the copying reference\ngot:  %+v\nwant: %+v", seed, got, want)
		}
	}
}

func timelineFixture() []PointTimeline {
	pt := PointTimeline{
		Experiment: "fig0", Point: "fig0/10us",
		Every: sim.Millisecond, TraceOffset: 2 * sim.Millisecond,
		Series: []Series{
			{Name: "wan.link.busy.ns", Kind: KindCounter, Samples: []Sample{
				{T: sim.Millisecond, V: 400_000}, {T: 2 * sim.Millisecond, V: 0},
			}},
			{Name: "lat.ns", Kind: KindHiRes, Quantiles: []QuantileSample{
				{T: sim.Millisecond, Count: 3, Sum: 600, P50: 150, P90: 280, P99: 310, P999: 312},
				{T: 2 * sim.Millisecond, Count: 0},
			}},
		},
	}
	pt.Finish()
	return []PointTimeline{pt}
}

func TestWriteTimelineJSONAndCSV(t *testing.T) {
	pts := timelineFixture()
	var js bytes.Buffer
	if err := WriteTimelineJSON(&js, sim.Millisecond, pts); err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Schema        string `json:"schema"`
		SampleEveryNS int64  `json:"sample_every_ns"`
		Points        []struct {
			Experiment string `json:"experiment"`
			Series     []struct {
				Name    string           `json:"name"`
				Kind    string           `json:"kind"`
				Samples []map[string]any `json:"samples"`
			} `json:"series"`
		} `json:"points"`
	}
	if err := json.Unmarshal(js.Bytes(), &rep); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if rep.Schema != TimelineSchema || rep.SampleEveryNS != 1_000_000 || len(rep.Points) != 1 {
		t.Fatalf("schema=%q every=%d points=%d", rep.Schema, rep.SampleEveryNS, len(rep.Points))
	}
	srs := rep.Points[0].Series
	if len(srs) != 3 { // lat.ns, busy, derived utilization — sorted by name
		t.Fatalf("series = %d, want 3", len(srs))
	}
	if srs[0].Name != "lat.ns" || srs[0].Samples[0]["p99"].(float64) != 310 {
		t.Errorf("hires row: %+v", srs[0].Samples[0])
	}
	if srs[1].Name != "wan.link.busy.ns" || srs[1].Samples[0]["rate_per_s"].(float64) != 400_000_000 {
		t.Errorf("counter row: %+v", srs[1].Samples[0])
	}
	if srs[2].Name != "wan.link.utilization.permille" || srs[2].Samples[0]["delta"].(float64) != 400 {
		t.Errorf("derived row: %+v", srs[2].Samples[0])
	}

	var csvBuf bytes.Buffer
	if err := WriteTimelineCSV(&csvBuf, sim.Millisecond, pts); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csvBuf.String()), "\n")
	if len(lines) != 7 { // header + 2 hires + 2 counter + 2 derived
		t.Fatalf("CSV lines = %d, want 7:\n%s", len(lines), csvBuf.String())
	}
	if !strings.HasPrefix(lines[0], "experiment,point,series,kind,t_ns,") {
		t.Errorf("CSV header = %q", lines[0])
	}
	if want := "fig0,fig0/10us,lat.ns,hires,1000000,,,3,600,150,280,310,312"; lines[1] != want {
		t.Errorf("CSV hires row = %q, want %q", lines[1], want)
	}
}

// TestWritePerfettoCountersGolden pins the counter-track encoding: the
// dedicated "timeline" process sorted above the span processes, C events
// after all metadata, hires series fanned into p50/p99/p999 sub-series,
// and sample times shifted by the point's TraceOffset.
func TestWritePerfettoCountersGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePerfettoTimeline(&buf, goldenRecorder(), timelineFixture()); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "perfetto_counters_golden.json")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("Perfetto counter export differs from %s (run with -update if intentional)\ngot:\n%s", golden, buf.String())
	}
}

func TestWritePerfettoCountersStructure(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePerfettoTimeline(&buf, goldenRecorder(), timelineFixture()); err != nil {
		t.Fatal(err)
	}
	var f struct {
		Events []struct {
			Name  string `json:"name"`
			Phase string `json:"ph"`
			TS    float64
			PID   int
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	var counters, data int
	tlPID, sortPID := -1, -1
	for _, e := range f.Events {
		switch e.Phase {
		case "M":
			if data > 0 {
				t.Error("metadata event after data events")
			}
			if e.Name == "process_name" && e.Args["name"] == "timeline" {
				tlPID = e.PID
			}
			if e.Name == "process_sort_index" {
				sortPID = e.PID
				if e.Args["sort_index"].(float64) != -1 {
					t.Errorf("sort_index = %v, want -1", e.Args["sort_index"])
				}
			}
		case "C":
			data++
			counters++
			if e.PID != tlPID {
				t.Errorf("counter %q on pid %d, want timeline pid %d", e.Name, e.PID, tlPID)
			}
			// TraceOffset (2ms) shifts the first sample (1ms) to 3ms = 3000us.
			if e.TS < 3000 {
				t.Errorf("counter %q at ts %v, want >= 3000 (offset applied)", e.Name, e.TS)
			}
		default:
			data++
		}
	}
	if tlPID < 0 || sortPID != tlPID {
		t.Fatalf("timeline process meta: pid=%d sort-index pid=%d", tlPID, sortPID)
	}
	// 3 series x 2 rows; the hires series' rows carry p50/p99/p999 in one
	// event each, counters a single value.
	if counters != 6 {
		t.Errorf("counter events = %d, want 6", counters)
	}
}

func TestMergeInto(t *testing.T) {
	src, dst := NewRegistry(), NewRegistry()
	src.Counter("a").Add(3)
	src.Counter("zero") // registered but never incremented: presence still merges
	src.HiRes("hr").Observe(20)
	dst.Counter("a").Add(1)
	dst.HiRes("hr").Observe(5)
	src.MergeInto(dst)
	if got := dst.Counter("a").Value(); got != 4 {
		t.Errorf("merged counter = %d, want 4", got)
	}
	if dst.Counter("zero").Value() != 0 {
		t.Error("zero counter should exist in dst after merge")
	}
	if h := dst.HiRes("hr"); h.Count() != 2 || h.Sum() != 25 {
		t.Errorf("merged histogram count/sum = %d/%d, want 2/25", h.Count(), h.Sum())
	}
	// Self-merge and nil-merge are no-ops, not double counts.
	dst.MergeInto(dst)
	src.MergeInto(nil)
	if got := dst.Counter("a").Value(); got != 4 {
		t.Errorf("self-merge changed counter to %d", got)
	}
}
