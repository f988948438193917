package telemetry

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden fixtures")

// goldenRecorder builds a tiny two-process trace exercising every exporter
// feature: process/track metadata, nested spans, a cross-epoch span, and
// instants with and without args.
func goldenRecorder() *Recorder {
	r := NewRecorder(0, 0)
	verbs := r.Track("nodeA-0", "verbs")
	wire := r.Track("nodeA-0", "wire")
	wan := r.Track("wan-A", "wan-queue")
	mpi := r.Track("nodeA-0", "mpi-rank-0")

	coll := r.StartAt(0, mpi, "coll.bcast", NoSpan)
	snd := r.StartAt(1000, mpi, "mpi.rndv", coll)
	v := r.StartAt(1500, verbs, "verbs.send", snd)
	r.AddInstant(Instant{Time: 2000, Track: wire, Name: "tx data", Msg: 1, Wire: 2048})
	r.RecordAt(2100, 4100, wan, "wan.xmit", v)
	r.AddInstant(Instant{Time: 4100, Track: wire, Name: "rx data", Msg: 1, Wire: 2048})
	r.EndAt(5000, v)
	r.EndAt(5200, snd)
	r.EndAt(6000, coll)
	r.AddInstant(Instant{Time: 6500, Track: wire, Name: "drop data", Msg: 2, Wire: 256, Reason: "fault"})
	r.Advance(10000)
	// Second measurement point, stacked after the first; its span is left
	// open so the exporter closes it at the latest observed time.
	r.StartAt(0, mpi, "mpi.eager", NoSpan)
	r.AddInstant(Instant{Time: 400, Track: wire, Name: "tx data"})
	return r
}

func TestWritePerfettoGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePerfettoTimeline(&buf, goldenRecorder(), nil); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "perfetto_golden.json")
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
		t.Errorf("Perfetto export differs from %s (run with -update if intentional)\ngot:\n%s", golden, buf.String())
	}
}

// TestWritePerfettoStructure validates exporter invariants independent of
// the golden bytes: valid JSON, metadata before slices, ids resolvable.
func TestWritePerfettoStructure(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePerfettoTimeline(&buf, goldenRecorder(), nil); err != nil {
		t.Fatal(err)
	}
	var f struct {
		Events []struct {
			Name  string `json:"name"`
			Phase string `json:"ph"`
			TS    float64
			Dur   float64
			PID   int
			TID   int
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if f.DisplayTimeUnit != "ns" {
		t.Errorf("displayTimeUnit = %q", f.DisplayTimeUnit)
	}
	ids := map[float64]string{}
	var spans, instants, meta int
	for _, e := range f.Events {
		switch e.Phase {
		case "M":
			meta++
			if spans+instants > 0 {
				t.Error("metadata event after data events")
			}
		case "X":
			spans++
			id, _ := e.Args["id"].(float64)
			ids[id] = e.Name
		case "i":
			instants++
		default:
			t.Errorf("unexpected phase %q", e.Phase)
		}
	}
	// 2 processes + 4 tracks of metadata; 5 spans (4 completed + 1
	// auto-closed); 4 instants.
	if meta != 6 || spans != 5 || instants != 4 {
		t.Errorf("meta/spans/instants = %d/%d/%d, want 6/5/4", meta, spans, instants)
	}
	for _, e := range f.Events {
		if e.Phase != "X" {
			continue
		}
		if p, ok := e.Args["parent"].(float64); ok && p != 0 {
			if _, known := ids[p]; !known {
				t.Errorf("span %q has unresolvable parent %v", e.Name, p)
			}
		}
	}
}

func TestMetricsDump(t *testing.T) {
	r := NewRegistry()
	r.Counter("a.count").Add(42)
	r.Counter("b.count").Add(7)
	h := r.HiRes("c.hist")
	h.Observe(1)
	h.Observe(900)
	var js bytes.Buffer
	if err := WriteMetricsJSON(&js, r); err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Schema  string `json:"schema"`
		Metrics []struct {
			Name, Kind string
			Value      int64
			Count      int64
			Buckets    []struct{ Lo, Hi, Count int64 }
		} `json:"metrics"`
	}
	if err := json.Unmarshal(js.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Schema != "ibwan-metrics/v1" || len(rep.Metrics) != 3 {
		t.Fatalf("schema=%q metrics=%d", rep.Schema, len(rep.Metrics))
	}
	if rep.Metrics[0].Name != "a.count" || rep.Metrics[0].Value != 42 {
		t.Errorf("first metric = %+v", rep.Metrics[0])
	}
	if got := rep.Metrics[2]; got.Kind != "hires" || got.Count != 2 || len(got.Buckets) != 2 ||
		got.Buckets[1] != (struct{ Lo, Hi, Count int64 }{896, 928, 1}) {
		t.Errorf("histogram snapshot = %+v", got)
	}
	var txt bytes.Buffer
	if err := WriteMetricsText(&txt, r); err != nil {
		t.Fatal(err)
	}
	out := txt.String()
	for _, want := range []string{"counter", "a.count", "42", "b.count", "7", "hires", "count=2", "p50=2", "p99=928"} {
		if !strings.Contains(out, want) {
			t.Errorf("text dump missing %q:\n%s", want, out)
		}
	}
}
