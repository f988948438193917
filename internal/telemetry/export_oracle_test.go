package telemetry

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"repro/internal/sim"
)

// The encoding/json exporters this package shipped before the streaming
// writers, kept verbatim as reference oracles: the trace and timeline
// formats are frozen byte-for-byte, and the differential tests below hold
// the streaming writers to these on hostile inputs.

type traceEventArgs struct {
	Name   string  `json:"name,omitempty"`
	ID     int64   `json:"id,omitempty"`
	Parent int64   `json:"parent,omitempty"`
	Depth  int32   `json:"depth,omitempty"`
	Msg    int64   `json:"msg,omitempty"`
	Wire   int     `json:"wire,omitempty"`
	Reason string  `json:"reason,omitempty"`
	SortIx float64 `json:"sort_index,omitempty"`
}

type traceEvent struct {
	Name  string          `json:"name"`
	Phase string          `json:"ph"`
	TS    float64         `json:"ts"`            // microseconds
	Dur   float64         `json:"dur,omitempty"` // microseconds
	PID   int             `json:"pid"`
	TID   int             `json:"tid"`
	Scope string          `json:"s,omitempty"` // instant scope
	Args  *traceEventArgs `json:"args,omitempty"`
}

// counterEvent is a Chrome trace-event "C" counter sample. Counter tracks
// are per-process (no tid); the args map's keys become sub-series of the
// rendered graph, and encoding/json emits map keys sorted, so the output
// stays deterministic.
type counterEvent struct {
	Name  string             `json:"name"`
	Phase string             `json:"ph"`
	TS    float64            `json:"ts"` // microseconds
	PID   int                `json:"pid"`
	Args  map[string]float64 `json:"args"`
}

type traceFile struct {
	Events          []any  `json:"traceEvents"`
	DisplayTimeUnit string `json:"displayTimeUnit"`
}

// traceSource is what the reference exporter reads from a recorder: the
// Recorder, or the ring-backed one of recorder_ref_test.go.
type traceSource interface {
	Tracks() [][2]string
	Spans() []Span
	Instants() []Instant
}

// refMicros converts sim time (ns) to trace-event microseconds.
func refMicros(ns int64) float64 { return float64(ns) / 1000.0 }

func refWritePerfettoTimeline(w io.Writer, r traceSource, pts []PointTimeline) error {
	tracks := r.Tracks()
	// Assign one pid per distinct process name, in first-appearance order,
	// and one tid per track within its process.
	pidOf := make(map[string]int)
	var procs []string
	tidOf := make([]int, len(tracks))
	trackPID := make([]int, len(tracks))
	nextTID := make(map[string]int)
	for i, tk := range tracks {
		proc := tk[0]
		pid, ok := pidOf[proc]
		if !ok {
			pid = len(procs) + 1
			pidOf[proc] = pid
			procs = append(procs, proc)
		}
		nextTID[proc]++
		trackPID[i] = pid
		tidOf[i] = nextTID[proc]
	}

	spans := r.Spans()
	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		return spans[i].ID < spans[j].ID
	})
	instants := r.Instants()
	sort.SliceStable(instants, func(i, j int) bool {
		return instants[i].Time < instants[j].Time
	})

	events := make([]any, 0, 2*len(tracks)+len(spans)+len(instants))
	for i, proc := range procs {
		events = append(events, traceEvent{
			Name: "process_name", Phase: "M", PID: i + 1,
			Args: &traceEventArgs{Name: proc},
		})
	}
	tlPID := 0
	if hasSamples(pts) {
		// The timeline process hosts every counter track; sort_index -1
		// pins it above the (default-sorted) span processes.
		tlPID = len(procs) + 1
		events = append(events, traceEvent{
			Name: "process_name", Phase: "M", PID: tlPID,
			Args: &traceEventArgs{Name: "timeline"},
		})
		events = append(events, traceEvent{
			Name: "process_sort_index", Phase: "M", PID: tlPID,
			Args: &traceEventArgs{SortIx: -1},
		})
	}
	for i, tk := range tracks {
		events = append(events, traceEvent{
			Name: "thread_name", Phase: "M", PID: trackPID[i], TID: tidOf[i],
			Args: &traceEventArgs{Name: tk[1]},
		})
	}
	for _, s := range spans {
		tid, pid := 0, 0
		if int(s.Track) < len(tracks) {
			tid, pid = tidOf[s.Track], trackPID[s.Track]
		}
		events = append(events, traceEvent{
			Name: s.Name, Phase: "X",
			TS: refMicros(int64(s.Start)), Dur: refMicros(int64(s.End - s.Start)),
			PID: pid, TID: tid,
			Args: &traceEventArgs{ID: s.ID, Parent: s.Parent, Depth: s.Depth},
		})
	}
	for _, in := range instants {
		tid, pid := 0, 0
		if int(in.Track) < len(tracks) {
			tid, pid = tidOf[in.Track], trackPID[in.Track]
		}
		ev := traceEvent{
			Name: in.Name, Phase: "i", TS: refMicros(int64(in.Time)),
			PID: pid, TID: tid, Scope: "t",
		}
		if in.Msg != 0 || in.Wire != 0 || in.Reason != "" {
			ev.Args = &traceEventArgs{Msg: in.Msg, Wire: in.Wire, Reason: in.Reason}
		}
		events = append(events, ev)
	}
	if tlPID != 0 {
		for pi := range pts {
			pt := &pts[pi]
			off := int64(pt.TraceOffset)
			for si := range pt.Series {
				s := &pt.Series[si]
				for _, smp := range s.Samples {
					events = append(events, counterEvent{
						Name: s.Name, Phase: "C", TS: refMicros(int64(smp.T) + off), PID: tlPID,
						Args: map[string]float64{"value": float64(smp.V)},
					})
				}
				for _, q := range s.Quantiles {
					events = append(events, counterEvent{
						Name: s.Name, Phase: "C", TS: refMicros(int64(q.T) + off), PID: tlPID,
						Args: map[string]float64{"p50": q.P50, "p99": q.P99, "p999": q.P999},
					})
				}
			}
		}
	}

	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(traceFile{Events: events, DisplayTimeUnit: "ns"})
}

type timelineJSON struct {
	Schema        string              `json:"schema"`
	SampleEveryNS int64               `json:"sample_every_ns"`
	Points        []pointTimelineJSON `json:"points"`
}

type pointTimelineJSON struct {
	Experiment string       `json:"experiment"`
	Point      string       `json:"point"`
	Series     []seriesJSON `json:"series"`
}

type seriesJSON struct {
	Name    string `json:"name"`
	Kind    string `json:"kind"`
	Samples []any  `json:"samples"`
}

type counterSampleJSON struct {
	TNS      int64   `json:"t_ns"`
	Delta    int64   `json:"delta"`
	RatePerS float64 `json:"rate_per_s"`
}

type quantileSampleJSON struct {
	TNS   int64   `json:"t_ns"`
	Count int64   `json:"count"`
	Sum   int64   `json:"sum"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
	P999  float64 `json:"p999"`
}

func refWriteTimelineJSON(w io.Writer, every sim.Time, pts []PointTimeline) error {
	rep := timelineJSON{Schema: TimelineSchema, SampleEveryNS: int64(every), Points: make([]pointTimelineJSON, 0, len(pts))}
	for i := range pts {
		pt := &pts[i]
		jp := pointTimelineJSON{Experiment: pt.Experiment, Point: pt.Point, Series: make([]seriesJSON, 0, len(pt.Series))}
		ev := pt.Every
		if ev <= 0 {
			ev = every
		}
		for j := range pt.Series {
			s := &pt.Series[j]
			js := seriesJSON{Name: s.Name, Kind: s.Kind, Samples: make([]any, 0, len(s.Samples)+len(s.Quantiles))}
			for _, smp := range s.Samples {
				row := counterSampleJSON{TNS: int64(smp.T), Delta: smp.V}
				if ev > 0 {
					row.RatePerS = float64(smp.V) / ev.Seconds()
				}
				js.Samples = append(js.Samples, row)
			}
			for _, q := range s.Quantiles {
				js.Samples = append(js.Samples, quantileSampleJSON{
					TNS: int64(q.T), Count: q.Count, Sum: q.Sum,
					P50: q.P50, P90: q.P90, P99: q.P99, P999: q.P999,
				})
			}
			jp.Series = append(jp.Series, js)
		}
		rep.Points = append(rep.Points, jp)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// hostileStrings are names, reasons and track names exercising every string
// path: the plain-ASCII fast path, each character encoding/json escapes, and
// bytes it replaces.
var hostileStrings = []string{
	"", "plain", "tx data", "verbs.send", `quo"te`, `back\slash`, "<tag>", "a&b", "x>y",
	"ctl\x01\n\t\r", "del\x7f", "ünïcode", "日本語", "bad\xff\xfeutf8", "sep\u2028\u2029", "\x00",
}

func pick(rng *rand.Rand, ss []string) string { return ss[rng.Intn(len(ss))] }

// bigTimes straddle the bound below which micros writes integer digits
// (2^42 ns) and reach where a float64 of microseconds no longer holds every
// nanosecond.
var bigTimes = []sim.Time{microsExact - 1_000_001, microsExact - 1, microsExact, microsExact + 1, 1 << 53, 1 << 60}

func pickTime(rng *rand.Rand) sim.Time { return bigTimes[rng.Intn(len(bigTimes))] }

// randomRecorder builds a recorder from a seeded program of track
// registrations, nested / zero-duration / one-shot spans, instants with and
// without args, epoch advances (some past 2^42 ns), spans on a track the
// recorder never registered, and spans left open at export. Seed 0 is the
// empty recorder.
func randomRecorder(seed int64) *Recorder {
	rng := rand.New(rand.NewSource(seed))
	r := NewRecorder(0, rng.Intn(4))
	if seed == 0 {
		return r
	}
	var tracks []TrackID
	for i, n := 0, 1+rng.Intn(6); i < n; i++ {
		tracks = append(tracks, r.Track(pick(rng, hostileStrings), pick(rng, hostileStrings)))
	}
	tracks = append(tracks, TrackID(len(tracks)+7)) // out of range: exports as pid/tid 0
	var open []SpanRef
	now := sim.Time(0) // the first records land on ts = 0
	for i, n := 0, rng.Intn(120); i < n; i++ {
		tk := tracks[rng.Intn(len(tracks))]
		switch rng.Intn(7) {
		case 0, 1:
			parent := NoSpan
			if len(open) > 0 && rng.Intn(2) == 0 {
				parent = open[rng.Intn(len(open))]
			}
			open = append(open, r.StartAt(now, tk, pick(rng, hostileStrings), parent))
		case 2:
			if len(open) > 0 {
				k := rng.Intn(len(open))
				r.EndAt(now, open[k]) // may be zero-duration
				open = append(open[:k], open[k+1:]...)
			}
		case 3:
			r.RecordAt(now, now+sim.Time(rng.Intn(3))*sim.Time(rng.Intn(5000)), tk, pick(rng, hostileStrings), NoSpan)
		case 4:
			r.AddInstant(Instant{Time: now, Track: tk, Name: pick(rng, hostileStrings)})
		case 5:
			r.AddInstant(Instant{
				Time: now, Track: tk, Name: pick(rng, hostileStrings),
				Msg: int64(rng.Intn(3)), Wire: rng.Intn(3) * 1024, Reason: pick(rng, hostileStrings),
			})
		case 6:
			d := sim.Time(rng.Intn(1_000_000))
			if r.Offset() < microsExact && rng.Intn(3) == 0 {
				d = pickTime(rng)
			}
			r.Advance(d)
			now = 0
		}
		if rng.Intn(3) > 0 {
			now += sim.Time(rng.Intn(100_000))
		}
	}
	return r
}

// hostileFloats hit both of encoding/json's 'e' ranges (with one- and
// two-digit exponents), their boundaries, negatives and negative zero.
var hostileFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.5, 1234.5678, 1e-6, 9.99e-7, 1e-7, -3e-9, 2.5e-10, 5e-324,
	1e20, 9.99e20, 1e21, -1e21, 1.5e22, 1e100, math.MaxFloat64, 1.0 / 3,
}

// randomTimelines builds point timelines from a seeded program: no points
// (nil and empty), points without series, series without rows, series
// carrying both row kinds, intervals long enough that rates drop below 1e-6,
// trace offsets past 2^42 ns.
func randomTimelines(seed int64) (sim.Time, []PointTimeline) {
	rng := rand.New(rand.NewSource(seed))
	everies := []sim.Time{0, sim.Millisecond, 7, sim.Second * 10_000_000}
	every := everies[rng.Intn(len(everies))]
	if seed == 0 {
		return every, nil
	}
	pts := make([]PointTimeline, rng.Intn(4))
	f := func() float64 { return hostileFloats[rng.Intn(len(hostileFloats))] }
	for i := range pts {
		pt := &pts[i]
		pt.Experiment, pt.Point = pick(rng, hostileStrings), pick(rng, hostileStrings)
		pt.Every = everies[rng.Intn(len(everies))]
		pt.TraceOffset = sim.Time(rng.Intn(2)) * sim.Time(rng.Intn(1_000_000))
		if rng.Intn(3) == 0 {
			pt.TraceOffset = pickTime(rng)
		}
		for si, n := 0, rng.Intn(4); si < n; si++ {
			s := Series{Name: pick(rng, hostileStrings), Kind: []string{KindCounter, KindHiRes, KindDerived}[rng.Intn(3)]}
			for k, rows := 0, rng.Intn(3)*rng.Intn(6); k < rows; k++ {
				s.Samples = append(s.Samples, Sample{T: sim.Time(k) * sim.Millisecond, V: rng.Int63n(1_000_000) - 1000})
			}
			for k, rows := 0, rng.Intn(3)*rng.Intn(6); k < rows; k++ {
				s.Quantiles = append(s.Quantiles, QuantileSample{
					T: sim.Time(k) * sim.Millisecond, Count: rng.Int63n(50), Sum: rng.Int63(),
					P50: f(), P90: f(), P99: f(), P999: f(),
				})
			}
			pt.Series = append(pt.Series, s)
		}
	}
	return every, pts
}

// firstDiff locates the first differing byte for a readable failure.
func firstDiff(got, want []byte) (int, string, string) {
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	lo := max(i-60, 0)
	return i, string(got[lo:min(i+60, len(got))]), string(want[lo:min(i+60, len(want))])
}

func TestPerfettoMatchesEncodingJSON(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		r := randomRecorder(seed)
		_, pts := randomTimelines(seed + 1000)
		if seed%4 == 3 {
			pts = nil // the nil-pts path: no counter process
		}
		var got, want bytes.Buffer
		if err := WritePerfettoTimeline(&got, r, pts); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := refWritePerfettoTimeline(&want, r, pts); err != nil {
			t.Fatalf("seed %d: reference: %v", seed, err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			at, g, w := firstDiff(got.Bytes(), want.Bytes())
			t.Fatalf("seed %d: trace differs from encoding/json at byte %d\ngot:  %q\nwant: %q", seed, at, g, w)
		}
	}
}

func TestTimelineJSONMatchesEncodingJSON(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		every, pts := randomTimelines(seed)
		var got, want bytes.Buffer
		if err := WriteTimelineJSON(&got, every, pts); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := refWriteTimelineJSON(&want, every, pts); err != nil {
			t.Fatalf("seed %d: reference: %v", seed, err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			at, g, w := firstDiff(got.Bytes(), want.Bytes())
			t.Fatalf("seed %d: timeline differs from encoding/json at byte %d\ngot:  %q\nwant: %q", seed, at, g, w)
		}
	}
}

// manyRows is a recorder and a timeline of n spans, n instants and n rows:
// several buffers' worth of output at n = 10 000.
func manyRows(n int) (*Recorder, []PointTimeline) {
	r := NewRecorder(0, 0)
	tk := r.Track("node", "verbs")
	for i := 0; i < n; i++ {
		r.RecordAt(sim.Time(i)*1000, sim.Time(i)*1000+750, tk, "verbs.send", NoSpan)
		r.AddInstant(Instant{Time: sim.Time(i) * 1000, Track: tk, Name: "tx data", Msg: int64(i), Wire: 2048})
	}
	pt := PointTimeline{Experiment: "fig0", Point: "fig0/10us", Every: sim.Millisecond}
	c := Series{Name: "pkts", Kind: KindCounter}
	h := Series{Name: "lat.ns", Kind: KindHiRes}
	for i := 0; i < n/2; i++ {
		c.Samples = append(c.Samples, Sample{T: sim.Time(i) * sim.Millisecond, V: int64(i)})
		h.Quantiles = append(h.Quantiles, QuantileSample{T: sim.Time(i) * sim.Millisecond, Count: 3, Sum: 600, P50: 150.5, P90: 280, P99: 310, P999: 312})
	}
	pt.Series = []Series{h, c}
	return r, []PointTimeline{pt}
}

var errDiskFull = errors.New("disk full")

// failAfter accepts n bytes, then fails every write.
type failAfter struct{ n int }

func (f *failAfter) Write(p []byte) (int, error) {
	if len(p) > f.n {
		n := f.n
		f.n = 0
		return n, errDiskFull
	}
	f.n -= len(p)
	return len(p), nil
}

// TestExportWriteError: a writer that fails — at once, inside the first
// buffer, or several flushes in — surfaces as the export's error; a
// truncated file is never reported as written. Values with no JSON form
// fail the export too, as they failed json.Marshal.
func TestExportWriteError(t *testing.T) {
	r, pts := manyRows(2000)
	var full bytes.Buffer
	if err := WritePerfettoTimeline(&full, r, pts); err != nil {
		t.Fatal(err)
	}
	if full.Len() < 4*jsonBufSize {
		t.Fatalf("fixture exports %d bytes, want several buffers", full.Len())
	}
	for _, n := range []int{0, 100, jsonBufSize + 1, 3 * jsonBufSize, full.Len() - 1} {
		if err := WritePerfettoTimeline(&failAfter{n}, r, pts); !errors.Is(err, errDiskFull) {
			t.Errorf("trace export, writer failing after %d bytes: err = %v", n, err)
		}
	}
	full.Reset()
	if err := WriteTimelineJSON(&full, sim.Millisecond, pts); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 100, jsonBufSize + 1, full.Len() - 1} {
		if err := WriteTimelineJSON(&failAfter{n}, sim.Millisecond, pts); !errors.Is(err, errDiskFull) {
			t.Errorf("timeline export, writer failing after %d bytes: err = %v", n, err)
		}
	}

	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		bad := []PointTimeline{{Series: []Series{{Name: "lat.ns", Kind: KindHiRes, Quantiles: []QuantileSample{{P99: v}}}}}}
		if err := WritePerfettoTimeline(io.Discard, NewRecorder(0, 0), bad); err == nil {
			t.Errorf("trace export of %v: no error", v)
		}
		if err := WriteTimelineJSON(io.Discard, sim.Millisecond, bad); err == nil {
			t.Errorf("timeline export of %v: no error", v)
		}
	}
}

// TestExportAllocsIndependentOfRows pins the streaming property: an export
// allocates a sort permutation, the buffer and a handful of fixed-size
// helpers — the same number at 1 000 rows as at 10 000, where the
// encoding/json exporters allocated three and more per row. In bytes, a
// trace costs at most 8 per retained record beyond the buffer: records are
// written from the recorder's storage in place, where sorted copies cost 64.
func TestExportAllocsIndependentOfRows(t *testing.T) {
	allocs := func(n int) (trace, timeline float64) {
		r, pts := manyRows(n)
		trace = testing.AllocsPerRun(5, func() {
			if err := WritePerfettoTimeline(io.Discard, r, pts); err != nil {
				t.Fatal(err)
			}
		})
		timeline = testing.AllocsPerRun(5, func() {
			if err := WriteTimelineJSON(io.Discard, sim.Millisecond, pts); err != nil {
				t.Fatal(err)
			}
		})
		return trace, timeline
	}
	trSmall, tlSmall := allocs(1000)
	trLarge, tlLarge := allocs(10_000)
	t.Logf("allocs/export at 1 000 → 10 000 rows: trace %.0f → %.0f, timeline %.0f → %.0f", trSmall, trLarge, tlSmall, tlLarge)
	if trLarge != trSmall || tlLarge != tlSmall {
		t.Errorf("allocations grow with rows: trace %.0f → %.0f, timeline %.0f → %.0f", trSmall, trLarge, tlSmall, tlLarge)
	}
	if trLarge > 24 || tlLarge > 2 {
		t.Errorf("allocs/export = %.0f trace, %.0f timeline; budgets 24 and 2", trLarge, tlLarge)
	}

	r, pts := manyRows(10_000)
	retained := r.SpanCount() + r.InstantCount()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := WritePerfettoTimeline(io.Discard, r, pts); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("trace export of %d records allocated %d B", retained, got)
	if budget := uint64(8*retained + jsonBufSize); got > budget {
		t.Errorf("trace export of %d records allocated %d B, want <= %d (8 B a record + the buffer)", retained, got, budget)
	}
}

// countWriter measures an export's size for b.SetBytes.
type countWriter struct{ n int64 }

func (c *countWriter) Write(p []byte) (int, error) { c.n += int64(len(p)); return len(p), nil }

func BenchmarkExportPerfetto(b *testing.B) {
	r, pts := manyRows(10_000)
	var size countWriter
	if err := WritePerfettoTimeline(&size, r, pts); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(size.n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WritePerfettoTimeline(io.Discard, r, pts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExportTimeline(b *testing.B) {
	_, pts := manyRows(10_000)
	var size countWriter
	if err := WriteTimelineJSON(&size, sim.Millisecond, pts); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(size.n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteTimelineJSON(io.Discard, sim.Millisecond, pts); err != nil {
			b.Fatal(err)
		}
	}
}
