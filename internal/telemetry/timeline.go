package telemetry

import (
	"encoding/csv"
	"io"
	"sort"
	"strconv"

	"repro/internal/sim"
)

// Timelines: the deterministic time-series store filled by Samplers, one
// PointTimeline per measurement point, and its exporters — a versioned
// JSON/CSV schema ("ibwan-timeline/v1") and Perfetto counter tracks (see
// perfetto.go). A timeline is a pure function of the simulation, so its
// serialized bytes are identical at any -par / -shards combination
// (regression-enforced in internal/core).

// TimelineSchema is the versioned identifier of the JSON timeline dump.
const TimelineSchema = "ibwan-timeline/v1"

// Series kinds.
const (
	KindCounter = "counter" // Samples: per-interval counter deltas
	KindHiRes   = "hires"   // Quantiles: per-interval quantile rows
	KindDerived = "derived" // Samples: values computed at export time
)

// Sample is one counter or derived-series row: the per-interval delta (or
// derived value) at sim time T.
type Sample struct {
	T sim.Time
	V int64
}

// QuantileSample is one hires-histogram row: per-interval observation count
// and sum plus interpolated quantile estimates at sim time T.
type QuantileSample struct {
	T     sim.Time
	Count int64
	Sum   int64
	P50   float64
	P90   float64
	P99   float64
	P999  float64
}

// Series is one named metric's timeline within a point.
type Series struct {
	Name      string
	Kind      string
	Samples   []Sample         // counter / derived kinds
	Quantiles []QuantileSample // hires kind
}

// PointTimeline is the sampled timeline of one measurement point. A point
// that builds several environments (warmup + measured run) stacks their
// series end to end, each environment's samples shifted by the virtual time
// its predecessors consumed — mirroring how the span recorder stacks point
// epochs.
type PointTimeline struct {
	Experiment string
	Point      string
	Every      sim.Time
	// TraceOffset is the span recorder's epoch offset at the moment the
	// point started (0 without span recording); the Perfetto exporter adds
	// it so counter tracks line up under the point's spans.
	TraceOffset sim.Time
	Series      []Series
}

// Absorb merges src series into the timeline, shifting every sample time by
// offset. Series with the same (name, kind) append — offsets are monotonic
// across a point's environments, so times stay nondecreasing.
//
// Absorb takes ownership of src's row slices: their times are shifted in
// place, and a row slice landing in an empty destination is kept rather
// than copied. The caller must not use src — or the Sampler whose Series it
// came from — afterwards.
func (pt *PointTimeline) Absorb(src []Series, offset sim.Time) {
	for _, s := range src {
		for i := range s.Samples {
			s.Samples[i].T += offset
		}
		for i := range s.Quantiles {
			s.Quantiles[i].T += offset
		}
		dst := pt.series(s.Name, s.Kind)
		dst.Samples = adopt(dst.Samples, s.Samples)
		dst.Quantiles = adopt(dst.Quantiles, s.Quantiles)
	}
}

// adopt appends src to dst, or returns src itself when dst is empty.
func adopt[T any](dst, src []T) []T {
	if len(dst) == 0 && len(src) > 0 {
		return src
	}
	return append(dst, src...)
}

// series finds or appends the (name, kind) series.
func (pt *PointTimeline) series(name, kind string) *Series {
	for i := range pt.Series {
		if pt.Series[i].Name == name && pt.Series[i].Kind == kind {
			return &pt.Series[i]
		}
	}
	pt.Series = append(pt.Series, Series{Name: name, Kind: kind})
	return &pt.Series[len(pt.Series)-1]
}

// Finish derives export-time series and sorts the set by (name, kind). The
// one derived series today is WAN link utilization: the deterministic
// wan.link.busy.ns counter (cumulative serialization time across WAN ports)
// divided by the sampling interval, in permille. On topologies with several
// WAN links the value aggregates all ports and can exceed 1000.
func (pt *PointTimeline) Finish() {
	if pt.Every > 0 {
		for i := range pt.Series {
			s := &pt.Series[i]
			if s.Name != "wan.link.busy.ns" || s.Kind != KindCounter {
				continue
			}
			d := Series{Name: "wan.link.utilization.permille", Kind: KindDerived}
			d.Samples = make([]Sample, len(s.Samples))
			for j, smp := range s.Samples {
				d.Samples[j] = Sample{T: smp.T, V: smp.V * 1000 / int64(pt.Every)}
			}
			pt.Series = append(pt.Series, d)
			break
		}
	}
	sort.Slice(pt.Series, func(i, j int) bool {
		if pt.Series[i].Name != pt.Series[j].Name {
			return pt.Series[i].Name < pt.Series[j].Name
		}
		return pt.Series[i].Kind < pt.Series[j].Kind
	})
}

// SampleCount returns the total number of rows across the point's series.
func (pt *PointTimeline) SampleCount() int {
	n := 0
	for i := range pt.Series {
		n += len(pt.Series[i].Samples) + len(pt.Series[i].Quantiles)
	}
	return n
}

// WriteTimelineJSON dumps the point timelines as "ibwan-timeline/v1" JSON.
// Counter and derived rows carry {t_ns, delta, rate_per_s}; hires rows
// {t_ns, count, sum, p50, p90, p99, p999}. Rows stream through a jsonWriter
// at two spaces of indentation per level.
func WriteTimelineJSON(w io.Writer, every sim.Time, pts []PointTimeline) error {
	j := newJSONWriter(w)
	j.raw("{\n  \"schema\": ")
	j.str(TimelineSchema)
	j.raw(",\n  \"sample_every_ns\": ")
	j.int(int64(every))
	j.raw(",\n  \"points\": [")
	for i := range pts {
		pt := &pts[i]
		ev := pt.Every
		if ev <= 0 {
			ev = every
		}
		if i > 0 {
			j.raw(",")
		}
		j.raw("\n    {\n      \"experiment\": ")
		j.str(pt.Experiment)
		j.raw(",\n      \"point\": ")
		j.str(pt.Point)
		j.raw(",\n      \"series\": [")
		for si := range pt.Series {
			s := &pt.Series[si]
			if si > 0 {
				j.raw(",")
			}
			j.raw("\n        {\n          \"name\": ")
			j.str(s.Name)
			j.raw(",\n          \"kind\": ")
			j.str(s.Kind)
			j.raw(",\n          \"samples\": [")
			rows := 0
			row := func(t sim.Time) {
				if rows > 0 {
					j.raw(",")
				}
				rows++
				j.raw("\n            {\n              \"t_ns\": ")
				j.int(int64(t))
			}
			for _, smp := range s.Samples {
				row(smp.T)
				j.raw(",\n              \"delta\": ")
				j.int(smp.V)
				j.raw(",\n              \"rate_per_s\": ")
				rate := 0.0
				if ev > 0 {
					rate = float64(smp.V) / ev.Seconds()
				}
				j.float(rate)
				j.raw("\n            }")
				j.rowDone()
			}
			for qi := range s.Quantiles {
				q := &s.Quantiles[qi]
				row(q.T)
				j.raw(",\n              \"count\": ")
				j.int(q.Count)
				j.raw(",\n              \"sum\": ")
				j.int(q.Sum)
				j.raw(",\n              \"p50\": ")
				j.float(q.P50)
				j.raw(",\n              \"p90\": ")
				j.float(q.P90)
				j.raw(",\n              \"p99\": ")
				j.float(q.P99)
				j.raw(",\n              \"p999\": ")
				j.float(q.P999)
				j.raw("\n            }")
				j.rowDone()
			}
			if rows > 0 {
				j.raw("\n          ")
			}
			j.raw("]\n        }")
		}
		if len(pt.Series) > 0 {
			j.raw("\n      ")
		}
		j.raw("]\n    }")
	}
	if len(pts) > 0 {
		j.raw("\n  ")
	}
	j.raw("]\n}\n")
	return j.finish()
}

// WriteTimelineCSV dumps the point timelines as one flat CSV: one row per
// sample, kind-specific columns left empty where they do not apply.
func WriteTimelineCSV(w io.Writer, every sim.Time, pts []PointTimeline) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"experiment", "point", "series", "kind", "t_ns",
		"value", "rate_per_s", "count", "sum", "p50", "p90", "p99", "p999",
	}); err != nil {
		return err
	}
	ffloat := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	fint := func(v int64) string { return strconv.FormatInt(v, 10) }
	for i := range pts {
		pt := &pts[i]
		ev := pt.Every
		if ev <= 0 {
			ev = every
		}
		for j := range pt.Series {
			s := &pt.Series[j]
			for _, smp := range s.Samples {
				rate := ""
				if ev > 0 {
					rate = ffloat(float64(smp.V) / ev.Seconds())
				}
				if err := cw.Write([]string{
					pt.Experiment, pt.Point, s.Name, s.Kind, fint(int64(smp.T)),
					fint(smp.V), rate, "", "", "", "", "", "",
				}); err != nil {
					return err
				}
			}
			for _, q := range s.Quantiles {
				if err := cw.Write([]string{
					pt.Experiment, pt.Point, s.Name, s.Kind, fint(int64(q.T)),
					"", "", fint(q.Count), fint(q.Sum),
					ffloat(q.P50), ffloat(q.P90), ffloat(q.P99), ffloat(q.P999),
				}); err != nil {
					return err
				}
			}
		}
	}
	cw.Flush()
	return cw.Error()
}
