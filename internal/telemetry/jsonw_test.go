package telemetry

import (
	"encoding/json"
	"math"
	"testing"
)

// FuzzNumberFormat holds the exporters' number paths to encoding/json:
// micros(ns) must write what float writes for float64(ns)/1000 and what
// json.Marshal writes for it, and float must write json.Marshal's bytes for
// float64(ns) and for v, which covers its integral path and -0. The seeds
// straddle micros' 2^42 ns bound and float's 2^53 one, and ±2^60 lies where
// the exact decimal and the float's shortest digits part.
func FuzzNumberFormat(f *testing.F) {
	for _, ns := range []int64{
		0, 1, -1, 999, -999, 1000, -1000,
		1<<42 - 1, -(1<<42 - 1), 1<<42 + 1, -(1<<42 + 1),
		1 << 60, -1 << 60, math.MinInt64, math.MaxInt64,
		1 << 53, -1 << 53, 1<<53 + 2, -(1<<53 + 2),
	} {
		f.Add(ns, float64(ns))
	}
	f.Add(int64(0), math.Copysign(0, -1))
	f.Fuzz(func(t *testing.T, ns int64, v float64) {
		write := func(do func(j *jsonWriter)) string {
			j := newJSONWriter(nil)
			do(j)
			if j.err != nil {
				return "error"
			}
			return string(j.buf)
		}
		marshal := func(v float64) string {
			b, err := json.Marshal(v)
			if err != nil {
				return "error"
			}
			return string(b)
		}
		us := float64(ns) / 1000
		got := write(func(j *jsonWriter) { j.micros(ns) })
		if want := write(func(j *jsonWriter) { j.float(us) }); got != want {
			t.Errorf("micros(%d) = %s, float(%v) = %s", ns, got, us, want)
		}
		if want := marshal(us); got != want {
			t.Errorf("micros(%d) = %s, json.Marshal(%v) = %s", ns, got, us, want)
		}
		for _, x := range []float64{float64(ns), v} {
			if got, want := write(func(j *jsonWriter) { j.float(x) }), marshal(x); got != want {
				t.Errorf("float(%v) = %s, json.Marshal = %s", x, got, want)
			}
		}
	})
}
