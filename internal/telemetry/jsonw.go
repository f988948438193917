package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
)

// jsonWriter is the exporters' streaming JSON appender. The trace and
// timeline formats are frozen byte-for-byte (golden fixtures, `cmp` against
// earlier runs), so every value is formatted exactly as encoding/json would
// format it — but appended row by row into one reused buffer that is flushed
// to w as it fills, instead of reflecting over a whole-document value and
// re-indenting the result. Exporter memory is the buffer, not the trace.
type jsonWriter struct {
	w   io.Writer
	buf []byte
	err error // first write or value error; later output is discarded
}

const (
	jsonBufSize = 64 << 10
	// jsonFlushAt leaves headroom so a typical row appended after the check
	// does not grow the buffer; a longer one grows it once and is kept.
	jsonFlushAt = jsonBufSize - 4<<10
)

func newJSONWriter(w io.Writer) *jsonWriter {
	return &jsonWriter{w: w, buf: make([]byte, 0, jsonBufSize)}
}

// raw appends literal JSON text (punctuation, keys, indentation).
func (j *jsonWriter) raw(s string) { j.buf = append(j.buf, s...) }

func (j *jsonWriter) int(v int64) { j.buf = strconv.AppendInt(j.buf, v, 10) }

// float appends v in encoding/json's float64 format: shortest 'f' notation,
// or 'e' below 1e-6 and from 1e21 with a two-digit exponent's leading zero
// dropped (e-09 -> e-9). NaN and infinities have no JSON form and fail the
// export, as they fail json.Marshal.
func (j *jsonWriter) float(v float64) {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		if j.err == nil {
			j.err = fmt.Errorf("telemetry: unsupported JSON value %v", v)
		}
		return
	}
	abs := math.Abs(v)
	if abs < 1<<53 {
		// An integral value below 2^53 is its integer digits. -0 is
		// integral too, but encoding/json writes it "-0".
		if i := int64(v); float64(i) == v && (i != 0 || !math.Signbit(v)) {
			j.buf = strconv.AppendInt(j.buf, i, 10)
			return
		}
	}
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	j.buf = strconv.AppendFloat(j.buf, v, format, -1, 64)
	if format == 'e' {
		n := len(j.buf)
		if n >= 4 && j.buf[n-4] == 'e' && (j.buf[n-3] == '-' || j.buf[n-3] == '+') && j.buf[n-2] == '0' {
			j.buf[n-2] = j.buf[n-1]
			j.buf = j.buf[:n-1]
		}
	}
}

// microsExact bounds the sim times micros writes from their integer digits.
const microsExact = 1 << 42

// micros appends sim time ns (nanoseconds) as trace-event microseconds,
// byte for byte what float writes for float64(ns)/1000: the integer part,
// then up to three fraction digits, trailing zeros dropped. Below 2^42 ns the
// quotient is under 2^32 µs, where a float64's ulp is far under 0.001: no
// decimal shorter than the exact one rounds to the same float, and the value
// is never in the 'e' range. Larger times take the float path.
func (j *jsonWriter) micros(ns int64) {
	if ns <= -microsExact || ns >= microsExact {
		j.float(float64(ns) / 1000)
		return
	}
	if ns < 0 {
		j.buf = append(j.buf, '-')
		ns = -ns
	}
	j.buf = strconv.AppendInt(j.buf, ns/1000, 10)
	if f := ns % 1000; f != 0 {
		frac := [4]byte{'.', byte('0' + f/100), byte('0' + f/10%10), byte('0' + f%10)}
		n := len(frac)
		for frac[n-1] == '0' {
			n--
		}
		j.buf = append(j.buf, frac[:n]...)
	}
}

// str appends s as a JSON string. Printable ASCII without the characters
// encoding/json escapes (quote, backslash and the HTML set <, >, &) is copied
// between quotes; anything else takes json.Marshal's escaping verbatim.
func (j *jsonWriter) str(s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			esc, _ := json.Marshal(s) // a string value cannot fail to marshal
			j.buf = append(j.buf, esc...)
			return
		}
	}
	j.buf = append(j.buf, '"')
	j.buf = append(j.buf, s...)
	j.buf = append(j.buf, '"')
}

// rowDone is called between rows: it flushes a filled buffer.
func (j *jsonWriter) rowDone() {
	if len(j.buf) >= jsonFlushAt {
		j.flush()
	}
}

func (j *jsonWriter) flush() {
	if j.err == nil && len(j.buf) > 0 {
		_, j.err = j.w.Write(j.buf)
	}
	j.buf = j.buf[:0]
}

// finish flushes what is buffered and returns the export's first error.
func (j *jsonWriter) finish() error {
	j.flush()
	return j.err
}
