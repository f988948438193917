package telemetry

import (
	"cmp"
	"io"
	"slices"
)

// Chrome trace-event JSON export, loadable in Perfetto (ui.perfetto.dev)
// and chrome://tracing. Tracks map to (pid, tid) pairs named by metadata
// events; spans become "X" complete events with id/parent/depth args so the
// cross-track hierarchy survives the export; wire-level instants become "i"
// thread-scoped instant events.

// WritePerfettoTimeline serializes the recorder's spans and instants as
// Chrome trace-event JSON, plus sampled timelines rendered as counter
// tracks. Output is deterministic: tracks are grouped into processes in
// first-registration order, spans are sorted by (start, id) and instants by
// (time, record order). Every series of pts becomes a "C"-event graph in a
// dedicated "timeline" process pinned above the span rows
// (process_sort_index -1). Counter and derived series graph their
// per-interval value; hires series graph p50/p99/p999 as stacked
// sub-series. Sample times are shifted by each point's TraceOffset, so
// counters line up under that point's spans on the recorder's stacked epoch
// timeline. With pts nil the output holds spans and instants only.
func WritePerfettoTimeline(w io.Writer, r *Recorder, pts []PointTimeline) error {
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

	// Records are written from the recorder's storage in place, in the order
	// of a sorted index permutation (4 B a record, where a sorted copy would
	// cost 64). Completed spans are indexes below nDone; the still-open ones,
	// closed at the latest observed time, follow in a small tail slice.
	// Instants are not recorded in time order (the fabric stamps a receive
	// instant back at its arrival time), so they are sorted too; the index
	// breaks ties in record order.
	if r == nil {
		r = &Recorder{}
	}
	done, instants, open := &r.done, &r.instants, r.appendOpen(nil)
	nDone := done.Len()
	span := func(i int32) *Span {
		if int(i) < nDone {
			return done.At(int(i))
		}
		return &open[int(i)-nDone]
	}
	// One buffer serves both sorts: every span is written before the
	// instants are sorted.
	order := make([]int32, max(nDone+len(open), instants.Len()))

	t := traceWriter{jsonWriter: newJSONWriter(w)}
	t.raw("{\n \"traceEvents\": [")
	meta := func(name string, pid, tid int, arg string) {
		t.event(name, "M", 0)
		t.pidTID(pid, tid)
		t.openArgs()
		t.argStr("name", arg)
		t.end()
	}
	for i, proc := range procs {
		meta("process_name", i+1, 0, proc)
	}
	tlPID := 0
	if hasSamples(pts) {
		// The timeline process hosts every counter track; sort_index -1
		// pins it above the (default-sorted) span processes.
		tlPID = len(procs) + 1
		meta("process_name", tlPID, 0, "timeline")
		t.event("process_sort_index", "M", 0)
		t.pidTID(tlPID, 0)
		t.openArgs()
		t.argFloat("sort_index", -1)
		t.end()
	}
	for i, tk := range tracks {
		meta("thread_name", trackPID[i], tidOf[i], tk[1])
	}
	spans := sortedOrder(order[:nDone+len(open)], func(a, b int32) int {
		sa, sb := span(a), span(b)
		if c := cmp.Compare(sa.Start, sb.Start); c != 0 {
			return c
		}
		return cmp.Compare(sa.ID, sb.ID)
	})
	for _, i := range spans {
		s := span(i)
		tid, pid := 0, 0
		if int(s.Track) < len(tracks) {
			tid, pid = tidOf[s.Track], trackPID[s.Track]
		}
		t.event(s.Name, "X", int64(s.Start))
		if dur := int64(s.End - s.Start); dur != 0 {
			t.field("dur")
			t.micros(dur)
		}
		t.pidTID(pid, tid)
		t.openArgs()
		t.argInt("id", s.ID)
		t.argInt("parent", s.Parent)
		t.argInt("depth", int64(s.Depth))
		t.end()
	}
	ins := sortedOrder(order[:instants.Len()], func(a, b int32) int {
		if c := cmp.Compare(instants.At(int(a)).Time, instants.At(int(b)).Time); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	for _, i := range ins {
		in := instants.At(int(i))
		tid, pid := 0, 0
		if int(in.Track) < len(tracks) {
			tid, pid = tidOf[in.Track], trackPID[in.Track]
		}
		t.event(in.Name, "i", int64(in.Time))
		t.pidTID(pid, tid)
		t.field("s")
		t.raw("\"t\"")
		if in.Msg != 0 || in.Wire != 0 || in.Reason != "" {
			t.openArgs()
			t.argInt("msg", in.Msg)
			t.argInt("wire", int64(in.Wire))
			t.argStr("reason", in.Reason)
		}
		t.end()
	}
	if tlPID != 0 {
		// Counter tracks are per-process (no tid); the args keys become
		// sub-series of the rendered graph, written in sorted key order.
		for pi := range pts {
			pt := &pts[pi]
			off := int64(pt.TraceOffset)
			for si := range pt.Series {
				s := &pt.Series[si]
				for _, smp := range s.Samples {
					t.counter(s.Name, int64(smp.T)+off, tlPID)
					t.argFloat("value", float64(smp.V))
					t.end()
				}
				for qi := range s.Quantiles {
					q := &s.Quantiles[qi]
					t.counter(s.Name, int64(q.T)+off, tlPID)
					t.argFloat("p50", q.P50)
					t.argFloat("p99", q.P99)
					t.argFloat("p999", q.P999)
					t.end()
				}
			}
		}
	}
	if t.events > 0 {
		t.raw("\n ")
	}
	t.raw("],\n \"displayTimeUnit\": \"ns\"\n}\n")
	return t.finish()
}

// traceWriter streams trace events into the "traceEvents" array at the
// format's one space of indentation per level. An event is event, its
// phase-specific fields, optionally openArgs and arg* calls, then end.
// Integer and string args with zero values are left out (the format's
// omitempty); an args object left with no field is written "{}".
type traceWriter struct {
	*jsonWriter
	events int  // events written so far
	inArgs bool // an args object is open
	args   int  // fields written into it
}

// event opens the next trace event with the fields every event starts with;
// ts is in sim nanoseconds.
func (t *traceWriter) event(name, phase string, ts int64) {
	if t.events > 0 {
		t.raw(",")
	}
	t.events++
	t.raw("\n  {\n   \"name\": ")
	t.str(name)
	t.field("ph")
	t.str(phase)
	t.field("ts")
	t.micros(ts)
}

func (t *traceWriter) field(key string) {
	t.raw(",\n   \"")
	t.raw(key)
	t.raw("\": ")
}

func (t *traceWriter) pidTID(pid, tid int) {
	t.field("pid")
	t.int(int64(pid))
	t.field("tid")
	t.int(int64(tid))
}

// counter opens a "C" counter sample up to its args object.
func (t *traceWriter) counter(name string, ts int64, pid int) {
	t.event(name, "C", ts)
	t.field("pid")
	t.int(int64(pid))
	t.openArgs()
}

func (t *traceWriter) openArgs() {
	t.field("args")
	t.raw("{")
	t.inArgs, t.args = true, 0
}

func (t *traceWriter) arg(key string) {
	if t.args > 0 {
		t.raw(",")
	}
	t.args++
	t.raw("\n    \"")
	t.raw(key)
	t.raw("\": ")
}

func (t *traceWriter) argInt(key string, v int64) {
	if v != 0 {
		t.arg(key)
		t.int(v)
	}
}

func (t *traceWriter) argStr(key, v string) {
	if v != "" {
		t.arg(key)
		t.str(v)
	}
}

func (t *traceWriter) argFloat(key string, v float64) {
	t.arg(key)
	t.float(v)
}

// end closes the open args object, if any, and the event.
func (t *traceWriter) end() {
	if t.inArgs {
		if t.args > 0 {
			t.raw("\n   ")
		}
		t.raw("}")
		t.inArgs = false
	}
	t.raw("\n  }")
	t.rowDone()
}

// sortedOrder fills order with the indexes 0..len(order)-1 and sorts them
// by compare.
func sortedOrder(order []int32, compare func(a, b int32) int) []int32 {
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, compare)
	return order
}

// hasSamples reports whether any point timeline carries at least one row —
// an all-empty timeline set adds no counter process to the trace.
func hasSamples(pts []PointTimeline) bool {
	for i := range pts {
		if pts[i].SampleCount() > 0 {
			return true
		}
	}
	return false
}
