package main

import (
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// span is one interval recorded by the benchmark around a call into a
// layer. Times are microseconds since the recording process started, so
// spans from several child processes can share one file (each child gets
// its own pid there).
type span struct {
	ID     int            `json:"id"`
	Parent int            `json:"parent"` // 0 = root
	Cat    string         `json:"cat"`    // driver op or workload pass the span belongs to
	Name   string         `json:"name"`
	TsUS   float64        `json:"ts_us"`
	DurUS  float64        `json:"dur_us"`
	Args   map[string]any `json:"args,omitempty"`
}

// tracer keeps the benchmark's spans in memory until the run ends. A nil
// tracer records nothing, which is the untraced run.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) us(at time.Time) float64 {
	return float64(at.Sub(t.t0).Nanoseconds()) / 1e3
}

// begin opens a span now and returns its id (0 on a nil tracer).
func (t *tracer) begin(parent int, cat, name string) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Cat: cat, Name: name,
		TsUS: t.us(time.Now()), DurUS: -1,
	})
	return len(t.spans)
}

// end closes the span and attaches the counts taken at its boundary.
func (t *tracer) end(id int, args map[string]any) {
	if t == nil || id == 0 {
		return
	}
	s := &t.spans[id-1]
	s.DurUS = t.us(time.Now()) - s.TsUS
	s.Args = args
}

// add records a span whose interval was measured elsewhere (a point,
// rebuilt from the runner's OnPoint metrics).
func (t *tracer) add(parent int, cat, name string, start, end time.Time, args map[string]any) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Cat: cat, Name: name,
		TsUS: t.us(start), DurUS: t.us(end) - t.us(start), Args: args,
	})
}

// in times fn as a child span of parent.
func (t *tracer) in(parent int, cat, name string, fn func()) {
	id := t.begin(parent, cat, name)
	fn()
	t.end(id, nil)
}

func (t *tracer) count() int {
	if t == nil {
		return 0
	}
	return len(t.spans)
}

// traceProcess is one recording process's spans in the merged trace file.
type traceProcess struct {
	Name  string
	Spans []span
}

// selfTimes returns each span's duration minus its direct children's.
func selfTimes(spans []span) map[int]float64 {
	self := make(map[int]float64, len(spans))
	for _, s := range spans {
		self[s.ID] += s.DurUS
		if s.Parent != 0 {
			self[s.Parent] -= s.DurUS
		}
	}
	return self
}

// writeChromeTrace writes the spans as Chrome trace-event JSON (load in
// Perfetto or chrome://tracing): one pid per recording process, complete
// ("X") events whose args carry the span id, its parent and its self time.
func writeChromeTrace(w io.Writer, procs []traceProcess) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat,omitempty"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	events := []event{}
	for pi, p := range procs {
		pid := pi + 1
		events = append(events, event{Name: "process_name", Ph: "M", Pid: pid,
			Args: map[string]any{"name": p.Name}})
		self := selfTimes(p.Spans)
		for _, s := range p.Spans {
			args := map[string]any{"id": s.ID, "parent": s.Parent, "self_us": self[s.ID]}
			for k, v := range s.Args {
				args[k] = v
			}
			events = append(events, event{Name: s.Name, Cat: s.Cat, Ph: "X",
				Ts: s.TsUS, Dur: s.DurUS, Pid: pid, Tid: 1, Args: args})
		}
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"displayTimeUnit": "ms", "traceEvents": events}); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}
