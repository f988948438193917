package telemetry

import (
	"repro/internal/sim"
)

// Hierarchical stage spans keyed on sim.Time.
//
// A span is one stage of work on a track (a verbs operation on an HCA, an
// MPI protocol phase on a rank, an NFS RPC on a mount, a packet crossing the
// WAN link). Spans nest: a child carries its parent's id and depth, which
// the Perfetto exporter emits as slice args so the hierarchy is visible.
//
// The recorder is single-writer by design: it belongs to one simulation
// timeline. The experiment runner drops to one worker when span recording is
// enabled (metrics stay concurrent; they are atomics). Completed spans and
// instants live in bounded chunked FIFOs (records) — when a run overflows the
// capacity the oldest records are evicted and counted, and their slots are
// reused for the newest.

// TrackID identifies a (process, thread) pair in the exported trace.
type TrackID int32

// SpanRef is a handle on a started span. The zero value (and NoSpan) is the
// null reference: starting a child under it yields a root span, ending it is
// a no-op. Refs are guarded by the span id, so a ref kept past its span's
// end (or past recorder recycling of the slot) degrades to null instead of
// corrupting another span.
type SpanRef struct {
	idx   int32
	depth int32
	id    int64
}

// NoSpan is the null span reference.
var NoSpan = SpanRef{}

// Valid reports whether the ref points at a started span.
func (s SpanRef) Valid() bool { return s.id != 0 }

// Span is one completed (or still-open at export time) stage.
type Span struct {
	ID     int64
	Parent int64 // 0 = root
	Track  TrackID
	Name   string
	Start  sim.Time // trace time (epoch offset applied)
	End    sim.Time
	Depth  int32
}

// Instant is a zero-duration event on a track (wire-level packet events).
type Instant struct {
	Time   sim.Time // trace time (epoch offset applied)
	Track  TrackID
	Name   string
	Msg    int64  // transfer id (0 if not applicable)
	Wire   int    // wire bytes (0 if not applicable)
	Reason string // drop reason etc. ("" if not applicable)
}

type openSpan struct {
	id     int64
	parent int64
	track  TrackID
	name   string
	start  sim.Time
	depth  int32
	live   bool
}

type trackKey struct {
	process, name string
}

// Recorder collects spans and instants for one simulation timeline.
type Recorder struct {
	offset   sim.Time // epoch shift: maps env-relative time to trace time
	maxDepth int32    // spans deeper than this are suppressed; 0 = unlimited
	cap      int      // bound on completed spans and on instants (each)

	open    []openSpan
	freeIdx []int32
	nextID  int64

	done     records[Span]
	instants records[Instant]
	dropped  int64 // spans and instants evicted to honor cap
	maxTime  sim.Time

	trackIDs map[trackKey]TrackID
	tracks   []trackKey
}

// DefaultRecorderCap bounds completed spans and, separately, instants
// retained for export. A Span and an Instant are 64 B each, so a full
// recorder holds 32 MB of spans and 32 MB of instants. Each is stored in
// 1024-record chunks allocated as records first arrive and reused once the
// cap evicts, so a recorder never allocates more than ceil(cap/1024)+1
// chunks per kind, however long the run.
const DefaultRecorderCap = 1 << 19

// NewRecorder creates a span recorder. cap bounds retained completed spans
// and instants (<= 0 selects DefaultRecorderCap); maxDepth suppresses spans
// nested deeper than the limit (0 = unlimited).
func NewRecorder(cap, maxDepth int) *Recorder {
	if cap <= 0 {
		cap = DefaultRecorderCap
	}
	return &Recorder{
		cap:      cap,
		maxDepth: int32(maxDepth),
		trackIDs: make(map[trackKey]TrackID),
	}
}

// Track returns the id for the (process, name) track, creating it on first
// use. Tracks are never evicted; callers cache the id. Nil-safe (returns 0).
func (r *Recorder) Track(process, name string) TrackID {
	if r == nil {
		return 0
	}
	key := trackKey{process, name}
	if id, ok := r.trackIDs[key]; ok {
		return id
	}
	id := TrackID(len(r.tracks))
	r.tracks = append(r.tracks, key)
	r.trackIDs[key] = id
	return id
}

// Advance shifts the epoch offset forward by d. The experiment runner calls
// it between measurement points: every point's environment starts at t=0,
// and the accumulated offset stacks the per-point timelines one after
// another on the global trace.
func (r *Recorder) Advance(d sim.Time) {
	if r == nil || d <= 0 {
		return
	}
	r.offset += d
}

// Offset returns the current epoch offset.
func (r *Recorder) Offset() sim.Time {
	if r == nil {
		return 0
	}
	return r.offset
}

func (r *Recorder) note(t sim.Time) {
	if t > r.maxTime {
		r.maxTime = t
	}
}

// StartAt opens a span at env-relative time t on the track, nested under
// parent (NoSpan for a root). It returns the handle to pass to EndAt. On a
// nil recorder, or when the span would exceed the depth limit, it returns
// NoSpan and records nothing.
func (r *Recorder) StartAt(t sim.Time, track TrackID, name string, parent SpanRef) SpanRef {
	if r == nil {
		return NoSpan
	}
	depth := int32(1)
	var parentID int64
	if parent.id != 0 {
		depth = parent.depth + 1
		parentID = parent.id
		// A ref outliving its span (slot recycled) degrades to a root link:
		// the id check below is what EndAt relies on; here only the numeric
		// parent id is recorded, which stays correct even if the parent
		// already completed.
	}
	if r.maxDepth > 0 && depth > r.maxDepth {
		return NoSpan
	}
	r.nextID++
	id := r.nextID
	var idx int32
	if n := len(r.freeIdx); n > 0 {
		idx = r.freeIdx[n-1]
		r.freeIdx = r.freeIdx[:n-1]
	} else {
		r.open = append(r.open, openSpan{})
		idx = int32(len(r.open) - 1)
	}
	at := r.offset + t
	r.open[idx] = openSpan{id: id, parent: parentID, track: track, name: name, start: at, depth: depth, live: true}
	r.note(at)
	return SpanRef{idx: idx, depth: depth, id: id}
}

// EndAt closes the span at env-relative time t. A null, stale or already
// ended ref is ignored.
func (r *Recorder) EndAt(t sim.Time, ref SpanRef) {
	if r == nil || ref.id == 0 || int(ref.idx) >= len(r.open) {
		return
	}
	o := &r.open[ref.idx]
	if !o.live || o.id != ref.id {
		return
	}
	at := r.offset + t
	r.push(Span{ID: o.id, Parent: o.parent, Track: o.track, Name: o.name,
		Start: o.start, End: at, Depth: o.depth})
	r.note(at)
	o.live = false
	r.freeIdx = append(r.freeIdx, ref.idx)
}

// RecordAt records an already-completed span in one call (start and end are
// env-relative). Used for stages whose duration is computed at a single
// point in simulated time, like a packet's occupancy of the WAN egress.
func (r *Recorder) RecordAt(start, end sim.Time, track TrackID, name string, parent SpanRef) {
	if r == nil {
		return
	}
	depth := int32(1)
	var parentID int64
	if parent.id != 0 {
		depth = parent.depth + 1
		parentID = parent.id
	}
	if r.maxDepth > 0 && depth > r.maxDepth {
		return
	}
	r.nextID++
	r.push(Span{ID: r.nextID, Parent: parentID, Track: track, Name: name,
		Start: r.offset + start, End: r.offset + end, Depth: depth})
	r.note(r.offset + end)
}

func (r *Recorder) push(s Span) {
	if r.done.Len() >= r.cap {
		r.done.Pop()
		r.dropped++
	}
	r.done.Push(s)
}

// AddInstant records a zero-duration event; in.Time is env-relative.
func (r *Recorder) AddInstant(in Instant) {
	if r == nil {
		return
	}
	in.Time += r.offset
	if r.instants.Len() >= r.cap {
		r.instants.Pop()
		r.dropped++
	}
	r.instants.Push(in)
	r.note(in.Time)
}

// SpanCount returns the number of retained completed spans.
func (r *Recorder) SpanCount() int {
	if r == nil {
		return 0
	}
	return r.done.Len()
}

// InstantCount returns the number of retained instants.
func (r *Recorder) InstantCount() int {
	if r == nil {
		return 0
	}
	return r.instants.Len()
}

// Dropped returns how many records were evicted to honor the capacity.
func (r *Recorder) Dropped() int64 {
	if r == nil {
		return 0
	}
	return r.dropped
}

// Spans returns the retained spans: completed ones in completion order,
// then any still-open spans closed at the latest observed trace time (work
// cut off when a measurement window ended). The slice is freshly allocated;
// it is for tests and inspection — the exporter reads the storage in place.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	out := make([]Span, 0, r.done.Len()+len(r.open))
	for i := 0; i < r.done.Len(); i++ {
		out = append(out, *r.done.At(i))
	}
	return r.appendOpen(out)
}

// appendOpen appends the still-open spans, in slot order, closed at the
// latest observed trace time.
func (r *Recorder) appendOpen(out []Span) []Span {
	for i := range r.open {
		o := &r.open[i]
		if !o.live {
			continue
		}
		end := r.maxTime
		if end < o.start {
			end = o.start
		}
		out = append(out, Span{ID: o.id, Parent: o.parent, Track: o.track,
			Name: o.name, Start: o.start, End: end, Depth: o.depth})
	}
	return out
}

// Instants returns the retained instants in record order, in a freshly
// allocated slice; like Spans it is for tests and inspection.
func (r *Recorder) Instants() []Instant {
	if r == nil {
		return nil
	}
	out := make([]Instant, 0, r.instants.Len())
	for i := 0; i < r.instants.Len(); i++ {
		out = append(out, *r.instants.At(i))
	}
	return out
}

// Tracks returns the registered tracks indexed by TrackID as
// (process, name) pairs.
func (r *Recorder) Tracks() [][2]string {
	if r == nil {
		return nil
	}
	out := make([][2]string, len(r.tracks))
	for i, k := range r.tracks {
		out[i] = [2]string{k.process, k.name}
	}
	return out
}

// recordChunk is the number of records in one chunk of a records FIFO.
const recordChunk = 1024

// records is the recorder's FIFO of completed spans or of instants, stored
// in fixed recordChunk-record chunks. Growing appends a chunk and copies no
// record; the chunk Pop empties at the head is kept and becomes the next
// tail chunk. So a FIFO held at a cap allocates each record slot once — at
// most ceil(cap/recordChunk)+1 chunks — where a doubling ring allocates
// about twice its final size on the way up.
type records[T any] struct {
	chunks []*[recordChunk]T // oldest first
	head   int               // index of the first record in chunks[0]
	n      int
	spare  *[recordChunk]T // the chunk last emptied at the head, not yet reused
}

// Len returns the number of records held.
func (q *records[T]) Len() int { return q.n }

// At returns a pointer to the i-th record from the head (valid until the
// next Pop).
func (q *records[T]) At(i int) *T {
	i += q.head
	return &q.chunks[i/recordChunk][i%recordChunk]
}

// Push appends v at the tail.
func (q *records[T]) Push(v T) {
	if q.head+q.n == len(q.chunks)*recordChunk {
		c := q.spare
		if c == nil {
			c = new([recordChunk]T)
		}
		q.spare = nil
		q.chunks = append(q.chunks, c)
	}
	*q.At(q.n) = v
	q.n++
}

// Pop removes the head record. The FIFO must not be empty.
func (q *records[T]) Pop() {
	var zero T
	*q.At(0) = zero // drop the record's strings for the GC
	q.head++
	q.n--
	if q.head == recordChunk {
		q.spare = q.chunks[0]
		last := copy(q.chunks, q.chunks[1:])
		q.chunks[last] = nil
		q.chunks = q.chunks[:last]
		q.head = 0
	}
}
