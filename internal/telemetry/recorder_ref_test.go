package telemetry

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/sim"
)

// ringRecorder is the span recorder as it was when completed spans and
// instants lived in two doubling sim.Rings, kept verbatim (renamed) as the
// reference the chunked storage is held to.
type ringRecorder struct {
	offset   sim.Time // epoch shift: maps env-relative time to trace time
	maxDepth int32    // spans deeper than this are suppressed; 0 = unlimited
	cap      int      // bound on completed spans and on instants (each)

	open    []openSpan
	freeIdx []int32
	nextID  int64

	done     sim.Ring[Span]
	instants sim.Ring[Instant]
	dropped  int64 // completed spans evicted from the ring
	maxTime  sim.Time

	trackIDs map[trackKey]TrackID
	tracks   []trackKey
}

func newRingRecorder(cap, maxDepth int) *ringRecorder {
	if cap <= 0 {
		cap = DefaultRecorderCap
	}
	return &ringRecorder{
		cap:      cap,
		maxDepth: int32(maxDepth),
		trackIDs: make(map[trackKey]TrackID),
	}
}

func (r *ringRecorder) Track(process, name string) TrackID {
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

func (r *ringRecorder) Advance(d sim.Time) {
	if r == nil || d <= 0 {
		return
	}
	r.offset += d
}

func (r *ringRecorder) note(t sim.Time) {
	if t > r.maxTime {
		r.maxTime = t
	}
}

func (r *ringRecorder) StartAt(t sim.Time, track TrackID, name string, parent SpanRef) SpanRef {
	if r == nil {
		return NoSpan
	}
	depth := int32(1)
	var parentID int64
	if parent.id != 0 {
		depth = parent.depth + 1
		parentID = parent.id
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

func (r *ringRecorder) EndAt(t sim.Time, ref SpanRef) {
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

func (r *ringRecorder) RecordAt(start, end sim.Time, track TrackID, name string, parent SpanRef) {
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

func (r *ringRecorder) push(s Span) {
	if r.done.Len() >= r.cap {
		r.done.Pop()
		r.dropped++
	}
	r.done.Push(s)
}

func (r *ringRecorder) AddInstant(in Instant) {
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

func (r *ringRecorder) SpanCount() int {
	if r == nil {
		return 0
	}
	return r.done.Len()
}

func (r *ringRecorder) InstantCount() int {
	if r == nil {
		return 0
	}
	return r.instants.Len()
}

func (r *ringRecorder) Dropped() int64 {
	if r == nil {
		return 0
	}
	return r.dropped
}

func (r *ringRecorder) Spans() []Span {
	if r == nil {
		return nil
	}
	out := make([]Span, 0, r.done.Len()+len(r.open))
	for i := 0; i < r.done.Len(); i++ {
		out = append(out, *r.done.At(i))
	}
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

func (r *ringRecorder) Instants() []Instant {
	if r == nil {
		return nil
	}
	out := make([]Instant, 0, r.instants.Len())
	for i := 0; i < r.instants.Len(); i++ {
		out = append(out, *r.instants.At(i))
	}
	return out
}

func (r *ringRecorder) Tracks() [][2]string {
	if r == nil {
		return nil
	}
	out := make([][2]string, len(r.tracks))
	for i, k := range r.tracks {
		out[i] = [2]string{k.process, k.name}
	}
	return out
}

// chunkSet is a census of every chunk a records FIFO has held, live or
// spare: how many it has allocated over its life.
type chunkSet[T any] map[*[recordChunk]T]bool

func (s chunkSet[T]) note(q *records[T]) {
	for _, c := range q.chunks {
		s[c] = true
	}
	if q.spare != nil {
		s[q.spare] = true
	}
}

// chunkBound is the most chunks a FIFO held at cap may allocate.
func chunkBound(cap int) int { return (cap+recordChunk-1)/recordChunk + 1 }

// TestRecorderMatchesRingReference runs seeded programs of StartAt, EndAt
// (stale and double ones included), RecordAt, AddInstant (out of time order,
// as the fabric stamps receive instants) and Advance against the Recorder
// and the ring-backed reference at caps around the chunk size. Everything
// observable must be equal — retained spans and instants, counts, drops and
// the exported trace — and each FIFO must stay within its chunk bound.
func TestRecorderMatchesRingReference(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		for _, cap := range []int{1, 7, 1023, 1024, 1025, 3000} {
			rng := rand.New(rand.NewSource(seed))
			depth := rng.Intn(4)
			got, want := NewRecorder(cap, depth), newRingRecorder(cap, depth)
			spanChunks, instChunks := chunkSet[Span]{}, chunkSet[Instant]{}
			var tracks []TrackID
			for i := 0; i < 3; i++ {
				name := pick(rng, hostileStrings)
				tracks = append(tracks, got.Track("node", name))
				want.Track("node", name)
			}
			var open, ended [][2]SpanRef // refs from got and want, pairwise
			now := sim.Time(0)
			// About 4 000 spans and 4 000 instants: past the largest cap,
			// and several chunk wraps past the others.
			for i, n := 0, 2500+rng.Intn(3000); i < n; i++ {
				tk := tracks[rng.Intn(len(tracks))]
				name := pick(rng, hostileStrings)
				switch op := rng.Intn(20); {
				case op < 5 && len(open) < 64:
					parent := [2]SpanRef{NoSpan, NoSpan}
					if len(open) > 0 && rng.Intn(2) == 0 {
						parent = open[rng.Intn(len(open))]
					} else if len(ended) > 0 && rng.Intn(4) == 0 {
						parent = ended[rng.Intn(len(ended))] // a stale parent
					}
					ref := [2]SpanRef{got.StartAt(now, tk, name, parent[0]), want.StartAt(now, tk, name, parent[1])}
					open = append(open, ref)
				case op < 10 && len(open) > 0:
					k := rng.Intn(len(open))
					got.EndAt(now, open[k][0])
					want.EndAt(now, open[k][1])
					ended = append(ended, open[k])
					open = append(open[:k], open[k+1:]...)
				case op < 11 && len(ended) > 0:
					ref := ended[rng.Intn(len(ended))] // double or stale end
					got.EndAt(now, ref[0])
					want.EndAt(now, ref[1])
				case op < 15:
					for k := rng.Intn(12); k >= 0; k-- {
						end := now + sim.Time(rng.Intn(5000))
						got.RecordAt(now, end, tk, name, NoSpan)
						want.RecordAt(now, end, tk, name, NoSpan)
					}
				case op < 19:
					for k := rng.Intn(12); k >= 0; k-- {
						in := Instant{Time: now - sim.Time(rng.Intn(3000)), Track: tk, Name: name,
							Msg: int64(rng.Intn(3)), Wire: rng.Intn(2) * 2048}
						got.AddInstant(in)
						want.AddInstant(in)
					}
				default:
					d := sim.Time(rng.Intn(100_000))
					got.Advance(d)
					want.Advance(d)
				}
				now += sim.Time(rng.Intn(1000))
				spanChunks.note(&got.done)
				instChunks.note(&got.instants)
			}

			if g, w := got.Spans(), want.Spans(); !slices.Equal(g, w) {
				t.Fatalf("seed %d cap %d: Spans differ (%d vs %d)", seed, cap, len(g), len(w))
			}
			if g, w := got.Instants(), want.Instants(); !slices.Equal(g, w) {
				t.Fatalf("seed %d cap %d: Instants differ (%d vs %d)", seed, cap, len(g), len(w))
			}
			if got.SpanCount() != want.SpanCount() || got.InstantCount() != want.InstantCount() || got.Dropped() != want.Dropped() {
				t.Fatalf("seed %d cap %d: counts %d/%d/%d, want %d/%d/%d", seed, cap,
					got.SpanCount(), got.InstantCount(), got.Dropped(),
					want.SpanCount(), want.InstantCount(), want.Dropped())
			}
			var gb, wb bytes.Buffer
			if err := WritePerfettoTimeline(&gb, got, nil); err != nil {
				t.Fatal(err)
			}
			if err := refWritePerfettoTimeline(&wb, want, nil); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gb.Bytes(), wb.Bytes()) {
				at, g, w := firstDiff(gb.Bytes(), wb.Bytes())
				t.Fatalf("seed %d cap %d: trace differs at byte %d\ngot:  %q\nwant: %q", seed, cap, at, g, w)
			}
			if len(spanChunks) > chunkBound(cap) || len(instChunks) > chunkBound(cap) {
				t.Fatalf("seed %d cap %d: allocated %d span and %d instant chunks, want <= %d each",
					seed, cap, len(spanChunks), len(instChunks), chunkBound(cap))
			}
		}
	}
}

// atCap is a recorder of the given cap that has been evicting spans and
// instants for a chunk's worth of records, so it holds every chunk it needs.
func atCap(cap int) (*Recorder, TrackID) {
	r := NewRecorder(cap, 0)
	tk := r.Track("node", "verbs")
	for i := 0; i < cap+recordChunk; i++ {
		r.RecordAt(sim.Time(i), sim.Time(i)+750, tk, "verbs.send", NoSpan)
		r.AddInstant(Instant{Time: sim.Time(i), Track: tk, Name: "tx data", Wire: 2048})
	}
	return r, tk
}

// TestRecorderStorageBounded: a recorder at its cap evicts into the slots it
// already has — no allocation per record, and over a run 25 times the cap
// no more chunks than the cap needs plus one.
func TestRecorderStorageBounded(t *testing.T) {
	const cap = 4096
	r := NewRecorder(cap, 0)
	tk := r.Track("node", "verbs")
	spanChunks, instChunks := chunkSet[Span]{}, chunkSet[Instant]{}
	for i := 0; i < 100_000; i++ {
		r.RecordAt(sim.Time(i), sim.Time(i)+750, tk, "verbs.send", NoSpan)
		r.AddInstant(Instant{Time: sim.Time(i), Track: tk, Name: "tx data", Wire: 2048})
		spanChunks.note(&r.done)
		instChunks.note(&r.instants)
	}
	if len(spanChunks) > chunkBound(cap) || len(instChunks) > chunkBound(cap) {
		t.Errorf("100 000 records at cap %d allocated %d span and %d instant chunks, want <= %d each",
			cap, len(spanChunks), len(instChunks), chunkBound(cap))
	}
	if r.SpanCount() != cap || r.InstantCount() != cap || r.Dropped() != 2*(100_000-cap) {
		t.Errorf("counts %d/%d/%d", r.SpanCount(), r.InstantCount(), r.Dropped())
	}

	warm, wtk := atCap(cap)
	at := sim.Time(cap + recordChunk)
	if avg := testing.AllocsPerRun(10_000, func() {
		warm.RecordAt(at, at+750, wtk, "verbs.send", NoSpan)
		warm.AddInstant(Instant{Time: at, Track: wtk, Name: "tx data", Wire: 2048})
		at++
	}); avg != 0 {
		t.Errorf("a recorder at cap allocates %.2f times per span + instant, want 0", avg)
	}
}

func BenchmarkRecorderPushAtCap(b *testing.B) {
	r, tk := atCap(1 << 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at := sim.Time(i)
		r.RecordAt(at, at+750, tk, "verbs.send", NoSpan)
		r.AddInstant(Instant{Time: at, Track: tk, Name: "tx data", Wire: 2048})
	}
}
