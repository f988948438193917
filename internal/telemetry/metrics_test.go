package telemetry

import (
	"math"
	"sync"
	"testing"
)

func TestBucketBoundaries(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{
		{math.MinInt64, 0},
		{-1, 0},
		{0, 0},
		{1, 1},
		{2, 2},
		{3, 2},
		{4, 3},
		{7, 3},
		{8, 4},
		{1023, 10},
		{1024, 11},
		{math.MaxInt64, HistBuckets - 1},
	}
	for _, c := range cases {
		if got := bucketOf(c.v); got != c.want {
			t.Errorf("bucketOf(%d) = %d, want %d", c.v, got, c.want)
		}
	}
	// Every bucket's bounds must round-trip: a value at the inclusive lower
	// bound and at one below the exclusive upper bound lands in the bucket.
	for i := 1; i < HistBuckets-1; i++ {
		lo, hi := BucketLo(i), BucketHi(i)
		if lo != 1<<(i-1) {
			t.Fatalf("BucketLo(%d) = %d, want %d", i, lo, int64(1)<<(i-1))
		}
		if got := bucketOf(lo); got != i {
			t.Errorf("bucketOf(BucketLo(%d)=%d) = %d, want %d", i, lo, got, i)
		}
		if got := bucketOf(hi - 1); got != i {
			t.Errorf("bucketOf(BucketHi(%d)-1=%d) = %d, want %d", i, hi-1, got, i)
		}
	}
	if BucketLo(0) != math.MinInt64 || BucketHi(0) != 1 {
		t.Errorf("bucket 0 bounds = [%d,%d), want [MinInt64,1)", BucketLo(0), BucketHi(0))
	}
	if BucketHi(HistBuckets-1) != math.MaxInt64 {
		t.Errorf("top bucket hi = %d, want MaxInt64", BucketHi(HistBuckets-1))
	}
}

func TestHistogramObserve(t *testing.T) {
	h := newHistogram()
	for _, v := range []int64{1, 3, 3, 100, -7} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Errorf("count = %d, want 5", h.Count())
	}
	if h.Sum() != 100 {
		t.Errorf("sum = %d, want 100", h.Sum())
	}
	if h.Min() != -7 || h.Max() != 100 {
		t.Errorf("min/max = %d/%d, want -7/100", h.Min(), h.Max())
	}
	if got := h.Bucket(bucketOf(3)); got != 2 {
		t.Errorf("bucket(3) count = %d, want 2", got)
	}
	if got := h.Bucket(0); got != 1 {
		t.Errorf("bucket 0 count = %d, want 1 (the -7)", got)
	}
	if h.Mean() != 20 {
		t.Errorf("mean = %v, want 20", h.Mean())
	}
}

func TestEmptyHistogram(t *testing.T) {
	h := newHistogram()
	if h.Min() != 0 || h.Max() != 0 || h.Mean() != 0 {
		t.Errorf("empty histogram min/max/mean = %d/%d/%v, want zeros", h.Min(), h.Max(), h.Mean())
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	// Nil registry hands out nil handles; every record method must no-op.
	c, h := r.Counter("c"), r.Histogram("h")
	if c != nil || h != nil {
		t.Fatal("nil registry returned non-nil handles")
	}
	c.Add(3)
	h.Observe(9)
	if c.Value() != 0 || h.Count() != 0 || h.Min() != 0 {
		t.Error("nil handles reported non-zero state")
	}
	if r.Snapshot() != nil {
		t.Error("nil registry snapshot should be nil")
	}
	var rec *Recorder
	ref := rec.StartAt(0, rec.Track("p", "t"), "x", NoSpan)
	if ref.Valid() {
		t.Error("nil recorder returned a valid span ref")
	}
	rec.EndAt(1, ref)
	rec.Advance(5)
	if rec.Spans() != nil || rec.Instants() != nil || rec.SpanCount() != 0 {
		t.Error("nil recorder reported state")
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	if r.Counter("x") != r.Counter("x") {
		t.Error("Counter not idempotent")
	}
	if r.Histogram("x") != r.Histogram("x") {
		t.Error("Histogram not idempotent")
	}
	// Same name, different kinds coexist.
	r.Counter("dup").Add(1)
	r.Histogram("dup").Observe(3)
	snap := r.Snapshot()
	if len(snap) != 4 { // x counter, x hist, dup counter+hist
		t.Fatalf("snapshot has %d entries, want 4", len(snap))
	}
	for i := 1; i < len(snap); i++ {
		a, b := snap[i-1], snap[i]
		if a.Name > b.Name || (a.Name == b.Name && a.Kind >= b.Kind) {
			t.Errorf("snapshot not sorted: %s/%s before %s/%s", a.Name, a.Kind, b.Name, b.Kind)
		}
	}
}

// TestConcurrentRecording hammers shared handles from many goroutines, as
// concurrently measured experiment points do, and checks exact totals.
func TestConcurrentRecording(t *testing.T) {
	r := NewRegistry()
	const workers, per = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Get-or-create races with other workers by design.
			c := r.Counter("shared.count")
			h := r.Histogram("shared.hist")
			for i := 0; i < per; i++ {
				c.Add(1)
				h.Observe(int64(i%1000 + 1))
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("shared.count").Value(); got != workers*per {
		t.Errorf("counter = %d, want %d", got, workers*per)
	}
	h := r.Histogram("shared.hist")
	if h.Count() != workers*per {
		t.Errorf("histogram count = %d, want %d", h.Count(), workers*per)
	}
	if h.Min() != 1 || h.Max() != 1000 {
		t.Errorf("min/max = %d/%d, want 1/1000", h.Min(), h.Max())
	}
	var bucketSum int64
	for i := 0; i < HistBuckets; i++ {
		bucketSum += h.Bucket(i)
	}
	if bucketSum != workers*per {
		t.Errorf("bucket total = %d, want %d", bucketSum, workers*per)
	}
}
