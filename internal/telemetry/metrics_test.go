package telemetry

import (
	"sync"
	"testing"
)

func TestNilSafety(t *testing.T) {
	var r *Registry
	// Nil registry hands out nil handles; every record method must no-op.
	c, h := r.Counter("c"), r.HiRes("h")
	if c != nil || h != nil {
		t.Fatal("nil registry returned non-nil handles")
	}
	c.Add(3)
	h.Observe(9)
	if c.Value() != 0 || h.Count() != 0 || h.Quantile(0.5) != 0 {
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
	if r.HiRes("x") != r.HiRes("x") {
		t.Error("HiRes not idempotent")
	}
	// Same name, different kinds coexist.
	r.Counter("dup").Add(1)
	r.HiRes("dup").Observe(3)
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
// concurrently measured experiment points do, and checks exact totals. The
// workers walk 1..1000 from different offsets, so their touched-range raises
// (the only compare-and-swap loops left on the record path) race each other.
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
			h := r.HiRes("shared.hist")
			for i := 0; i < per; i++ {
				c.Add(1)
				h.Observe(int64((i+w*125)%1000 + 1))
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("shared.count").Value(); got != workers*per {
		t.Errorf("counter = %d, want %d", got, workers*per)
	}
	h := r.HiRes("shared.hist")
	if h.Count() != workers*per {
		t.Errorf("histogram count = %d, want %d", h.Count(), workers*per)
	}
	var bucketSum int64
	for i := 0; i < HiResBuckets; i++ {
		bucketSum += h.Bucket(i)
	}
	if bucketSum != workers*per {
		t.Errorf("bucket total = %d, want %d", bucketSum, workers*per)
	}
	// The touched range is exactly the buckets of 1..1000.
	if lo, hi := h.touched(); lo != hiResBucketOf(1) || hi != hiResBucketOf(1000)+1 {
		t.Errorf("touched = [%d,%d), want [%d,%d)", lo, hi, hiResBucketOf(1), hiResBucketOf(1000)+1)
	}
}
