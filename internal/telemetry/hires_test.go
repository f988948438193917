package telemetry

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestHiResBucketRoundTrip(t *testing.T) {
	vals := []int64{math.MinInt64, -5, 0, 1, 2, 15, 16, 17, 31, 32, 100,
		1023, 1024, 1025, 1 << 20, 1<<40 + 12345, math.MaxInt64}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		vals = append(vals, int64(1)<<uint(rng.Intn(62))+rng.Int63n(1<<40))
	}
	for _, v := range vals {
		i := hiResBucketOf(v)
		if i < 0 || i >= HiResBuckets {
			t.Fatalf("bucket index %d out of range for value %d", i, v)
		}
		lo, hi := HiResBucketLo(i), HiResBucketHi(i)
		// The top bucket's bound clamps at MaxInt64, which makes it the one
		// inclusive upper bound (2^63 is not representable).
		if v < lo || (v >= hi && !(v == math.MaxInt64 && hi == math.MaxInt64)) {
			t.Errorf("value %d landed in bucket %d = [%d,%d)", v, i, lo, hi)
		}
	}
	// Bucket bounds tile the axis: each bucket's hi is the next one's lo.
	for i := 0; i < HiResBuckets-1; i++ {
		if HiResBucketHi(i) != HiResBucketLo(i+1) {
			t.Fatalf("gap between buckets %d and %d: hi=%d next lo=%d",
				i, i+1, HiResBucketHi(i), HiResBucketLo(i+1))
		}
	}
}

// TestHiResQuantileAccuracy checks the headline guarantee: a quantile
// estimate is within one sub-bucket width of the exact order statistic.
func TestHiResQuantileAccuracy(t *testing.T) {
	dists := map[string]func(r *rand.Rand) int64{
		"uniform":     func(r *rand.Rand) int64 { return r.Int63n(1_000_000) },
		"exponential": func(r *rand.Rand) int64 { return int64(r.ExpFloat64() * 50_000) },
		"bimodal": func(r *rand.Rand) int64 {
			if r.Intn(10) == 0 {
				return 5_000_000 + r.Int63n(100_000) // the slow tail
			}
			return 1_000 + r.Int63n(500)
		},
	}
	for name, draw := range dists {
		rng := rand.New(rand.NewSource(42))
		h := &HiResHistogram{}
		vals := make([]int64, 0, 20000)
		for i := 0; i < 20000; i++ {
			v := draw(rng)
			vals = append(vals, v)
			h.Observe(v)
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		for _, q := range []float64{0.50, 0.90, 0.99, 0.999} {
			rank := int(math.Ceil(q*float64(len(vals)))) - 1
			exact := vals[rank]
			est := h.Quantile(q)
			b := hiResBucketOf(exact)
			width := float64(HiResBucketHi(b) - HiResBucketLo(b))
			if math.Abs(est-float64(exact)) > width {
				t.Errorf("%s p%g: estimate %.0f vs exact %d (bucket width %.0f)",
					name, q*100, est, exact, width)
			}
		}
	}
}

func TestHiResQuantileEdgeCases(t *testing.T) {
	var nilH *HiResHistogram
	nilH.Observe(5) // must not panic
	if nilH.Count() != 0 || nilH.Quantile(0.5) != 0 {
		t.Error("nil histogram should read as empty")
	}
	h := &HiResHistogram{}
	if h.Quantile(0.99) != 0 {
		t.Error("empty histogram quantile should be 0")
	}
	h.Observe(-7)
	h.Observe(0)
	if got := h.Quantile(0.99); got != 0 {
		t.Errorf("all-nonpositive quantile = %v, want 0", got)
	}
	if h.Count() != 2 || h.Sum() != -7 {
		t.Errorf("count/sum = %d/%d", h.Count(), h.Sum())
	}
}

func TestHiResMerge(t *testing.T) {
	a, b := &HiResHistogram{}, &HiResHistogram{}
	for i := int64(1); i <= 100; i++ {
		a.Observe(i)
		b.Observe(i * 1000)
	}
	a.merge(b)
	if a.Count() != 200 {
		t.Fatalf("merged count = %d, want 200", a.Count())
	}
	wantSum := int64(5050 + 5050*1000)
	if a.Sum() != wantSum {
		t.Errorf("merged sum = %d, want %d", a.Sum(), wantSum)
	}
	if a.Bucket(hiResBucketOf(5)) == 0 || a.Bucket(hiResBucketOf(5000)) == 0 {
		t.Error("merged histogram lost one side's buckets")
	}
}

func TestRegistryHiRes(t *testing.T) {
	r := NewRegistry()
	h := r.HiRes("x.latency")
	if h == nil || r.HiRes("x.latency") != h {
		t.Fatal("HiRes should return one stable handle per name")
	}
	h.Observe(100)
	h.Observe(200)
	var found bool
	for _, m := range r.Snapshot() {
		if m.Kind == "hires" && m.Name == "x.latency" {
			found = true
			if m.Count != 2 || m.Sum != 300 || m.P50 == 0 {
				t.Errorf("hires snapshot = %+v", m)
			}
		}
	}
	if !found {
		t.Error("Snapshot missing the hires entry")
	}
}
