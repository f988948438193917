package telemetry

import (
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// Metrics registry: counters and fixed-bucket log-scale histograms.
//
// Handles are fetched once at setup time (mutex-protected get-or-create) and
// recorded against on the hot path with lock-free atomics, so the record
// path never allocates and is safe from any number of runner workers
// committing points concurrently. Every record method is a no-op on a nil
// receiver: a layer holds possibly-nil handles and records unconditionally,
// which keeps the disabled path to a single nil check per site.

// Counter is a monotonically increasing count.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n. No-op on a nil receiver.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// HistBuckets is the fixed bucket count of every histogram. Bucket 0 holds
// observations <= 0; bucket i (i >= 1) holds observations in [2^(i-1), 2^i).
// 64 power-of-two buckets span the full int64 range, so nanosecond latencies
// from single-digit to hours land without configuration.
const HistBuckets = 64

// bucketOf maps an observation to its bucket index.
func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	b := bits.Len64(uint64(v))
	if b >= HistBuckets {
		return HistBuckets - 1
	}
	return b
}

// BucketLo returns the inclusive lower bound of bucket i (0 for bucket 0).
func BucketLo(i int) int64 {
	if i <= 0 {
		return math.MinInt64
	}
	return 1 << (i - 1)
}

// BucketHi returns the exclusive upper bound of bucket i.
func BucketHi(i int) int64 {
	if i <= 0 {
		return 1
	}
	if i >= 63 {
		return math.MaxInt64
	}
	return 1 << i
}

// Histogram is a fixed-bucket log2 histogram with count/sum/min/max.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	min     atomic.Int64 // initialized to MaxInt64
	max     atomic.Int64 // initialized to MinInt64
	buckets [HistBuckets]atomic.Int64
}

func newHistogram() *Histogram {
	h := &Histogram{}
	h.min.Store(math.MaxInt64)
	h.max.Store(math.MinInt64)
	return h
}

// Observe records one value. No-op on a nil receiver; allocation-free.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.buckets[bucketOf(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.min.Load()
		if v >= cur || h.min.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

// Count returns the number of observations (0 on a nil receiver).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observations.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Min returns the smallest observation (0 when empty).
func (h *Histogram) Min() int64 {
	if h == nil || h.count.Load() == 0 {
		return 0
	}
	return h.min.Load()
}

// Max returns the largest observation (0 when empty).
func (h *Histogram) Max() int64 {
	if h == nil || h.count.Load() == 0 {
		return 0
	}
	return h.max.Load()
}

// Bucket returns the count in bucket i.
func (h *Histogram) Bucket(i int) int64 {
	if h == nil || i < 0 || i >= HistBuckets {
		return 0
	}
	return h.buckets[i].Load()
}

// Mean returns the arithmetic mean of observations (0 when empty).
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return float64(h.Sum()) / float64(n)
}

// Registry is a named collection of metrics. Getter methods are
// get-or-create and may be called from any goroutine; they are meant for
// setup time, not the record path. A nil Registry hands out nil handles,
// whose record methods are no-ops.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	hists    map[string]*Histogram
	hires    map[string]*HiResHistogram
}

// NewRegistry creates an empty metrics registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		hists:    make(map[string]*Histogram),
		hires:    make(map[string]*HiResHistogram),
	}
}

// Counter returns the counter registered under name, creating it on first
// use. Returns nil on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Histogram returns the histogram registered under name, creating it on
// first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram()
		r.hists[name] = h
	}
	return h
}

// HiRes returns the high-resolution histogram registered under name,
// creating it on first use. Coarse and hires histograms are separate kinds
// with separate namespaces, but a site records into one of them: the
// layers register each name under exactly one kind.
func (r *Registry) HiRes(name string) *HiResHistogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hires[name]
	if !ok {
		h = &HiResHistogram{}
		r.hires[name] = h
	}
	return h
}

// MergeInto adds every counter, histogram and hires histogram of r into
// dst, creating names that dst lacks. All contributions are commutative
// (counter adds, bucket adds), so merging several registries into one in
// any order yields the same totals — this is how per-point sampling
// registries fold back into a run-wide registry without making the result
// depend on point completion order. No-op when either registry is nil.
func (r *Registry) MergeInto(dst *Registry) {
	if r == nil || dst == nil || r == dst {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		if v := c.Value(); v != 0 {
			dst.Counter(name).Add(v)
		} else {
			dst.Counter(name) // presence documents the armed site
		}
	}
	for name, h := range r.hists {
		dst.Histogram(name).merge(h)
	}
	for name, h := range r.hires {
		dst.HiRes(name).merge(h)
	}
}

// merge adds src's buckets and aggregates into h.
func (h *Histogram) merge(src *Histogram) {
	if h == nil || src == nil {
		return
	}
	for i := range src.buckets {
		if n := src.buckets[i].Load(); n != 0 {
			h.buckets[i].Add(n)
		}
	}
	if n := src.count.Load(); n != 0 {
		h.count.Add(n)
		h.sum.Add(src.sum.Load())
		for v := src.min.Load(); ; {
			cur := h.min.Load()
			if v >= cur || h.min.CompareAndSwap(cur, v) {
				break
			}
		}
		for v := src.max.Load(); ; {
			cur := h.max.Load()
			if v <= cur || h.max.CompareAndSwap(cur, v) {
				break
			}
		}
	}
}

// BucketCount is one populated histogram bucket in a snapshot.
type BucketCount struct {
	Lo    int64 `json:"lo"` // inclusive (MinInt64 for the <=0 bucket)
	Hi    int64 `json:"hi"` // exclusive
	Count int64 `json:"count"`
}

// MetricSnapshot is one metric's state at snapshot time.
type MetricSnapshot struct {
	Name string `json:"name"`
	Kind string `json:"kind"` // counter, histogram, hires
	// Counter value.
	Value int64 `json:"value,omitempty"`
	// Histogram aggregates.
	Count   int64         `json:"count,omitempty"`
	Sum     int64         `json:"sum,omitempty"`
	Min     int64         `json:"min,omitempty"`
	Max     int64         `json:"max,omitempty"`
	Mean    float64       `json:"mean,omitempty"`
	Buckets []BucketCount `json:"buckets,omitempty"`
	// Hires quantile estimates (hires kind only).
	P50  float64 `json:"p50,omitempty"`
	P90  float64 `json:"p90,omitempty"`
	P99  float64 `json:"p99,omitempty"`
	P999 float64 `json:"p999,omitempty"`
}

// Snapshot returns every registered metric, sorted by (name, kind) so dumps
// are deterministic. Empty histograms and zero counters are included: a
// metric's presence documents that its instrumentation point was armed.
func (r *Registry) Snapshot() []MetricSnapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]MetricSnapshot, 0, len(r.counters)+len(r.hists)+len(r.hires))
	for name, c := range r.counters {
		out = append(out, MetricSnapshot{Name: name, Kind: "counter", Value: c.Value()})
	}
	for name, h := range r.hists {
		snap := MetricSnapshot{
			Name: name, Kind: "histogram",
			Count: h.Count(), Sum: h.Sum(), Min: h.Min(), Max: h.Max(), Mean: h.Mean(),
		}
		for i := 0; i < HistBuckets; i++ {
			if n := h.Bucket(i); n > 0 {
				snap.Buckets = append(snap.Buckets, BucketCount{Lo: BucketLo(i), Hi: BucketHi(i), Count: n})
			}
		}
		out = append(out, snap)
	}
	var scratch [HiResBuckets]int64
	for name, h := range r.hires {
		count, sum := h.CopyBuckets(scratch[:])
		var q [4]float64
		quantilesFromBuckets(scratch[:], 0, count, sampledQuantiles[:], q[:])
		snap := MetricSnapshot{
			Name: name, Kind: "hires",
			Count: count, Sum: sum,
			P50: q[0], P90: q[1], P99: q[2], P999: q[3],
		}
		if count > 0 {
			snap.Mean = float64(sum) / float64(count)
		}
		for i := 0; i < HiResBuckets; i++ {
			if n := scratch[i]; n > 0 {
				snap.Buckets = append(snap.Buckets, BucketCount{Lo: HiResBucketLo(i), Hi: HiResBucketHi(i), Count: n})
			}
		}
		out = append(out, snap)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Kind < out[j].Kind
	})
	return out
}
