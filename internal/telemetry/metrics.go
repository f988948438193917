package telemetry

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Metrics registry: counters and log-linear histograms (HiResHistogram).
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

// Registry is a named collection of metrics. Getter methods are
// get-or-create and may be called from any goroutine; they are meant for
// setup time, not the record path. A nil Registry hands out nil handles,
// whose record methods are no-ops.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	hires    map[string]*HiResHistogram
}

// NewRegistry creates an empty metrics registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
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

// HiRes returns the histogram registered under name, creating it on first
// use. A name is registered under one kind: a counter or a histogram.
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

// MergeInto adds every counter and histogram of r into dst, creating names
// that dst lacks. All contributions are commutative
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
	for name, h := range r.hires {
		dst.HiRes(name).merge(h)
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
	Kind string `json:"kind"` // counter, hires
	// Counter value.
	Value int64 `json:"value,omitempty"`
	// Histogram aggregates.
	Count   int64         `json:"count,omitempty"`
	Sum     int64         `json:"sum,omitempty"`
	Mean    float64       `json:"mean,omitempty"`
	Buckets []BucketCount `json:"buckets,omitempty"`
	// Quantile estimates.
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
	out := make([]MetricSnapshot, 0, len(r.counters)+len(r.hires))
	for name, c := range r.counters {
		out = append(out, MetricSnapshot{Name: name, Kind: "counter", Value: c.Value()})
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
