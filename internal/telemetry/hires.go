package telemetry

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// Log-linear histograms: log2 major buckets split into linear sub-buckets
// (the HDR-histogram layout), the registry's one histogram type. They answer
// "what percentile" as well as "what order of magnitude": a quantile
// estimate is off by at most one sub-bucket width, a bounded relative error
// of about 1/2^SubBits, for a fixed, allocation-free bucket array. With zero
// sub-bits the layout would be a plain log2 histogram.

// SubBits is the number of linear sub-bucket bits per log2 major bucket: 16
// sub-buckets, so quantile interpolation error is bounded by 1/16 (~6%) of
// the estimated value.
const SubBits = 4

const subCount = 1 << SubBits

// HiResBuckets is the fixed bucket count of a HiResHistogram. Bucket 0
// catches values <= 0; buckets 1..15 hold the exactly-representable values
// 1..15; bucket 16*(g)+s (g >= 1) holds [2^(g-1)*(16+s), 2^(g-1)*(16+s+1)).
// The top group (values with 63 significant bits) ends at index 959.
const HiResBuckets = (64 - SubBits) * subCount

// hiResBucketOf maps a value to its bucket index.
func hiResBucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	if v < subCount {
		return int(v)
	}
	n := bits.Len64(uint64(v))
	sub := int(v>>(uint(n)-1-SubBits)) & (subCount - 1)
	return (n-SubBits)*subCount + sub
}

// HiResBucketLo returns the inclusive lower bound of bucket i.
func HiResBucketLo(i int) int64 {
	if i <= 0 {
		return math.MinInt64
	}
	if i < subCount {
		return int64(i)
	}
	g := i >> SubBits
	sub := int64(i & (subCount - 1))
	return (int64(subCount) + sub) << uint(g-1)
}

// HiResBucketHi returns the exclusive upper bound of bucket i.
func HiResBucketHi(i int) int64 {
	if i <= 0 {
		return 1
	}
	if i >= HiResBuckets-1 {
		return math.MaxInt64
	}
	return HiResBucketLo(i + 1)
}

// HiResHistogram is a fixed-layout log-linear histogram with count and sum.
// Recording is one bucket computation plus three atomic adds — no CAS
// min/max loop over values, since the extremes are recoverable from the
// populated buckets — so the record path stays allocation-free and cheap
// enough for per-packet sites. It also keeps the range of bucket indexes ever
// touched (two loads and compares once a site's values have settled), so the
// sampler reads the few dozen buckets a metric uses, not all 960.
type HiResHistogram struct {
	count atomic.Int64
	sum   atomic.Int64
	// Touched buckets are [HiResBuckets-loInv, hi). Both words only grow and
	// both are zero on the empty histogram, so the zero value stays ready.
	loInv   atomic.Int32
	hi      atomic.Int32
	buckets [HiResBuckets]atomic.Int64
}

// Observe records one value. No-op on a nil receiver; allocation-free.
func (h *HiResHistogram) Observe(v int64) {
	if h == nil {
		return
	}
	i := hiResBucketOf(v)
	h.touch(i, i+1)
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// touch widens the touched range to cover buckets [lo, hi).
func (h *HiResHistogram) touch(lo, hi int) {
	raise(&h.loInv, int32(HiResBuckets-lo))
	raise(&h.hi, int32(hi))
}

// raise lifts a to at least v.
func raise(a *atomic.Int32, v int32) {
	for {
		cur := a.Load()
		if cur >= v || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// touched returns the bucket range [lo, hi) outside which every bucket is
// still zero; lo >= hi on an empty histogram.
func (h *HiResHistogram) touched() (lo, hi int) {
	return HiResBuckets - int(h.loInv.Load()), int(h.hi.Load())
}

// Count returns the number of observations (0 on a nil receiver).
func (h *HiResHistogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observations.
func (h *HiResHistogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Bucket returns the count in bucket i.
func (h *HiResHistogram) Bucket(i int) int64 {
	if h == nil || i < 0 || i >= HiResBuckets {
		return 0
	}
	return h.buckets[i].Load()
}

// CopyBuckets loads every bucket into dst (which must have HiResBuckets
// capacity) and returns (count, sum). The sampler uses it to take interval
// deltas without allocating per tick.
func (h *HiResHistogram) CopyBuckets(dst []int64) (count, sum int64) {
	if h == nil {
		for i := range dst {
			dst[i] = 0
		}
		return 0, 0
	}
	for i := range h.buckets {
		dst[i] = h.buckets[i].Load()
	}
	return h.count.Load(), h.sum.Load()
}

// Quantile estimates the q-quantile (0 < q <= 1) of all observations so
// far: the cumulative bucket walk lands in one bucket, and the estimate
// interpolates linearly within it, so the error is bounded by that bucket's
// width. Returns 0 when empty.
func (h *HiResHistogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	var scratch [HiResBuckets]int64
	count, _ := h.CopyBuckets(scratch[:])
	return QuantileFromBuckets(scratch[:], count, q)
}

// merge adds src's buckets, count and sum into h.
func (h *HiResHistogram) merge(src *HiResHistogram) {
	if h == nil || src == nil {
		return
	}
	lo, hi := src.touched()
	h.touch(lo, hi) // widens nothing when src is empty
	for i := lo; i < hi; i++ {
		if n := src.buckets[i].Load(); n != 0 {
			h.buckets[i].Add(n)
		}
	}
	h.count.Add(src.count.Load())
	h.sum.Add(src.sum.Load())
}

// QuantileFromBuckets estimates the q-quantile of a HiResHistogram bucket
// vector holding count observations. Interpolation is linear within the
// landing bucket; the <=0 bucket estimates as 0.
func QuantileFromBuckets(buckets []int64, count int64, q float64) float64 {
	var out [1]float64
	quantilesFromBuckets(buckets, 0, count, []float64{q}, out[:])
	return out[0]
}

// quantilesFromBuckets estimates the ascending quantiles qs in one cumulative
// walk, where buckets[k] counts bucket base+k of the layout and count is the
// number of observations (the sampler hands it an interval's bucket deltas
// over the touched range). out[i] receives the qs[i] estimate, 0 when empty.
func quantilesFromBuckets(buckets []int64, base int, count int64, qs, out []float64) {
	clear(out)
	if count <= 0 {
		return
	}
	next := 0
	target := quantileRank(qs[0], count)
	var cum int64
	for k, c := range buckets {
		if c == 0 {
			continue
		}
		cum += c
		for cum >= target {
			if i := base + k; i > 0 {
				lo, hi := HiResBucketLo(i), HiResBucketHi(i)
				pos := target - (cum - c) // 1..c within this bucket
				frac := float64(pos) / float64(c)
				out[next] = float64(lo) + float64(frac*float64(hi-lo)) // rounded product: no FMA
			}
			if next++; next == len(qs) {
				return
			}
			target = quantileRank(qs[next], count)
		}
	}
}

// quantileRank is the 1-based rank of the observation the q-quantile lands on.
func quantileRank(q float64, count int64) int64 {
	rank := int64(math.Ceil(q * float64(count)))
	return min(max(rank, 1), count)
}
