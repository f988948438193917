package telemetry

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"repro/internal/sim"
)

// refSampler is the sampler as it stood before Tick learned to skip idle
// histograms and to store only the rows that moved: every tick appends one
// row to every series, and a hires row copies all 960 buckets, subtracts the
// previous copy, walks the deltas once per quantile and adds them back. Kept
// verbatim (with the quantile walk it called) as the oracle for Tick and
// Series.
type refSampler struct {
	reg      *Registry
	counters []*refSamplerCounter
	hires    []*refSamplerHiRes
	byName   map[string]int
}

type refSamplerCounter struct {
	name    string
	c       *Counter
	prev    int64
	samples []Sample
}

type refSamplerHiRes struct {
	name    string
	h       *HiResHistogram
	prev    []int64
	cur     []int64
	prevCnt int64
	prevSum int64
	samples []QuantileSample
}

func (s *refSampler) refresh() {
	s.reg.mu.Lock()
	defer s.reg.mu.Unlock()
	if len(s.counters) == len(s.reg.counters) && len(s.hires) == len(s.reg.hires) {
		return
	}
	for name, c := range s.reg.counters {
		if _, ok := s.byName["c:"+name]; !ok {
			s.byName["c:"+name] = len(s.counters)
			s.counters = append(s.counters, &refSamplerCounter{name: name, c: c})
		}
	}
	for name, h := range s.reg.hires {
		if _, ok := s.byName["h:"+name]; !ok {
			s.byName["h:"+name] = len(s.hires)
			s.hires = append(s.hires, &refSamplerHiRes{
				name: name, h: h,
				prev: make([]int64, HiResBuckets),
				cur:  make([]int64, HiResBuckets),
			})
		}
	}
	sort.Slice(s.counters, func(i, j int) bool { return s.counters[i].name < s.counters[j].name })
	sort.Slice(s.hires, func(i, j int) bool { return s.hires[i].name < s.hires[j].name })
	for i, c := range s.counters {
		s.byName["c:"+c.name] = i
	}
	for i, h := range s.hires {
		s.byName["h:"+h.name] = i
	}
}

func (s *refSampler) Tick(at sim.Time) {
	s.refresh()
	for _, c := range s.counters {
		v := c.c.Value()
		c.samples = append(c.samples, Sample{T: at, V: v - c.prev})
		c.prev = v
	}
	for _, h := range s.hires {
		count, sum := h.h.CopyBuckets(h.cur)
		dc, ds := count-h.prevCnt, sum-h.prevSum
		for i := range h.cur {
			h.cur[i] -= h.prev[i]
		}
		h.samples = append(h.samples, QuantileSample{
			T: at, Count: dc, Sum: ds,
			P50:  refQuantileFromBuckets(h.cur, dc, 0.50),
			P90:  refQuantileFromBuckets(h.cur, dc, 0.90),
			P99:  refQuantileFromBuckets(h.cur, dc, 0.99),
			P999: refQuantileFromBuckets(h.cur, dc, 0.999),
		})
		for i := range h.cur {
			h.prev[i] += h.cur[i]
		}
		h.prevCnt, h.prevSum = count, sum
	}
}

func (s *refSampler) Series() []Series {
	out := make([]Series, 0, len(s.counters)+len(s.hires))
	for _, c := range s.counters {
		out = append(out, Series{Name: c.name, Kind: KindCounter, Samples: c.samples})
	}
	for _, h := range s.hires {
		out = append(out, Series{Name: h.name, Kind: KindHiRes, Quantiles: h.samples})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Kind < out[j].Kind
	})
	return out
}

func refQuantileFromBuckets(buckets []int64, count int64, q float64) float64 {
	if count <= 0 {
		return 0
	}
	target := int64(math.Ceil(q * float64(count)))
	if target < 1 {
		target = 1
	}
	if target > count {
		target = count
	}
	var cum int64
	for i, c := range buckets {
		if c == 0 {
			continue
		}
		cum += c
		if cum < target {
			continue
		}
		if i == 0 {
			return 0
		}
		lo, hi := HiResBucketLo(i), HiResBucketHi(i)
		pos := target - (cum - c) // 1..c within this bucket
		frac := float64(pos) / float64(c)
		return float64(lo) + frac*float64(hi-lo)
	}
	return 0
}

// TestSamplerTickMatchesSevenPassTick runs 60 seeded programs — bursts of
// observations across the whole value range (non-positive, exact small
// values, both ends of the layout, one bucket hit many times), idle
// intervals, metrics registered between ticks, a second registry merged in,
// and from seed 40 on idle stretches of 100 ticks or more, each after a tick
// off the cadence — through Tick and through the reference, both sampling
// the same registry.
func TestSamplerTickMatchesSevenPassTick(t *testing.T) {
	values := func(rng *rand.Rand) int64 {
		switch rng.Intn(6) {
		case 0:
			return int64(rng.Intn(20)) - 3
		case 1:
			return 1000 + int64(rng.Intn(64))
		case 2:
			return math.MaxInt64 - int64(rng.Intn(1000))
		case 3:
			return 1 << uint(rng.Intn(62))
		default:
			return rng.Int63n(1_000_000)
		}
	}
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		reg := NewRegistry()
		got := NewSampler(reg, sim.Millisecond)
		want := &refSampler{reg: reg, byName: make(map[string]int)}
		var hs []*HiResHistogram
		var cs []*Counter
		at := sim.Time(0)
		tick := func(gap sim.Time) {
			at += gap
			got.Tick(at)
			want.Tick(at)
		}
		for step := 1; step <= 30; step++ {
			if step == 1 || rng.Intn(6) == 0 { // late registration included
				hs = append(hs, reg.HiRes(fmt.Sprintf("h%d", rng.Intn(8))))
				cs = append(cs, reg.Counter(fmt.Sprintf("c%d", rng.Intn(8))))
			}
			switch rng.Intn(4) {
			case 0: // idle interval
			case 1: // one histogram, one bucket, many times
				h, v := hs[rng.Intn(len(hs))], values(rng)
				for i, n := 0, 1+rng.Intn(2000); i < n; i++ {
					h.Observe(v)
				}
			case 2:
				other := NewRegistry()
				other.HiRes("h0").Observe(values(rng))
				other.HiRes("merged").Observe(values(rng))
				other.MergeInto(reg)
			default:
				for i, n := 0, rng.Intn(300); i < n; i++ {
					hs[rng.Intn(len(hs))].Observe(values(rng))
					cs[rng.Intn(len(cs))].Add(int64(rng.Intn(100)))
				}
			}
			tick(sim.Millisecond)
			if seed >= 40 && rng.Intn(8) == 0 {
				// Off the cadence once, then idle.
				tick(sim.Time(1+rng.Intn(3)) * sim.Millisecond / 2)
				for i, n := 0, 100+rng.Intn(200); i < n; i++ {
					tick(sim.Millisecond)
				}
			}
		}
		if g, w := got.Series(), want.Series(); !reflect.DeepEqual(g, w) {
			for i := range w {
				if i >= len(g) || !reflect.DeepEqual(g[i], w[i]) {
					t.Fatalf("seed %d: series %d (%s) differs\ngot:  %+v\nwant: %+v", seed, i, w[i].Name, g[i], w[i])
				}
			}
			t.Fatalf("seed %d: %d series, want %d", seed, len(g), len(w))
		}
	}
}

// idleSampler is a sampler over eight hires histograms and eight counters
// that were active once and are idle now — the common state of most metrics
// on most 1 ms ticks of a run.
func idleSampler() *Sampler {
	reg := NewRegistry()
	for i := 0; i < 8; i++ {
		reg.HiRes(fmt.Sprintf("h%d", i)).Observe(int64(i) * 1000)
		reg.Counter(fmt.Sprintf("c%d", i)).Add(1)
	}
	s := NewSampler(reg, sim.Millisecond)
	s.Tick(sim.Millisecond)
	return s
}

// TestSamplerIdleTickAllocs: a tick over histograms and counters nothing
// touched since the last one allocates nothing but the row slices' amortized
// growth (AllocsPerRun averages that to zero over its runs).
func TestSamplerIdleTickAllocs(t *testing.T) {
	s := idleSampler()
	at := sim.Millisecond
	if avg := testing.AllocsPerRun(2000, func() {
		at += sim.Millisecond
		s.Tick(at)
	}); avg != 0 {
		t.Errorf("idle tick allocates %.2f times, want 0", avg)
	}
}

// TestSamplerIdleTickBytes: idle ticks store the tick time and no row.
// 1 000 of them over idleSampler's sixteen series stored 576 KB of rows
// when every series kept one row a tick.
func TestSamplerIdleTickBytes(t *testing.T) {
	s := idleSampler()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 1000; i++ {
		s.Tick(sim.Time(i+2) * sim.Millisecond)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 16<<10 {
		t.Errorf("1 000 idle ticks allocated %d B, want under 16 KiB", got)
	}
}

// TestSamplerLateRegistrationAllocs: the tick after a metric is registered
// late adopts it at a cost independent of how many names the sampler already
// follows. A sampler that re-keyed every name allocated one key per name.
func TestSamplerLateRegistrationAllocs(t *testing.T) {
	reg := NewRegistry()
	for i := 0; i < 32; i++ {
		reg.Counter(fmt.Sprintf("counter.%02d", i)).Add(1)
	}
	for i := 0; i < 8; i++ {
		reg.HiRes(fmt.Sprintf("hires.%d", i)).Observe(int64(i) * 1000)
	}
	s := NewSampler(reg, sim.Millisecond)
	s.Tick(sim.Millisecond)
	for i := 0; i < 8; i++ {
		reg.Counter(fmt.Sprintf("late.%d", i))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s.Tick(sim.Time(i+2) * sim.Millisecond)
		runtime.ReadMemStats(&after)
		if got := after.Mallocs - before.Mallocs; got > 3 {
			t.Fatalf("tick after late registration %d allocated %d objects, want at most 3", i, got)
		}
	}
	if got := len(s.Series()); got != 48 {
		t.Errorf("%d series, want 48", got)
	}
}

func BenchmarkSamplerTickIdle(b *testing.B) {
	s := idleSampler()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Tick(sim.Time(i+2) * sim.Millisecond)
	}
}
