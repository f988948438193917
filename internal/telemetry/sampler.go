package telemetry

import (
	"cmp"
	"slices"
	"strings"

	"repro/internal/sim"
)

// Sampler snapshots a Registry's deltas at a fixed sim-time cadence into
// per-metric series. It is driven by the simulation kernel's sampling hook
// (sim.Env.SetSampler), which guarantees the sample at time S reflects
// exactly the events scheduled at or before S, by clamping the scheduler's
// window horizons to the next sample time and firing at the barrier.
// Because the hook never schedules heap events, sampling perturbs nothing:
// event sequence numbers, executed counts and rendered output are identical
// with sampling on or off.
//
// Counters are recorded as per-interval deltas (rates fall out at export
// time); hires histograms as per-interval quantile rows computed from
// bucket deltas against the previous tick — a histogram nothing observed
// into since the last tick costs two loads, an active one a pass over the
// buckets its values have ever touched. The sampler stores the tick times
// once, as runs of evenly spaced ticks, and per series only the rows that
// moved; Series writes the zero rows back, so every series has one row per
// tick from the tick it appeared on and timelines from different runs align
// by construction.
type Sampler struct {
	reg    *Registry
	every  sim.Time
	ticks  []tickRun // the tick times, in order
	nTicks int

	counters []*samplerCounter // sorted by name
	hires    []*samplerHiRes   // sorted by name
	delta    []int64           // scratch: one histogram's bucket deltas
}

// tickRun is n ticks one sampling interval apart, the first at sim time at.
// The kernel's hook ticks at a fixed cadence, so a sampler's ticks are
// usually one tickRun.
type tickRun struct {
	at sim.Time
	n  int
}

type samplerCounter struct {
	name  string
	c     *Counter
	prev  int64
	first int          // tick index the series appeared on
	rows  []counterRow // the non-zero deltas
}

// counterRow is a non-zero counter delta at tick index k.
type counterRow struct {
	k int32
	v int64
}

type samplerHiRes struct {
	name    string
	h       *HiResHistogram
	prev    []int64 // previous tick's cumulative buckets [0, hi) of the touched range
	prevCnt int64
	prevSum int64
	first   int              // tick index the series appeared on
	rows    []QuantileSample // the rows whose Count or Sum moved, T holding the tick index
}

// NewSampler creates a sampler over reg ticking every `every` of sim time.
func NewSampler(reg *Registry, every sim.Time) *Sampler {
	return &Sampler{reg: reg, every: every}
}

// Every returns the sampling interval.
func (s *Sampler) Every() sim.Time { return s.every }

// refresh syncs the sampler's metric lists with the registry, picking up
// metrics registered since the last tick. New metrics start sampling from
// the tick they appear on (their earlier intervals have no rows); since
// metric registration is part of deterministic simulation setup, the
// resulting series shapes are still identical across worker counts.
func (s *Sampler) refresh() {
	s.reg.mu.Lock()
	defer s.reg.mu.Unlock()
	if len(s.counters) == len(s.reg.counters) && len(s.hires) == len(s.reg.hires) {
		return
	}
	// Registration only adds names, so a registry name missing from the
	// sorted lists is new; the lists are sorted again once it is appended.
	n := len(s.counters)
	for name, c := range s.reg.counters {
		if _, ok := slices.BinarySearchFunc(s.counters[:n], name, func(c *samplerCounter, name string) int {
			return strings.Compare(c.name, name)
		}); !ok {
			s.counters = append(s.counters, &samplerCounter{name: name, c: c, first: s.nTicks})
		}
	}
	if len(s.counters) > n {
		slices.SortFunc(s.counters, func(a, b *samplerCounter) int { return strings.Compare(a.name, b.name) })
	}
	n = len(s.hires)
	for name, h := range s.reg.hires {
		if _, ok := slices.BinarySearchFunc(s.hires[:n], name, func(h *samplerHiRes, name string) int {
			return strings.Compare(h.name, name)
		}); !ok {
			s.hires = append(s.hires, &samplerHiRes{name: name, h: h, first: s.nTicks})
		}
	}
	if len(s.hires) > n {
		slices.SortFunc(s.hires, func(a, b *samplerHiRes) int { return strings.Compare(a.name, b.name) })
	}
}

// Tick takes one sample at sim time at. It is called from the scheduler's
// sampling hook — between event dispatches, with all registry writers
// settled — so plain reads of the atomic handles see a consistent prefix of
// the run.
func (s *Sampler) Tick(at sim.Time) {
	s.refresh()
	k := s.nTicks
	s.nTicks++
	if n := len(s.ticks); n > 0 && s.ticks[n-1].at+sim.Time(s.ticks[n-1].n)*s.every == at {
		s.ticks[n-1].n++
	} else {
		s.ticks = append(s.ticks, tickRun{at: at, n: 1})
	}
	for _, c := range s.counters {
		if v := c.c.Value(); v != c.prev {
			c.rows = append(c.rows, counterRow{k: int32(k), v: v - c.prev})
			c.prev = v
		}
	}
	for _, h := range s.hires {
		count, sum := h.h.Count(), h.h.Sum()
		if count == h.prevCnt && sum == h.prevSum {
			continue
		}
		row := QuantileSample{T: sim.Time(k), Count: count - h.prevCnt, Sum: sum - h.prevSum}
		if count != h.prevCnt {
			lo, hi := h.h.touched()
			if grow := hi - len(h.prev); grow > 0 {
				h.prev = append(h.prev, make([]int64, grow)...)
			}
			if len(s.delta) < hi-lo {
				s.delta = make([]int64, hi-lo)
			}
			delta := s.delta[:hi-lo]
			for i := range delta {
				v := h.h.buckets[lo+i].Load()
				delta[i] = v - h.prev[lo+i]
				h.prev[lo+i] = v
			}
			var q [4]float64
			quantilesFromBuckets(delta, lo, row.Count, sampledQuantiles[:], q[:])
			row.P50, row.P90, row.P99, row.P999 = q[0], q[1], q[2], q[3]
		}
		h.rows = append(h.rows, row)
		h.prevCnt, h.prevSum = count, sum
	}
}

// sampledQuantiles are the columns of a QuantileSample, ascending.
var sampledQuantiles = [4]float64{0.50, 0.90, 0.99, 0.999}

// Series returns the accumulated series, sorted by (name, kind): one row
// per tick from the tick each series appeared on, the zero rows written
// back. Each call builds new row slices at their exact size, which the
// caller owns.
func (s *Sampler) Series() []Series {
	ticks := make([]sim.Time, 0, s.nTicks)
	for _, r := range s.ticks {
		for i := 0; i < r.n; i++ {
			ticks = append(ticks, r.at+sim.Time(i)*s.every)
		}
	}
	out := make([]Series, 0, len(s.counters)+len(s.hires))
	for _, c := range s.counters {
		samples := make([]Sample, len(ticks)-c.first)
		for i := range samples {
			samples[i].T = ticks[c.first+i]
		}
		for _, r := range c.rows {
			samples[int(r.k)-c.first].V = r.v
		}
		out = append(out, Series{Name: c.name, Kind: KindCounter, Samples: samples})
	}
	for _, h := range s.hires {
		quantiles := make([]QuantileSample, len(ticks)-h.first)
		for i := range quantiles {
			quantiles[i].T = ticks[h.first+i]
		}
		for _, r := range h.rows {
			i := int(r.T) - h.first
			r.T = quantiles[i].T
			quantiles[i] = r
		}
		out = append(out, Series{Name: h.name, Kind: KindHiRes, Quantiles: quantiles})
	}
	slices.SortFunc(out, func(a, b Series) int {
		return cmp.Or(strings.Compare(a.Name, b.Name), strings.Compare(a.Kind, b.Kind))
	})
	return out
}
