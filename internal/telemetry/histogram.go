package telemetry

import (
	"sync/atomic"
	"time"
)

// DefaultBuckets are the upper bounds, in nanoseconds, of the fixed latency
// buckets used by every Histogram. They span 250ns to 30s on a 1-2.5-5
// ladder, wide enough to cover both in-process oracle dispatch (hundreds of
// nanoseconds) and exec-oracle or whole-job latencies (seconds). The final
// implicit bucket is +Inf.
var DefaultBuckets = []time.Duration{
	250 * time.Nanosecond,
	500 * time.Nanosecond,
	1 * time.Microsecond,
	2500 * time.Nanosecond,
	5 * time.Microsecond,
	10 * time.Microsecond,
	25 * time.Microsecond,
	50 * time.Microsecond,
	100 * time.Microsecond,
	250 * time.Microsecond,
	500 * time.Microsecond,
	1 * time.Millisecond,
	2500 * time.Microsecond,
	5 * time.Millisecond,
	10 * time.Millisecond,
	25 * time.Millisecond,
	50 * time.Millisecond,
	100 * time.Millisecond,
	250 * time.Millisecond,
	500 * time.Millisecond,
	1 * time.Second,
	2500 * time.Millisecond,
	5 * time.Second,
	10 * time.Second,
	30 * time.Second,
}

const numBuckets = 26 // len(DefaultBuckets) + the +Inf overflow bucket

// Histogram is a fixed-bucket latency histogram. Observations are binned
// into DefaultBuckets; count, sum, and max are tracked exactly, and
// quantiles are estimated from the bucket counts by linear interpolation.
// All methods are safe for concurrent use and the observation path performs
// no allocation.
type Histogram struct {
	count   atomic.Uint64
	sumNS   atomic.Int64
	maxNS   atomic.Int64
	buckets [numBuckets]atomic.Uint64
}

// Observe records a single latency observation.
func (h *Histogram) Observe(d time.Duration) { h.ObserveN(d, 1) }

// ObserveN records n observations of the same latency d in one shot. It is
// used by batch oracles that know the per-item mean but not the individual
// item latencies: the batch contributes n samples at the mean, matching the
// attribution convention of metrics.QueryStats.
func (h *Histogram) ObserveN(d time.Duration, n int) {
	if n <= 0 {
		return
	}
	if d < 0 {
		d = 0
	}
	h.count.Add(uint64(n))
	h.sumNS.Add(int64(d) * int64(n))
	for {
		old := h.maxNS.Load()
		if int64(d) <= old || h.maxNS.CompareAndSwap(old, int64(d)) {
			break
		}
	}
	h.buckets[bucketIndex(d)].Add(uint64(n))
}

// bucketIndex returns the index of the bucket that d falls into. The table
// is small enough that a linear scan beats binary search in practice.
func bucketIndex(d time.Duration) int {
	for i, b := range DefaultBuckets {
		if d <= b {
			return i
		}
	}
	return numBuckets - 1
}

// Snapshot returns a point-in-time copy of the histogram state. The copy is
// internally consistent enough for reporting: bucket counts are read after
// count/sum/max, so derived quantiles are never ahead of the totals by more
// than the observations that raced the snapshot.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	s.Count = h.count.Load()
	s.Sum = time.Duration(h.sumNS.Load())
	s.Max = time.Duration(h.maxNS.Load())
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// HistogramSnapshot is an immutable copy of a Histogram's state.
type HistogramSnapshot struct {
	// Count is the total number of observations.
	Count uint64
	// Sum is the sum of all observed latencies.
	Sum time.Duration
	// Max is the largest single observation.
	Max time.Duration
	// Buckets holds the per-bucket observation counts; Buckets[i] counts
	// observations <= DefaultBuckets[i], with the final slot counting the
	// +Inf overflow.
	Buckets [numBuckets]uint64
}

// Mean returns the mean observed latency, or zero with no observations.
func (s HistogramSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / time.Duration(s.Count)
}

// Quantile estimates the q-th quantile (0 < q <= 1) by walking the
// cumulative bucket counts and linearly interpolating within the bucket
// that contains the target rank. The estimate is clamped to Max so the
// overflow bucket never reports beyond the largest real observation.
func (s HistogramSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 || q <= 0 {
		return 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	var cum uint64
	lower := time.Duration(0)
	for i, n := range s.Buckets {
		if n == 0 {
			if i < len(DefaultBuckets) {
				lower = DefaultBuckets[i]
			}
			continue
		}
		next := cum + n
		if float64(next) >= rank {
			if i == len(DefaultBuckets) {
				// Overflow bucket: no finite upper bound to interpolate
				// against, so report the largest real observation.
				return s.Max
			}
			upper := DefaultBuckets[i]
			if upper > s.Max && s.Max > 0 {
				upper = s.Max
			}
			frac := (rank - float64(cum)) / float64(n)
			est := lower + time.Duration(frac*float64(upper-lower))
			if est > s.Max && s.Max > 0 {
				est = s.Max
			}
			return est
		}
		cum = next
		if i < len(DefaultBuckets) {
			lower = DefaultBuckets[i]
		}
	}
	return s.Max
}
