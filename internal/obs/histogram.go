package obs

import (
	"math/bits"
	"sync/atomic"
)

// histBuckets is the bucket count: bucket 0 holds values <= 0, bucket i
// (1..64) holds values v with 2^(i-1) <= v < 2^i. Power-of-two bucketing
// keeps Observe lock-free (one atomic add) while bounding quantile error
// to a factor of two — ample for the latency distributions the paper
// reports (p50/p95/p99 at millisecond scales).
const histBuckets = 65

// Histogram is a lock-free histogram of durations, in nanoseconds: every
// histogram the stack creates records one, and the text dump renders its
// quantiles as time.Duration. The zero value is ready to use.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bucketOf(v)].Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Snapshot copies the histogram's state for quantile math and merging.
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{Count: h.count.Load(), Sum: h.sum.Load()}
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v)) // 1..63 for positive int64
}

// bucketBounds returns the half-open value interval [lo, hi) covered by
// bucket i.
func bucketBounds(i int) (lo, hi float64) {
	if i <= 0 {
		return 0, 1
	}
	return float64(int64(1) << (i - 1)), float64(int64(1) << i)
}

// HistSnapshot is an immutable copy of a histogram, the unit of merging
// and percentile math.
type HistSnapshot struct {
	Count   int64              `json:"count"`
	Sum     int64              `json:"sum"`
	Buckets [histBuckets]int64 `json:"buckets"`
}

// Merge returns the snapshot combining s and o — exactly the histogram
// that would have observed both value streams.
func (s HistSnapshot) Merge(o HistSnapshot) HistSnapshot {
	out := HistSnapshot{Count: s.Count + o.Count, Sum: s.Sum + o.Sum}
	for i := range s.Buckets {
		out.Buckets[i] = s.Buckets[i] + o.Buckets[i]
	}
	return out
}

// Quantile estimates the q-quantile (q in [0, 1]) by locating the bucket
// holding the target rank and interpolating linearly within its bounds.
// With no observations it returns 0.
func (s HistSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(s.Count)
	if target < 1 {
		target = 1
	}
	var cum float64
	for i, n := range s.Buckets {
		if n == 0 {
			continue
		}
		prev := cum
		cum += float64(n)
		if cum >= target {
			lo, hi := bucketBounds(i)
			frac := (target - prev) / float64(n)
			return lo + (hi-lo)*frac
		}
	}
	_, hi := bucketBounds(histBuckets - 1)
	return hi
}
