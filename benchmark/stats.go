package main

import (
	"math"
	"sort"

	"colza/internal/obs"
)

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile is the linearly interpolated q-quantile of xs (q in [0, 1]).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// tailLadder is tried from the top: a percentile is reported only when at
// least ten samples lie beyond it, i.e. with at least 10*oneIn samples.
var tailLadder = []struct {
	pct   float64
	oneIn int // one sample in this many lies beyond pct
}{{99.9, 1000}, {99, 100}, {95, 20}, {90, 10}, {75, 4}}

// tail returns the highest ladder percentile with at least ten samples
// beyond it, and its value; with too few samples for any, the median.
func tail(xs []float64) (pct, value float64) {
	for _, l := range tailLadder {
		if len(xs) >= 10*l.oneIn {
			return l.pct, quantile(xs, l.pct/100)
		}
	}
	return 50, median(xs)
}

// spread is (max - min) / median: the disagreement between rounds.
func spread(xs []float64) float64 {
	m := median(xs)
	if len(xs) < 2 || m == 0 {
		return 0
	}
	s := sorted(xs)
	return (s[len(s)-1] - s[0]) / m
}

// --- obs snapshot deltas -----------------------------------------------------

// counterDelta sums after-before over every label set of one counter name.
func counterDelta(before, after obs.Snapshot, name string) float64 {
	var d int64
	for k, v := range after.Counters {
		if metricName(k) == name {
			d += v - before.Counters[k]
		}
	}
	return float64(d)
}

// histDelta is the histogram of observations made between two snapshots,
// merged over the label sets accepted by keep (nil = all).
func histDelta(before, after obs.Snapshot, name string, keep func(key string) bool) obs.HistSnapshot {
	var out obs.HistSnapshot
	for k, a := range after.Histograms {
		if metricName(k) != name || (keep != nil && !keep(k)) {
			continue
		}
		b := before.Histograms[k]
		d := obs.HistSnapshot{Count: a.Count - b.Count, Sum: a.Sum - b.Sum}
		for i := range a.Buckets {
			d.Buckets[i] = a.Buckets[i] - b.Buckets[i]
		}
		out = out.Merge(d)
	}
	return out
}

// metricName strips the {label=value} suffix of an obs key.
func metricName(key string) string {
	for i := 0; i < len(key); i++ {
		if key[i] == '{' {
			return key[:i]
		}
	}
	return key
}
