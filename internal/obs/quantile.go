package obs

import "math"

// Histogram is a point-in-time snapshot of one histogram's folded
// state, in the shared power-of-two bucket layout (bucket 0 counts
// observations <= 1; bucket i>0 counts (2^(i-1), 2^i]). Snapshots are
// plain values: subtract two to get a windowed histogram, estimate
// quantiles with Quantile — the estimator behind `netctl top`.
type Histogram struct {
	Count [HistBuckets]int64
	Sum   int64
}

// Histogram snapshots histogram h's folded totals.
func (m *Metrics) Histogram(h Hist) Histogram {
	var out Histogram
	for b := 0; b < HistBuckets; b++ {
		out.Count[b] = m.hist[h].count[b].Load()
	}
	out.Sum = m.hist[h].sum.Load()
	return out
}

// Total returns the snapshot's observation count.
func (h Histogram) Total() int64 {
	var n int64
	for b := 0; b < HistBuckets; b++ {
		n += h.Count[b]
	}
	return n
}

// Sub returns the windowed histogram h - prev: the observations that
// arrived between the two snapshots.
func (h Histogram) Sub(prev Histogram) Histogram {
	out := Histogram{Sum: h.Sum - prev.Sum}
	for b := 0; b < HistBuckets; b++ {
		out.Count[b] = h.Count[b] - prev.Count[b]
	}
	return out
}

// Mean returns the snapshot's arithmetic mean (0 when empty). Unlike
// Quantile it is exact: the sum is tracked, not bucketed.
func (h Histogram) Mean() float64 {
	t := h.Total()
	if t == 0 {
		return 0
	}
	return float64(h.Sum) / float64(t)
}

// Quantile estimates the p-th quantile (p in [0,1]) by log-linear
// interpolation: the target rank's bucket is found on the cumulative
// counts, then the estimate interpolates linearly between the bucket's
// bounds — log-spaced bounds, linear within. The error is bounded by
// the bucket's width (a factor of two), which is the resolution this
// layout buys for 40 fixed slots; the unit tests pin known
// distributions to exactly that tolerance. An empty histogram
// estimates 0.
func (h Histogram) Quantile(p float64) float64 {
	edge := func(i int) float64 {
		if i == 0 {
			return 0
		}
		return float64(BucketBound(i - 1))
	}
	return quantile(h.Count[:], edge, p, float64(BucketBound(HistBuckets-1)))
}

// quantile is the bucket-interpolation rule of Histogram.Quantile and
// the runtime histograms: bucket i spans edge(i) to edge(i+1), p is
// clamped to [0,1], the target rank's bucket is found on the cumulative
// counts, and the estimate interpolates linearly between its edges. An
// infinite lower edge counts as 0 and an infinite upper edge yields the
// lower one. No counts estimate 0; top is the estimate if no bucket
// reaches the rank.
func quantile[C int64 | uint64](counts []C, edge func(i int) float64, p, top float64) float64 {
	var total C
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := min(max(p, 0), 1) * float64(total)
	cum := float64(0)
	for i, n := range counts {
		c := float64(n)
		if c == 0 {
			continue
		}
		if cum+c >= rank {
			lo, hi := edge(i), edge(i+1)
			if math.IsInf(lo, -1) {
				lo = 0
			}
			if math.IsInf(hi, 1) {
				return lo
			}
			return lo + (rank-cum)/c*(hi-lo)
		}
		cum += c
	}
	return top
}
