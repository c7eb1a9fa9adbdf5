package main

import (
	"math"
	"sort"
	"time"
)

// nearestRank returns the p-th percentile (0 < p ≤ 100) of xs by the
// nearest-rank rule: the smallest sample with at least p % of the samples
// at or below it. It returns 0 for an empty slice. xs is not modified.
func nearestRank(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	r := int(math.Ceil(p / 100 * float64(len(s))))
	if r < 1 {
		r = 1
	}
	if r > len(s) {
		r = len(s)
	}
	return s[r-1]
}

// median is the nearest-rank 50th percentile.
func median(xs []float64) float64 { return nearestRank(xs, 50) }

// tailPercentile returns the highest whole percentile that leaves at
// least ten of n samples beyond its nearest rank, which is the highest
// tail a sample of n can state honestly. ok is false when n < 11.
func tailPercentile(n int) (p int, ok bool) {
	for p = 99; p >= 1; p-- {
		r := int(math.Ceil(float64(p) / 100 * float64(n)))
		if n-r >= 10 {
			return p, true
		}
	}
	return 0, false
}

// quartiles returns the first, second and third quartile of xs by the
// same rule as Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method), so that spreads agree with the ones the benchmark
// is judged by. It needs at least two samples.
func quartiles(xs []float64) (q1, q2, q3 float64, ok bool) {
	n := len(xs)
	if n < 2 {
		return 0, 0, 0, false
	}
	s := sortedCopy(xs)
	m := n + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2], true
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// interval is a half-open time range [start, end) on the recorder clock.
type interval struct{ start, end time.Duration }

// unionWithin returns the total length of the union of ivs clipped to
// [lo, hi). Overlapping intervals, such as solver calls running on two
// workers at once, count once.
func unionWithin(ivs []interval, lo, hi time.Duration) time.Duration {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		s, e := max(iv.start, lo), min(iv.end, hi)
		if e > s {
			clipped = append(clipped, interval{s, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var total time.Duration
	var cur interval
	for i, iv := range clipped {
		switch {
		case i == 0:
			cur = iv
		case iv.start <= cur.end:
			cur.end = max(cur.end, iv.end)
		default:
			total += cur.end - cur.start
			cur = iv
		}
	}
	if len(clipped) > 0 {
		total += cur.end - cur.start
	}
	return total
}
