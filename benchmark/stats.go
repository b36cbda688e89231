package main

import "sort"

// median returns the middle value of xs (the mean of the middle two
// for an even count). It panics on an empty slice: every caller has
// at least one sample by construction.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// medianOrZero is median, with 0 for no samples: a layer the workload
// bypasses has nothing to time.
func medianOrZero(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}

// minMax returns the extremes of xs.
func minMax(xs []float64) (lo, hi float64) {
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		lo, hi = min(lo, x), max(hi, x)
	}
	return lo, hi
}

// spreadPct is (max − min) / median in percent: the run's own
// repetition-to-repetition noise, reported as harness.rep_spread_pct.
func spreadPct(xs []float64) float64 {
	lo, hi := minMax(xs)
	return 100 * (hi - lo) / median(xs)
}
