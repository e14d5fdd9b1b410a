package main

import "sort"

// quantile is the q-quantile of xs by linear interpolation between
// order statistics (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailOf returns the highest order statistic with at least ten samples
// beyond it, and its percentile. With ten samples or fewer no sample
// qualifies, and the maximum is returned as the 100th percentile.
func tailOf(xs []float64) (value, percentile float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n <= 10 {
		return s[n-1], 100
	}
	i := n - 11
	return s[i], 100 * float64(i+1) / float64(n)
}
