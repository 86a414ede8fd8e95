package main

import (
	"math"
	"sort"
)

// quantile is the nearest-rank quantile of vals (0 for none): the smallest
// value with at least share p of the sample at or below it. With fewer than
// a hundred values the 99th percentile is the maximum.
func quantile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// quartiles returns the first quartile, median and third quartile of vals
// the way Python's statistics.quantiles(vals, n=4) does (the exclusive
// method), which is how the spreads in README.md were taken. One value is
// its own quartiles.
func quartiles(vals []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		pos := float64(i) * float64(n+1) / 4
		j := min(max(int(pos), 1), n-1)
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}
