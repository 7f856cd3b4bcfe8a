package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between order statistics; 0 for empty input.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (exclusive method), which is what
// the spread criterion in README.md is stated in.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n < 2 {
		m := median(xs)
		return m, m
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(k int) float64 {
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(k*(n+1)) - float64(j)*4
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}

// tailPercentile names the highest percentile of n samples that still
// has at least ten samples beyond it (choosing-metrics §1).
func tailPercentile(n int) float64 {
	if n <= 10 {
		return 50
	}
	return 100 * (1 - 10/float64(n))
}

// windowed splits xs into k consecutive windows, takes the p-th
// percentile of each and returns the median of those: a tail estimate
// that one scheduler hiccup in one window cannot move.
func windowed(xs []float64, k int, p float64) float64 {
	if len(xs) < k*2 {
		return percentile(xs, p)
	}
	per := make([]float64, 0, k)
	for i := 0; i < k; i++ {
		per = append(per, percentile(xs[i*len(xs)/k:(i+1)*len(xs)/k], p))
	}
	return median(per)
}
