// Package stats provides the summary statistics the Veritas experiment
// harness reports: means, percentiles, empirical CDFs and box-plot
// five-number summaries.
package stats

import (
	"math"
	"slices"
	"sort"
)

// Mean returns the arithmetic mean of xs, or NaN for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the population variance of xs, or NaN for empty input.
func Variance(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Percentile returns the p-th percentile (p in [0, 100]) using linear
// interpolation between order statistics. NaN for empty input.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return percentileSorted(sorted, p)
}

func percentileSorted(sorted []float64, p float64) float64 {
	if math.IsNaN(p) {
		return math.NaN() // a NaN rank must not become a slice index
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Percentiles returns the percentile of xs at every rank in ps (each in
// [0, 100]), sorting once however many ranks are asked for. Nil for
// empty xs.
func Percentiles(xs []float64, ps []float64) []float64 {
	if len(xs) == 0 || len(ps) == 0 {
		return nil
	}
	return PercentilesInPlace(slices.Clone(xs), ps)
}

// PercentilesInPlace is Percentiles over a series the caller owns and
// no longer needs in its input order: it sorts xs in place instead of a
// copy. The values are the same as Percentiles'.
func PercentilesInPlace(xs []float64, ps []float64) []float64 {
	if len(xs) == 0 || len(ps) == 0 {
		return nil
	}
	sort.Float64s(xs)
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = percentileSorted(xs, p)
	}
	return out
}

// Median returns the 50th percentile of xs.
func Median(xs []float64) float64 { return Percentile(xs, 50) }

// Min returns the minimum of xs, or NaN for empty input.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs, or NaN for empty input.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// BoxStats is a five-number summary plus the mean, the shape reported for
// each box in the paper's box plots (Figure 2a).
type BoxStats struct {
	Min, Q1, Median, Q3, Max, Mean float64
	N                              int
}

// Box computes the five-number summary of xs.
func Box(xs []float64) BoxStats {
	if len(xs) == 0 {
		nan := math.NaN()
		return BoxStats{Min: nan, Q1: nan, Median: nan, Q3: nan, Max: nan, Mean: nan}
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return BoxStats{
		Min:    sorted[0],
		Q1:     percentileSorted(sorted, 25),
		Median: percentileSorted(sorted, 50),
		Q3:     percentileSorted(sorted, 75),
		Max:    sorted[len(sorted)-1],
		Mean:   Mean(xs),
		N:      len(xs),
	}
}

// CDFPoint is one point of an empirical CDF.
type CDFPoint struct {
	X float64 // value
	P float64 // fraction of samples <= X
}

// CDF returns the empirical CDF of xs evaluated at every sample point.
func CDF(xs []float64) []CDFPoint {
	return CDFInPlace(slices.Clone(xs))
}

// CDFInPlace is CDF over a series the caller owns and no longer needs
// in its input order: it sorts xs in place instead of a copy.
func CDFInPlace(xs []float64) []CDFPoint {
	if len(xs) == 0 {
		return nil
	}
	sort.Float64s(xs)
	out := make([]CDFPoint, len(xs))
	n := float64(len(xs))
	for i, x := range xs {
		out[i] = CDFPoint{X: x, P: float64(i+1) / n}
	}
	return out
}
