package mathx

import "math"

// NegInf is the log-domain zero.
var NegInf = math.Inf(-1)

// NormalLogPDF returns the log density of Normal(mean, sigma²) at x.
// sigma must be positive.
func NormalLogPDF(x, mean, sigma float64) float64 {
	if sigma <= 0 {
		panic("mathx: NormalLogPDF requires sigma > 0")
	}
	z := (x - mean) / sigma
	return -0.5*z*z - math.Log(sigma) - 0.5*math.Log(2*math.Pi)
}

// Normalize scales xs in place to sum to 1 and returns the original sum.
// If the sum is zero the vector becomes uniform.
func Normalize(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	if s == 0 {
		u := 1 / float64(len(xs))
		for i := range xs {
			xs[i] = u
		}
		return 0
	}
	for i := range xs {
		xs[i] /= s
	}
	return s
}

// ArgMax returns the index of the maximum element (first on ties) and the
// maximum value. Panics on empty input.
func ArgMax(xs []float64) (int, float64) {
	if len(xs) == 0 {
		panic("mathx: ArgMax on empty slice")
	}
	bi, bv := 0, xs[0]
	for i, x := range xs {
		if x > bv {
			bi, bv = i, x
		}
	}
	return bi, bv
}
