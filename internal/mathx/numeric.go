package mathx

import "math"

// NegInf is the log-domain zero.
var NegInf = math.Inf(-1)

// LogSumExp returns log(Σ exp(xs[i])) computed stably. An empty input or
// an input of all -Inf returns -Inf.
func LogSumExp(xs []float64) float64 {
	if len(xs) == 0 {
		return NegInf
	}
	max := NegInf
	for _, x := range xs {
		if x > max {
			max = x
		}
	}
	if math.IsInf(max, -1) {
		return NegInf
	}
	var s float64
	for _, x := range xs {
		s += math.Exp(x - max)
	}
	return max + math.Log(s)
}

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

// Sum returns the sum of xs.
func Sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// Dot returns the inner product of a and b.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("mathx: Dot length mismatch")
	}
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// AlmostEqual reports |a-b| <= tol, treating equal infinities as equal.
func AlmostEqual(a, b, tol float64) bool {
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		return a == b
	}
	return math.Abs(a-b) <= tol
}
