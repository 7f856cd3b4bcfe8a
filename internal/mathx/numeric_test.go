package mathx

import (
	"math"
	"math/rand"
	"testing"
)

func TestNormalLogPDFPeak(t *testing.T) {
	// Density at the mean of a standard normal.
	got := math.Exp(NormalLogPDF(0, 0, 1))
	want := 1 / math.Sqrt(2*math.Pi)
	if !almostEqual(got, want, 1e-12) {
		t.Errorf("pdf(0;0,1) = %v, want %v", got, want)
	}
}

func TestNormalLogPDFSymmetry(t *testing.T) {
	a := NormalLogPDF(2, 5, 1.5)
	b := NormalLogPDF(8, 5, 1.5)
	if !almostEqual(a, b, 1e-12) {
		t.Errorf("normal pdf not symmetric: %v vs %v", a, b)
	}
}

func TestNormalLogPDFBadSigma(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NormalLogPDF with sigma <= 0 did not panic")
		}
	}()
	NormalLogPDF(0, 0, 0)
}

func TestNormalize(t *testing.T) {
	xs := []float64{1, 3}
	Normalize(xs)
	if xs[0] != 0.25 || xs[1] != 0.75 {
		t.Errorf("Normalize = %v", xs)
	}
	zeros := []float64{0, 0, 0, 0}
	Normalize(zeros)
	for _, v := range zeros {
		if v != 0.25 {
			t.Errorf("Normalize zeros -> %v, want uniform", zeros)
		}
	}
}

func TestArgMax(t *testing.T) {
	i, v := ArgMax([]float64{3, 9, 2, 9})
	if i != 1 || v != 9 {
		t.Errorf("ArgMax = (%d, %v), want (1, 9) with first-tie rule", i, v)
	}
}

func TestSampleCategoricalDeterministicExtremes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		if got := SampleCategorical(rng, []float64{0, 0, 1, 0}); got != 2 {
			t.Fatalf("SampleCategorical point mass drew %d", got)
		}
	}
}

func TestSampleCategoricalFrequencies(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	w := []float64{1, 3}
	counts := [2]int{}
	const n = 20000
	for i := 0; i < n; i++ {
		counts[SampleCategorical(rng, w)]++
	}
	frac := float64(counts[1]) / n
	if math.Abs(frac-0.75) > 0.02 {
		t.Errorf("weight-3 arm frequency %v, want ~0.75", frac)
	}
}

func TestSampleCategoricalAllZeroFallsBack(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	seen := map[int]bool{}
	for i := 0; i < 200; i++ {
		seen[SampleCategorical(rng, []float64{0, 0, 0})] = true
	}
	if len(seen) < 2 {
		t.Error("all-zero weights should fall back to uniform, but draws were degenerate")
	}
}

func TestNormalPDFIntegratesToOne(t *testing.T) {
	// Trapezoid integration over ±6σ.
	var area float64
	const dx = 0.01
	for x := -6.0; x < 6; x += dx {
		area += math.Exp(NormalLogPDF(x, 0, 1)) * dx
	}
	if math.Abs(area-1) > 1e-3 {
		t.Errorf("pdf integrates to %v", area)
	}
}

func TestAlmostEqualInfinities(t *testing.T) {
	inf := math.Inf(1)
	if !almostEqual(inf, inf, 0.1) {
		t.Error("equal infinities should compare equal")
	}
	if almostEqual(inf, -inf, 0.1) {
		t.Error("opposite infinities should not compare equal")
	}
	if almostEqual(inf, 5, 1e18) {
		t.Error("inf vs finite should not compare equal")
	}
}

// almostEqual reports |a-b| <= tol, treating equal infinities as equal.
func almostEqual(a, b, tol float64) bool {
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		return a == b
	}
	return math.Abs(a-b) <= tol
}
