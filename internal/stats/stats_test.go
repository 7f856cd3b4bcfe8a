package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestMean(t *testing.T) {
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("Mean = %v, want 2.5", got)
	}
	if !math.IsNaN(Mean(nil)) {
		t.Error("Mean(nil) should be NaN")
	}
}

func TestVarianceStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Variance(xs); got != 4 {
		t.Errorf("Variance = %v, want 4", got)
	}
	if got := StdDev(xs); got != 2 {
		t.Errorf("StdDev = %v, want 2", got)
	}
}

func TestPercentileEndpoints(t *testing.T) {
	xs := []float64{5, 1, 3}
	if got := Percentile(xs, 0); got != 1 {
		t.Errorf("P0 = %v, want 1", got)
	}
	if got := Percentile(xs, 100); got != 5 {
		t.Errorf("P100 = %v, want 5", got)
	}
	if got := Percentile(xs, 50); got != 3 {
		t.Errorf("P50 = %v, want 3", got)
	}
}

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{0, 10}
	if got := Percentile(xs, 25); got != 2.5 {
		t.Errorf("P25 = %v, want 2.5", got)
	}
}

// TestPercentileNaNRank: a NaN rank fails every range comparison, so it
// used to reach int(math.Floor(NaN)) and index out of range; it must
// come back as NaN, alone or inside a rank list.
func TestPercentileNaNRank(t *testing.T) {
	xs := []float64{5, 1, 3}
	if got := Percentile(xs, math.NaN()); !math.IsNaN(got) {
		t.Errorf("Percentile(NaN rank) = %v, want NaN", got)
	}
	got := Percentiles(xs, []float64{math.NaN(), 50})
	if len(got) != 2 || !math.IsNaN(got[0]) || got[1] != 3 {
		t.Errorf("Percentiles(NaN, 50) = %v, want [NaN 3]", got)
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("Percentile mutated input: %v", xs)
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 0}
	if Min(xs) != -1 || Max(xs) != 7 {
		t.Errorf("Min/Max = %v/%v", Min(xs), Max(xs))
	}
}

func TestBoxOrdering(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, math.Mod(v, 1e6))
			}
		}
		if len(xs) == 0 {
			return true
		}
		b := Box(xs)
		return b.Min <= b.Q1 && b.Q1 <= b.Median && b.Median <= b.Q3 && b.Q3 <= b.Max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCDFMonotone(t *testing.T) {
	pts := CDF([]float64{4, 1, 3, 2})
	if len(pts) != 4 {
		t.Fatalf("CDF has %d points, want 4", len(pts))
	}
	if !sort.SliceIsSorted(pts, func(i, j int) bool { return pts[i].X < pts[j].X }) {
		t.Error("CDF points not sorted by X")
	}
	if pts[len(pts)-1].P != 1 {
		t.Errorf("CDF final P = %v, want 1", pts[len(pts)-1].P)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].P < pts[i-1].P {
			t.Error("CDF not monotone in P")
		}
	}
}

func TestRMSEAndMAE(t *testing.T) {
	pred := []float64{1, 2, 3}
	truth := []float64{1, 2, 7}
	wantRMSE := math.Sqrt(16.0 / 3)
	if got := RMSE(pred, truth); math.Abs(got-wantRMSE) > 1e-12 {
		t.Errorf("RMSE = %v, want %v", got, wantRMSE)
	}
	if got := MAE(pred, truth); math.Abs(got-4.0/3) > 1e-12 {
		t.Errorf("MAE = %v, want %v", got, 4.0/3)
	}
}

func TestHistogram(t *testing.T) {
	xs := []float64{0.1, 0.2, 0.9, -5, 99}
	h := Histogram(xs, 0, 1, 2)
	if h[0] != 3 || h[1] != 2 {
		t.Errorf("Histogram = %v, want [3 2] (outliers clamped)", h)
	}
	if Histogram(xs, 0, 1, 0) != nil {
		t.Error("Histogram with 0 bins should be nil")
	}
}
