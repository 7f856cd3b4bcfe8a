package trace

import (
	"math"
	"sort"
	"testing"
)

// The differential oracle of the indexed lookup: At and NextChange as
// they stood before FromSteps traces remembered their interval — a
// binary search over the points for every query.

func atOracle(tr *Trace, t float64) float64 {
	ps := tr.points
	if t <= ps[0].T {
		return ps[0].Mbps
	}
	// Binary search for the last point with T <= t.
	i := sort.Search(len(ps), func(i int) bool { return ps[i].T > t }) - 1
	return ps[i].Mbps
}

func nextChangeOracle(tr *Trace, t float64) float64 {
	ps := tr.points
	i := sort.Search(len(ps), func(i int) bool { return ps[i].T > t })
	if i == len(ps) {
		return math.Inf(1)
	}
	return ps[i].T
}

// checkLookup compares At, NextChange and Segment at t with the oracle.
// Values are compared as bits, so a NaN or a signed zero cannot hide.
func checkLookup(t *testing.T, tr *Trace, at float64) {
	t.Helper()
	wantV, wantN := atOracle(tr, at), nextChangeOracle(tr, at)
	gotV, gotN := tr.Segment(at)
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if !same(tr.At(at), wantV) || !same(gotV, wantV) {
		t.Fatalf("%d steps of %v: At(%v) = %v, Segment value %v, oracle %v", tr.Len(), tr.interval, at, tr.At(at), gotV, wantV)
	}
	if !same(tr.NextChange(at), wantN) || !same(gotN, wantN) {
		t.Fatalf("%d steps of %v: NextChange(%v) = %v, Segment next %v, oracle %v", tr.Len(), tr.interval, at, tr.NextChange(at), gotN, wantN)
	}
}

// stepTrace builds an n-step FromSteps trace whose step i has the value
// i, so a lookup that lands one step off returns a different number.
func stepTrace(interval float64, n int) (*Trace, error) {
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = float64(i)
	}
	return FromSteps(interval, vals)
}

// TestLookupMatchesSearchOracle checks every grid point of long traces,
// one ulp either side of it and the middle of every step — where
// t/interval rounds across a step boundary if anywhere: at 5,000 steps
// of 0.1 s it lands one step high hundreds of times and one step low
// hundreds more, so both correction loops run.
func TestLookupMatchesSearchOracle(t *testing.T) {
	for _, interval := range []float64{0.1, 1.0 / 3, 1, 5, 0.7, 1e-3, 3e-7, 12345.678} {
		for _, n := range []int{1, 2, 3, 145, 5_000} {
			tr, err := stepTrace(interval, n)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range tr.points {
				checkLookup(t, tr, p.T)
				checkLookup(t, tr, math.Nextafter(p.T, math.Inf(-1)))
				checkLookup(t, tr, math.Nextafter(p.T, math.Inf(1)))
				checkLookup(t, tr, p.T+interval/2)
			}
			for _, at := range []float64{-1, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), float64(n) * interval * 2} {
				checkLookup(t, tr, at)
			}
		}
	}
	// Traces built by New keep the binary search; they must agree too.
	tr, err := New([]Point{{T: -3, Mbps: 1}, {T: 0.5, Mbps: 2}, {T: 7, Mbps: 3}})
	if err != nil {
		t.Fatal(err)
	}
	for _, at := range []float64{-4, -3, 0, 0.5, 6.9, 7, 8, math.NaN()} {
		checkLookup(t, tr, at)
	}
}

// FuzzTraceLookup checks At, NextChange and Segment against the
// binary-search oracle for any interval, step count and time.
func FuzzTraceLookup(f *testing.F) {
	for _, interval := range []float64{0.1, 1.0 / 3, 5} {
		for _, n := range []uint16{1, 2, 144} {
			for _, k := range []float64{0, 1, 7, float64(n) - 1, float64(n), float64(n) + 10} {
				at := k * interval
				f.Add(interval, n, at)
				f.Add(interval, n, math.Nextafter(at, math.Inf(-1)))
				f.Add(interval, n, math.Nextafter(at, math.Inf(1)))
			}
			for _, at := range []float64{-1, -interval, math.NaN(), math.Inf(1), math.Inf(-1)} {
				f.Add(interval, n, at)
			}
		}
	}
	f.Add(1e308, uint16(2), 1e308)
	f.Add(5e-324, uint16(9), 2.5e-323)
	f.Fuzz(func(t *testing.T, interval float64, n uint16, at float64) {
		tr, err := stepTrace(interval, int(n))
		if err != nil {
			return // a refused trace has no lookup to check
		}
		checkLookup(t, tr, at)
	})
}
