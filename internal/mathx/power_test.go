package mathx

import (
	"math"
	"testing"
)

// The power cache's oracle: the dense product walk it made before it
// stepped each row over the base's band (PowerCache's walk is bit for
// bit this one), and the differential fuzz and far-gap benchmark that
// drive the cache against it.

// mulDense is Matrix.Mul as it stood before the power cache stepped
// rows over the base's band: every term of every row of m × b summed in
// order, skipping only zero entries of m.
func mulDense(m, b *Matrix) *Matrix {
	out := NewMatrix(m.Rows, b.Cols)
	for i := 0; i < m.Rows; i++ {
		orow := out.Row(i)
		for k, mv := range m.Row(i) {
			if mv == 0 {
				continue
			}
			for j, bv := range b.Row(k) {
				orow[j] += mv * bv
			}
		}
	}
	return out
}

// denseWalk is the power cache's old walk, the oracle for the new one:
// A^0 = I, A^1 = a and A^(p+1) = mulDense(A^p, a). It returns A^0 … A^k.
func denseWalk(a *Matrix, k int) []*Matrix {
	out := []*Matrix{Identity(a.Rows), a}
	for p := 1; p < k; p++ {
		out = append(out, mulDense(out[p], a))
	}
	return out[:k+1]
}

// logOf is the element-wise log a power's entry carries: zeros (and
// anything not positive) map to -Inf.
func logOf(m *Matrix) *Matrix {
	lm := NewMatrix(m.Rows, m.Cols)
	for i, v := range m.Data {
		lm.Data[i] = NegInf
		if v > 0 {
			lm.Data[i] = math.Log(v)
		}
	}
	return lm
}

// tridiagonal is the EHMM's prior over n states: stay on the diagonal,
// the rest split between the neighbours, all of it to the one neighbour
// of an edge state.
func tridiagonal(n int, stay float64) *Matrix {
	a := NewMatrix(n, n)
	if n == 1 {
		a.Set(0, 0, 1)
		return a
	}
	for i := 0; i < n; i++ {
		a.Set(i, i, stay)
		switch i {
		case 0:
			a.Set(0, 1, 1-stay)
		case n - 1:
			a.Set(n-1, n-2, 1-stay)
		default:
			a.Set(i, i-1, (1-stay)/2)
			a.Set(i, i+1, (1-stay)/2)
		}
	}
	return a
}

// FuzzPowerWalk drives one cache against the dense walk, bit for bit:
// for a base of up to 40 states that is tridiagonal, banded at random
// with exact zeros inside and outside each row's range, or dense (row-
// normalised, so every power stays finite), it asks for powers up to
// 600 on both sides of PowerPrefix in an order the input picks, and
// every Pow, PowBand, PowLog and Power must equal the oracle's power,
// its Band and its log.
func FuzzPowerWalk(f *testing.F) {
	for _, s := range []struct {
		seed   int64
		states uint8 // S − 1
		kind   uint8
		ks     []byte
	}{
		{1, 20, 0, []byte{0, 3, 200, 1, 2, 70}},
		{2, 8, 1, []byte{255, 63, 64, 0, 128}},
		{3, 39, 2, []byte{90, 5, 255, 12, 201}},
		{4, 0, 1, []byte{100, 0, 1}},
		{5, 1, 0, []byte{64, 63, 62, 65}},
		{6, 30, 1, []byte{7, 255, 6, 9}},
	} {
		f.Add(s.seed, s.states, s.kind, s.ks)
	}
	f.Fuzz(func(t *testing.T, seed int64, states, kind uint8, ks []byte) {
		n := 1 + int(states)%40
		rng := NewRand(seed)
		base := NewMatrix(n, n)
		switch kind % 3 {
		case 0:
			base = tridiagonal(n, 0.01+0.98*rng.Float64())
		case 1:
			for i := 0; i < n; i++ {
				lo := rng.Intn(n)
				hi := lo + 1 + rng.Intn(n-lo)
				for j := lo; j < hi; j++ {
					if rng.Intn(4) > 0 {
						base.Set(i, j, rng.Float64())
					}
				}
			}
		default:
			for i := range base.Data {
				base.Data[i] = rng.Float64()
			}
		}
		base.NormalizeRows()
		if len(ks) > 12 {
			ks = ks[:12]
		}
		asked := make([]int, len(ks))
		top := 1
		for i, b := range ks {
			// Even bytes land in the prefix, odd ones past it, up to 600.
			k := int(b) % PowerPrefix
			if b%2 == 1 {
				k = PowerPrefix + int(b)*(600-PowerPrefix)/255
			}
			asked[i] = k
			top = max(top, k)
		}
		walk := denseWalk(base, top)
		c := NewPowerCache(base)
		for _, k := range asked {
			want := walk[k]
			a, logA, band := c.Power(k)
			pm, pband := c.PowBand(k)
			switch {
			case !a.Equal(want) || !c.Pow(k).Equal(want) || !pm.Equal(want):
				t.Fatalf("%d states, kind %d: A^%d differs from the dense walk", n, kind%3, k)
			case !logA.Equal(logOf(want)) || !c.PowLog(k).Equal(logOf(want)):
				t.Fatalf("%d states, kind %d: log A^%d differs from the dense walk's", n, kind%3, k)
			case !sameBand(band, BandOf(want)) || !sameBand(pband, BandOf(want)):
				t.Fatalf("%d states, kind %d: A^%d's band differs from the dense walk's", n, kind%3, k)
			}
		}
		if r := c.Retained(); r > PowerPrefix {
			t.Fatalf("cache retains %d powers, more than the prefix's %d", r, PowerPrefix)
		}
	})
}

// BenchmarkPowerCacheFarGap times one power far past the prefix on the
// grid a 60 Mbps link sizes (S = 121, the tridiagonal prior): a fresh
// cache's Pow(2000), the private walk a log whose chunks start 2,000 δ
// apart costs.
func BenchmarkPowerCacheFarGap(b *testing.B) {
	a := tridiagonal(121, 0.8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		NewPowerCache(a).Pow(2000)
	}
}
