package mathx

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
)

func TestIdentity(t *testing.T) {
	m := Identity(3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if m.At(i, j) != want {
				t.Errorf("Identity(3)[%d][%d] = %v, want %v", i, j, m.At(i, j), want)
			}
		}
	}
}

func TestFromRowsValid(t *testing.T) {
	m, err := FromRows([][]float64{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatalf("FromRows: %v", err)
	}
	if m.At(0, 1) != 2 || m.At(1, 0) != 3 {
		t.Errorf("FromRows produced wrong layout: %v", m.Data)
	}
}

func TestFromRowsRagged(t *testing.T) {
	if _, err := FromRows([][]float64{{1, 2}, {3}}); err == nil {
		t.Error("FromRows accepted ragged rows")
	}
}

func TestFromRowsEmpty(t *testing.T) {
	if _, err := FromRows(nil); err == nil {
		t.Error("FromRows accepted empty input")
	}
}

func TestMul(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	b, _ := FromRows([][]float64{{5, 6}, {7, 8}})
	c := a.Mul(b)
	want := [][]float64{{19, 22}, {43, 50}}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if c.At(i, j) != want[i][j] {
				t.Errorf("Mul[%d][%d] = %v, want %v", i, j, c.At(i, j), want[i][j])
			}
		}
	}
}

func TestMulDimensionPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Mul with mismatched dims did not panic")
		}
	}()
	NewMatrix(2, 3).Mul(NewMatrix(2, 3))
}

func TestMulVec(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	got := a.MulVec([]float64{1, 1})
	if got[0] != 3 || got[1] != 7 {
		t.Errorf("MulVec = %v, want [3 7]", got)
	}
}

func TestVecMul(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	got := a.VecMul([]float64{1, 1})
	if got[0] != 4 || got[1] != 6 {
		t.Errorf("VecMul = %v, want [4 6]", got)
	}
}

func TestPowZeroIsIdentity(t *testing.T) {
	a, _ := FromRows([][]float64{{0.5, 0.5}, {0.25, 0.75}})
	p := a.Pow(0)
	id := Identity(2)
	for i := range p.Data {
		if p.Data[i] != id.Data[i] {
			t.Fatalf("Pow(0) != I: %v", p.Data)
		}
	}
}

func TestPowMatchesRepeatedMul(t *testing.T) {
	a, _ := FromRows([][]float64{{0.9, 0.1}, {0.2, 0.8}})
	direct := a.Clone()
	for k := 2; k <= 6; k++ {
		direct = direct.Mul(a)
		pow := a.Pow(k)
		for i := range pow.Data {
			if math.Abs(pow.Data[i]-direct.Data[i]) > 1e-12 {
				t.Fatalf("Pow(%d) differs from repeated Mul at %d: %v vs %v",
					k, i, pow.Data[i], direct.Data[i])
			}
		}
	}
}

func TestPowPreservesStochastic(t *testing.T) {
	a, _ := FromRows([][]float64{{0.7, 0.3, 0}, {0.15, 0.7, 0.15}, {0, 0.3, 0.7}})
	for k := 0; k < 20; k++ {
		if !a.Pow(k).IsRowStochastic(1e-9) {
			t.Fatalf("A^%d is not row-stochastic", k)
		}
	}
}

func TestPowerCacheMatchesPow(t *testing.T) {
	a, _ := FromRows([][]float64{{0.7, 0.3}, {0.4, 0.6}})
	c := NewPowerCache(a)
	for _, k := range []int{0, 1, 5, 3, 17, 2, 17} {
		got := c.Pow(k)
		want := a.Pow(k)
		for i := range got.Data {
			if math.Abs(got.Data[i]-want.Data[i]) > 1e-12 {
				t.Fatalf("PowerCache.Pow(%d) mismatch at %d", k, i)
			}
		}
	}
}

func TestPowerCacheIsolatedFromBaseMutation(t *testing.T) {
	a, _ := FromRows([][]float64{{0.7, 0.3}, {0.4, 0.6}})
	c := NewPowerCache(a)
	a.Set(0, 0, 99)
	got := c.Pow(2).At(0, 0)
	want := 0.7*0.7 + 0.3*0.4
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("PowerCache affected by base mutation: got %v want %v", got, want)
	}
}

func TestNormalizeRows(t *testing.T) {
	m, _ := FromRows([][]float64{{2, 2}, {0, 0}})
	m.NormalizeRows()
	if m.At(0, 0) != 0.5 || m.At(0, 1) != 0.5 {
		t.Errorf("row 0 not normalized: %v", m.Row(0))
	}
	if m.At(1, 0) != 0.5 || m.At(1, 1) != 0.5 {
		t.Errorf("zero row should become uniform: %v", m.Row(1))
	}
}

func TestQuickStochasticPowers(t *testing.T) {
	// Property: any row-normalized positive matrix stays row-stochastic
	// under powers.
	f := func(a, b, c, d uint8) bool {
		m, _ := FromRows([][]float64{
			{float64(a) + 1, float64(b) + 1},
			{float64(c) + 1, float64(d) + 1},
		})
		m.NormalizeRows()
		return m.Pow(7).IsRowStochastic(1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMatrixString(t *testing.T) {
	m, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	s := m.String()
	if len(s) == 0 {
		t.Fatal("empty String()")
	}
	if lines := len([]rune(s)) > 0 && s[len(s)-1] == '\n'; !lines {
		t.Error("String should end with newline")
	}
}

func TestPowerCacheBase(t *testing.T) {
	a, _ := FromRows([][]float64{{0.9, 0.1}, {0.2, 0.8}})
	c := NewPowerCache(a)
	b := c.Base()
	if b.At(0, 0) != 0.9 {
		t.Error("Base() returned wrong matrix")
	}
	b.Set(0, 0, 99) // mutating the copy must not corrupt the cache
	if c.Pow(1).At(0, 0) != 0.9 {
		t.Error("Base() copy aliased the cache")
	}
}

func TestNewMatrixPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewMatrix(0, 3) should panic")
		}
	}()
	NewMatrix(0, 3)
}

func TestFingerprintAndEqual(t *testing.T) {
	a, _ := FromRows([][]float64{{0.7, 0.3}, {0.4, 0.6}})
	b, _ := FromRows([][]float64{{0.7, 0.3}, {0.4, 0.6}})
	c, _ := FromRows([][]float64{{0.7, 0.3}, {0.4, 0.6000001}})
	if !a.Equal(b) || a.Fingerprint() != b.Fingerprint() {
		t.Error("equal matrices must share a fingerprint")
	}
	if a.Equal(c) || a.Fingerprint() == c.Fingerprint() {
		t.Error("different matrices should differ in fingerprint")
	}
	d, _ := FromRows([][]float64{{0.7, 0.3, 0.4, 0.6}}) // same data, other shape
	if a.Equal(d) || a.Fingerprint() == d.Fingerprint() {
		t.Error("shape must be part of the fingerprint")
	}
}

func TestSharedPowersReusesCaches(t *testing.T) {
	// A base unique to this test so the process-wide registry stats are
	// attributable.
	base, _ := FromRows([][]float64{{0.8125, 0.1875}, {0.34375, 0.65625}})
	h0, m0 := SharedPowerStats()
	c1 := SharedPowers(base)
	c2 := SharedPowers(base.Clone())
	h1, m1 := SharedPowerStats()
	if c1 != c2 {
		t.Fatal("identical matrices got distinct shared caches")
	}
	if h1-h0 != 1 || m1-m0 != 1 {
		t.Errorf("stats delta = %d hits %d misses, want 1 and 1", h1-h0, m1-m0)
	}
	// Shared caches serve the powers a private cache computes, bit for
	// bit (Equal compares elements with ==) — cold, and again through a
	// later lookup that finds the cache pre-warmed and walks on from
	// whatever anchors the first caller left. hmm.New takes every prior's
	// powers from here, so this is what makes inference independent of
	// which sessions ran before.
	for pass, c := range []*PowerCache{c1, SharedPowers(base)} {
		private := NewPowerCache(base)
		for _, k := range []int{3, 1, 9, 0, 4 + 20*pass} {
			if got, want := c.Pow(k), private.Pow(k); !got.Equal(want) {
				t.Fatalf("pass %d: shared Pow(%d) differs from private", pass, k)
			}
			got, want := c.PowLog(k), private.PowLog(k)
			for i, v := range want.Data {
				if math.Float64bits(got.Data[i]) != math.Float64bits(v) {
					t.Fatalf("pass %d: shared PowLog(%d) differs from private at cell %d", pass, k, i)
				}
			}
		}
	}
}

func TestSharedPowersConcurrent(t *testing.T) {
	base, _ := FromRows([][]float64{{0.84375, 0.15625}, {0.21875, 0.78125}})
	want := NewPowerCache(base)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := SharedPowers(base)
			for k := 0; k < 40; k++ {
				got := c.Pow((k*7 + w) % 23)
				if !got.Equal(want.Pow((k*7 + w) % 23)) {
					t.Errorf("concurrent shared Pow mismatch at k=%d", (k*7+w)%23)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestBandOfCoversSupport pins Band as a hull of the support: every
// non-zero lies inside its row's and its column's range, the range ends
// on non-zeros, and an all-zero row or column is empty.
func TestBandOfCoversSupport(t *testing.T) {
	m, _ := FromRows([][]float64{
		{0, 0.5, 0, 0.5},
		{0, 0, 0, 0},
		{0.2, 0, 0, 0.8},
		{0, 1, 0, 0},
	})
	b := BandOf(m)
	want := Band{
		RowLo: []int{1, 0, 0, 1}, RowHi: []int{4, 0, 4, 2},
		ColLo: []int{2, 0, 0, 0}, ColHi: []int{3, 4, 0, 3},
	}
	for name, pair := range map[string][2][]int{
		"RowLo": {b.RowLo, want.RowLo}, "RowHi": {b.RowHi, want.RowHi},
		"ColLo": {b.ColLo, want.ColLo}, "ColHi": {b.ColHi, want.ColHi},
	} {
		for i := range pair[1] {
			if pair[0][i] != pair[1][i] {
				t.Errorf("%s = %v, want %v", name, pair[0], pair[1])
				break
			}
		}
	}
}

// TestPowBandTridiagonal checks the band PowerCache records for powers
// of a tridiagonal matrix: half-width k, clipped at the edges, full
// width from k = n−1 on — and that Pow and PowBand return one matrix.
func TestPowBandTridiagonal(t *testing.T) {
	const n = 9
	a := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		a.Set(i, i, 0.8)
		switch i {
		case 0:
			a.Set(0, 1, 0.2)
		case n - 1:
			a.Set(n-1, n-2, 0.2)
		default:
			a.Set(i, i-1, 0.1)
			a.Set(i, i+1, 0.1)
		}
	}
	c := NewPowerCache(a)
	for k := 0; k <= n+2; k++ {
		m, b := c.PowBand(k)
		if m != c.Pow(k) {
			t.Fatalf("PowBand(%d) and Pow(%d) return different matrices", k, k)
		}
		for i := 0; i < n; i++ {
			lo, hi := max(0, i-k), min(n, i+k+1)
			if b.RowLo[i] != lo || b.RowHi[i] != hi || b.ColLo[i] != lo || b.ColHi[i] != hi {
				t.Fatalf("A^%d band at %d: rows [%d,%d) cols [%d,%d), want [%d,%d)",
					k, i, b.RowLo[i], b.RowHi[i], b.ColLo[i], b.ColHi[i], lo, hi)
			}
		}
	}
	// Past the retention cap a power is built, not kept; its band is
	// still recorded.
	huge := NewPowerCache(a)
	if _, b := huge.PowBand(powRetainCap + 40); b.RowLo[0] != 0 || b.RowHi[0] != n {
		t.Errorf("uncached power band row 0 = [%d,%d), want [0,%d)", b.RowLo[0], b.RowHi[0], n)
	}
}
