package mathx

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
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
	c := NewMatrix(2, 2)
	a.MulInto(c, b)
	want := [][]float64{{19, 22}, {43, 50}}
	for _, got := range []*Matrix{c, mulDense(a, b)} {
		for i := 0; i < 2; i++ {
			for j := 0; j < 2; j++ {
				if got.At(i, j) != want[i][j] {
					t.Errorf("product[%d][%d] = %v, want %v", i, j, got.At(i, j), want[i][j])
				}
			}
		}
	}
}

func TestMulDimensionPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MulInto with mismatched dims did not panic")
		}
	}()
	NewMatrix(2, 3).MulInto(NewMatrix(2, 3), NewMatrix(2, 3))
}

func TestMulVec(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	got := make([]float64, 2)
	a.MulVecInto(got, []float64{1, 1})
	if got[0] != 3 || got[1] != 7 {
		t.Errorf("MulVecInto = %v, want [3 7]", got)
	}
}

// TestVecMul checks the forward step on a dense matrix and on a banded
// one, where it reads only the band.
func TestVecMul(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	got := make([]float64, 2)
	a.VecMulInto(got, []float64{1, 1}, BandOf(a))
	if got[0] != 4 || got[1] != 6 {
		t.Errorf("VecMulInto = %v, want [4 6]", got)
	}
	b, _ := FromRows([][]float64{{1, 2, 0}, {0, 3, 4}, {0, 0, 5}})
	band := BandOf(b)
	b.Set(0, 2, math.NaN()) // off the band: never read
	got = make([]float64, 3)
	b.VecMulInto(got, []float64{1, 1, 1}, band)
	if got[0] != 1 || got[1] != 5 || got[2] != 9 {
		t.Errorf("banded VecMulInto = %v, want [1 5 9]", got)
	}
}

func TestPowZeroIsIdentity(t *testing.T) {
	a, _ := FromRows([][]float64{{0.5, 0.5}, {0.25, 0.75}})
	if !NewPowerCache(a).Pow(0).Equal(Identity(2)) {
		t.Fatal("Pow(0) != I")
	}
}

// TestPowMatchesRepeatedMul pins the cache's powers to the dense
// product walk, bit for bit, in the prefix and past it.
func TestPowMatchesRepeatedMul(t *testing.T) {
	a, _ := FromRows([][]float64{{0.9, 0.1}, {0.2, 0.8}})
	walk := denseWalk(a, PowerPrefix+6)
	c := NewPowerCache(a)
	for k := 2; k < len(walk); k++ {
		if !c.Pow(k).Equal(walk[k]) {
			t.Fatalf("Pow(%d) differs from the dense walk: %v, want %v", k, c.Pow(k).Data, walk[k].Data)
		}
	}
}

// rowStochastic reports whether every row of m sums to 1 within tol and
// no entry is below −tol.
func rowStochastic(m *Matrix, tol float64) bool {
	for i := 0; i < m.Rows; i++ {
		var s float64
		for _, v := range m.Row(i) {
			if v < -tol {
				return false
			}
			s += v
		}
		if math.Abs(s-1) > tol {
			return false
		}
	}
	return true
}

func TestPowPreservesStochastic(t *testing.T) {
	a, _ := FromRows([][]float64{{0.7, 0.3, 0}, {0.15, 0.7, 0.15}, {0, 0.3, 0.7}})
	c := NewPowerCache(a)
	for _, k := range []int{0, 1, 2, 3, 5, 8, 13, 19, PowerPrefix - 1, PowerPrefix, 3 * PowerPrefix} {
		if !rowStochastic(c.Pow(k), 1e-9) {
			t.Fatalf("A^%d is not row-stochastic", k)
		}
	}
}

func TestPowerCacheMatchesPow(t *testing.T) {
	a, _ := FromRows([][]float64{{0.7, 0.3}, {0.4, 0.6}})
	c := NewPowerCache(a)
	walk := denseWalk(a, 2*PowerPrefix)
	for _, k := range []int{0, 1, 5, 3, 17, 2, 17, 2 * PowerPrefix, PowerPrefix, PowerPrefix - 1} {
		if !c.Pow(k).Equal(walk[k]) {
			t.Fatalf("PowerCache.Pow(%d) differs from the dense walk", k)
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
		pc := NewPowerCache(m)
		return rowStochastic(pc.Pow(7), 1e-9) && rowStochastic(pc.Pow(PowerPrefix+7), 1e-9)
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
	a.Set(0, 0, 99) // mutating the argument must not corrupt the cache
	if c.Pow(1).At(0, 0) != 0.9 {
		t.Error("NewPowerCache aliased its argument")
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

func TestMatrixEqual(t *testing.T) {
	a, _ := FromRows([][]float64{{0.7, 0.3}, {0.4, 0.6}})
	b, _ := FromRows([][]float64{{0.7, 0.3}, {0.4, 0.6}})
	c, _ := FromRows([][]float64{{0.7, 0.3}, {0.4, 0.6000001}})
	if !a.Equal(b) {
		t.Error("equal matrices compare unequal")
	}
	if a.Equal(c) {
		t.Error("different matrices compare equal")
	}
	d, _ := FromRows([][]float64{{0.7, 0.3, 0.4, 0.6}}) // same data, other shape
	if a.Equal(d) {
		t.Error("shape must be part of equality")
	}
}

// testKey is a registry key type no other package uses, so the keys
// these tests insert are theirs alone.
type testKey struct {
	name string
	n    int
}

// coldKeys numbers the keys coldKey hands out.
var coldKeys atomic.Int64

// coldKey returns a key that no earlier lookup used, even in an earlier
// run of a -count=N test binary: the registry outlives a run.
func coldKey(name string, n int) testKey {
	return testKey{fmt.Sprintf("%s#%d", name, coldKeys.Add(1)), n}
}

func TestSharedPowersReusesCaches(t *testing.T) {
	base, _ := FromRows([][]float64{{0.8125, 0.1875}, {0.34375, 0.65625}})
	key := coldKey("reuses", 2)
	builds := 0
	build := func() *Matrix { builds++; return base.Clone() }
	d0 := SharedPowersDetail()
	c1 := SharedPowers(key, build)
	c2 := SharedPowers(key, build)
	d := SharedPowersDetail().Sub(d0)
	if c1 != c2 {
		t.Fatal("equal keys got distinct shared caches")
	}
	if builds != 1 {
		t.Errorf("builder ran %d times, want once (for the new key)", builds)
	}
	if d.Hits != 1 || d.Misses() != 1 {
		t.Errorf("stats delta = %d hits %d misses, want 1 and 1", d.Hits, d.Misses())
	}
	if c3 := SharedPowers(testKey{key.name, 3}, build); c3 == c1 {
		t.Error("a different key got the same cache")
	}
	// Shared caches serve the powers a private cache computes, bit for
	// bit (Equal compares elements with ==) — cold, and again through a
	// later lookup that finds the cache pre-warmed and walks on from
	// whatever anchors the first caller left. hmm.New takes every prior's
	// powers from here, so this is what makes inference independent of
	// which sessions ran before.
	for pass, c := range []*PowerCache{c1, SharedPowers(key, build)} {
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

// sameBand reports whether two bands are equal range by range.
func sameBand(a, b Band) bool {
	for _, x := range [][2][]int{{a.RowLo, b.RowLo}, {a.RowHi, b.RowHi}, {a.ColLo, b.ColLo}, {a.ColHi, b.ColHi}} {
		if len(x[0]) != len(x[1]) {
			return false
		}
		for i := range x[0] {
			if x[0][i] != x[1][i] {
				return false
			}
		}
	}
	return true
}

// TestSharedPowersConcurrent runs three kinds of goroutine on one shared
// cache at once: readers of gaps 0–3, the traffic a fleet sends;
// goroutines that grow the prefix; and goroutines that ask for gaps past
// it, which walk outside the lock. Every answer — power, log and band —
// must equal the serial dense walk's.
func TestSharedPowersConcurrent(t *testing.T) {
	base := tridiagonal(9, 0.84375)
	walk := denseWalk(base, 3*PowerPrefix)
	key := coldKey("concurrent", 9)
	var wg sync.WaitGroup
	for w := 0; w < 12; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := SharedPowers(key, base.Clone)
			for i := 0; i < 40; i++ {
				k := i % 4
				switch w % 3 {
				case 1:
					k = (i*7 + w) % PowerPrefix
				case 2:
					k = PowerPrefix + (i*37+w)%(2*PowerPrefix)
				}
				a, logA, band := c.Power(k)
				if !a.Equal(walk[k]) || !logA.Equal(logOf(walk[k])) || !sameBand(band, BandOf(walk[k])) {
					t.Errorf("goroutine %d: shared Power(%d) differs from the dense walk", w, k)
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
	a := tridiagonal(n, 0.8)
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
	// Past the prefix a power is walked, not kept; its band is still
	// recorded.
	huge := NewPowerCache(a)
	if _, b := huge.PowBand(PowerPrefix + 40); b.RowLo[0] != 0 || b.RowHi[0] != n {
		t.Errorf("uncached power band row 0 = [%d,%d), want [0,%d)", b.RowLo[0], b.RowHi[0], n)
	}
	if r := huge.Retained(); r != 2 {
		t.Errorf("a power past the prefix left %d powers retained, want the 2 a new cache holds", r)
	}
}
