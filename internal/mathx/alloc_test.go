package mathx

import (
	"math"
	"testing"
)

// Allocation and retention regression tests for the scratch-arena hot
// path: the in-place kernels must stay allocation-free, and the power
// cache's retention cap must bound memory however large the requested
// exponent is — without changing any returned value.

func TestMulIntoDoesNotAllocate(t *testing.T) {
	a, _ := FromRows([][]float64{{0.7, 0.3}, {0.4, 0.6}})
	b, _ := FromRows([][]float64{{0.9, 0.1}, {0.2, 0.8}})
	dst := NewMatrix(2, 2)
	if n := testing.AllocsPerRun(100, func() { a.MulInto(dst, b) }); n != 0 {
		t.Errorf("MulInto allocates %v per run, want 0", n)
	}
}

func TestMulVecIntoDoesNotAllocate(t *testing.T) {
	a, _ := FromRows([][]float64{{0.7, 0.3}, {0.4, 0.6}})
	v := []float64{0.5, 0.5}
	dst := make([]float64, 2)
	if n := testing.AllocsPerRun(100, func() { a.MulVecInto(dst, v) }); n != 0 {
		t.Errorf("MulVecInto allocates %v per run, want 0", n)
	}
}

func TestVecMulIntoDoesNotAllocate(t *testing.T) {
	a, _ := FromRows([][]float64{{0.7, 0.3}, {0.4, 0.6}})
	v := []float64{0.5, 0.5}
	dst := make([]float64, 2)
	if n := testing.AllocsPerRun(100, func() { a.VecMulInto(dst, v) }); n != 0 {
		t.Errorf("VecMulInto allocates %v per run, want 0", n)
	}
}

// TestInPlaceKernelsBitIdentical pins the determinism contract the hmm
// layer relies on: the Into variants reproduce the allocating ones bit
// for bit (same accumulation order, zero-then-accumulate).
func TestInPlaceKernelsBitIdentical(t *testing.T) {
	a, _ := FromRows([][]float64{
		{0.17, 0.33, 0.5},
		{0.61, 0.09, 0.3},
		{0.25, 0.5, 0.25},
	})
	b := a.Pow(3)
	v := []float64{0.123456789, 0.987654321, 1.0 / 3.0}

	m := a.Mul(b)
	mi := NewMatrix(3, 3)
	// Dirty dst: the kernel must fully overwrite it.
	for i := range mi.Data {
		mi.Data[i] = math.NaN()
	}
	a.MulInto(mi, b)
	if !m.Equal(mi) {
		t.Error("MulInto differs from Mul")
	}

	mv := a.MulVec(v)
	mvi := []float64{math.NaN(), math.NaN(), math.NaN()}
	a.MulVecInto(mvi, v)
	for i := range mv {
		if mv[i] != mvi[i] {
			t.Errorf("MulVecInto[%d] = %v, MulVec = %v", i, mvi[i], mv[i])
		}
	}

	vm := a.VecMul(v)
	vmi := []float64{math.NaN(), math.NaN(), math.NaN()}
	a.VecMulInto(vmi, v)
	for i := range vm {
		if vm[i] != vmi[i] {
			t.Errorf("VecMulInto[%d] = %v, VecMul = %v", i, vmi[i], vm[i])
		}
	}
}

// TestPowerCacheRetentionBounded is the memory-growth regression test
// for the retention cap: one pathological huge-Δn query must pin
// O(powRetainCap) matrices, not O(Δn) — and capping retention must not
// change a single returned value.
func TestPowerCacheRetentionBounded(t *testing.T) {
	a, _ := FromRows([][]float64{{0.95, 0.05}, {0.03, 0.97}})
	c := NewPowerCache(a)

	const huge = 5 * powRetainCap
	got := c.Pow(huge)

	powers, logs := c.Retained()
	if powers > powRetainCap {
		t.Errorf("cache retains %d powers after Pow(%d), cap is %d", powers, huge, powRetainCap)
	}
	if logs > powRetainCap {
		t.Errorf("cache retains %d log powers, cap is %d", logs, powRetainCap)
	}

	// The capped walk returns the canonical power: compare against the
	// plain sequential walk at a few checkpoints (including one past the
	// dense-retention region and the huge target itself).
	ref := Identity(2)
	checks := map[int]*Matrix{}
	for p := 1; p <= huge; p++ {
		ref = ref.Mul(a)
		switch p {
		case 7, powDenseRetain + 3, powRetainCap + 11, huge:
			checks[p] = ref
		}
	}
	for k, want := range checks {
		g := c.Pow(k)
		if !g.Equal(want) {
			t.Errorf("capped Pow(%d) differs from sequential walk", k)
		}
	}
	if !got.Equal(checks[huge]) {
		t.Errorf("Pow(%d) differs from sequential walk", huge)
	}

	// Retention must stay bounded under continued traffic.
	for k := 0; k < 3*powRetainCap; k += 7 {
		c.Pow(k)
		c.PowLog(k % (powRetainCap * 2))
	}
	powers, logs = c.Retained()
	if powers > powRetainCap || logs > powRetainCap {
		t.Errorf("retention grew past cap under traffic: %d powers, %d logs", powers, logs)
	}
}

// TestPowLogMatchesLogOfPow pins PowLog as a pure element-wise
// transform of the canonical power, with zeros mapping to -Inf.
func TestPowLogMatchesLogOfPow(t *testing.T) {
	a, _ := FromRows([][]float64{{0.8, 0.2, 0}, {0.1, 0.8, 0.1}, {0, 0.2, 0.8}})
	c := NewPowerCache(a)
	for _, k := range []int{0, 1, 2, 9} {
		p := c.Pow(k)
		lg := c.PowLog(k)
		// Memoized: a second call returns the identical matrix.
		if c.PowLog(k) != lg {
			t.Errorf("PowLog(%d) not memoized", k)
		}
		for i, v := range p.Data {
			want := NegInf
			if v > 0 {
				want = math.Log(v)
			}
			if lg.Data[i] != want {
				t.Errorf("PowLog(%d)[%d] = %v, want %v", k, i, lg.Data[i], want)
			}
		}
	}
}

// TestSharedPowersMissSplit drives each miss cause — cold insert and
// fingerprint collision — through matrices unique to this test and
// checks the per-cause counters move (capacity misses would need a full
// registry, so only the invariant Misses() == Σ causes is pinned there).
func TestSharedPowersMissSplit(t *testing.T) {
	base, _ := FromRows([][]float64{{0.8671875, 0.1328125}, {0.2421875, 0.7578125}})
	d0 := SharedPowersDetail()
	SharedPowers(base)
	SharedPowers(base.Clone())
	d1 := SharedPowersDetail().Sub(d0)
	if d1.ColdMisses != 1 {
		t.Errorf("cold misses = %d, want 1 (first sight inserts)", d1.ColdMisses)
	}
	if d1.Hits != 1 {
		t.Errorf("hits = %d, want 1 (identical matrix reuses)", d1.Hits)
	}
	if d1.Misses() != d1.ColdMisses+d1.CollisionMisses+d1.CapacityMisses {
		t.Error("Misses() != sum of causes")
	}
}
