package mathx

import (
	"math"
	"testing"
)

// Allocation and retention regression tests for the scratch-arena hot
// path: the in-place kernels must stay allocation-free, and the power
// cache's prefix must bound memory however large the requested exponent
// is — without changing any returned value.

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
	band := BandOf(a)
	if n := testing.AllocsPerRun(100, func() { a.VecMulInto(dst, v, band) }); n != 0 {
		t.Errorf("VecMulInto allocates %v per run, want 0", n)
	}
}

// TestInPlaceKernelsBitIdentical pins the determinism contract the hmm
// layer relies on when it reuses scratch: each Into kernel overwrites
// its destination, so a dirty dst gets the same bits as a zeroed one.
func TestInPlaceKernelsBitIdentical(t *testing.T) {
	a, _ := FromRows([][]float64{
		{0.17, 0.33, 0.5},
		{0.61, 0.09, 0.3},
		{0.25, 0.5, 0.25},
	})
	b := denseWalk(a, 3)[3]
	v := []float64{0.123456789, 0.987654321, 1.0 / 3.0}
	dirty := func(xs []float64) {
		for i := range xs {
			xs[i] = math.NaN()
		}
	}

	clean, mi := NewMatrix(3, 3), NewMatrix(3, 3)
	dirty(mi.Data)
	a.MulInto(clean, b)
	a.MulInto(mi, b)
	if !clean.Equal(mi) {
		t.Error("MulInto into a dirty dst differs from a zeroed one")
	}
	vecMul := func(dst, v []float64) { a.VecMulInto(dst, v, BandOf(a)) }
	for name, kernel := range map[string]func(dst, v []float64){"MulVecInto": a.MulVecInto, "VecMulInto": vecMul} {
		want, got := make([]float64, 3), make([]float64, 3)
		dirty(got)
		kernel(want, v)
		kernel(got, v)
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s into a dirty dst: [%d] = %v, zeroed dst %v", name, i, got[i], want[i])
			}
		}
	}
}

// TestPowerCacheRetentionBounded is the memory-growth regression test
// for the prefix: one log whose chunks start a huge Δn apart pins
// nothing, traffic over every gap pins at most PowerPrefix entries, and
// neither changes a returned value.
func TestPowerCacheRetentionBounded(t *testing.T) {
	a, _ := FromRows([][]float64{{0.95, 0.05}, {0.03, 0.97}})
	c := NewPowerCache(a)

	const huge = 5 * 1024
	got := c.Pow(huge)
	if powers := c.Retained(); powers != 2 {
		t.Errorf("cache retains %d powers after Pow(%d), want the 2 a new cache holds", powers, huge)
	}

	// The walk past the prefix returns the dense walk's power, from a
	// short prefix and from a full one.
	walk := denseWalk(a, huge)
	if !got.Equal(walk[huge]) {
		t.Errorf("Pow(%d) differs from the dense walk", huge)
	}
	for _, k := range []int{7, PowerPrefix - 1, PowerPrefix, PowerPrefix + 11, 1024 + 11, huge} {
		if !c.Pow(k).Equal(walk[k]) {
			t.Errorf("Pow(%d) differs from the dense walk", k)
		}
	}

	// Retention stays at the prefix under continued traffic.
	for k := 0; k < 3*1024; k += 7 {
		c.Pow(k)
		c.PowLog(k % (2 * PowerPrefix))
	}
	if powers := c.Retained(); powers != PowerPrefix {
		t.Errorf("retention after traffic over every gap: %d powers, want %d", powers, PowerPrefix)
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
// a full registry — through keys unique to this test and checks the
// per-cause counters move. The registry is swapped for an empty one
// while the test fills it to the cap, and restored afterwards.
func TestSharedPowersMissSplit(t *testing.T) {
	sharedPowers.mu.Lock()
	saved := sharedPowers.caches
	sharedPowers.caches = make(map[any]*PowerCache)
	sharedPowers.mu.Unlock()
	t.Cleanup(func() {
		sharedPowers.mu.Lock()
		sharedPowers.caches = saved
		sharedPowers.mu.Unlock()
	})

	base := func() *Matrix { return Identity(1) }
	d0 := SharedPowersDetail()
	first := SharedPowers(testKey{"split", 0}, base)
	if again := SharedPowers(testKey{"split", 0}, base); again != first {
		t.Error("an inserted key missed")
	}
	d1 := SharedPowersDetail().Sub(d0)
	if d1.ColdMisses != 1 || d1.Hits != 1 || d1.CapacityMisses != 0 {
		t.Errorf("after insert and hit: %+v, want 1 cold miss and 1 hit", d1)
	}
	for i := 1; i < sharedPowersCap; i++ {
		SharedPowers(testKey{"split", i}, base)
	}
	builds := 0
	over := testKey{"split", sharedPowersCap}
	a := SharedPowers(over, func() *Matrix { builds++; return Identity(1) })
	b := SharedPowers(over, func() *Matrix { builds++; return Identity(1) })
	d2 := SharedPowersDetail().Sub(d0)
	if a == b || builds != 2 {
		t.Errorf("past the cap: shared cache %v, %d builds; want a private cache per lookup", a == b, builds)
	}
	if d2.ColdMisses != sharedPowersCap || d2.CapacityMisses != 2 || d2.Hits != 1 {
		t.Errorf("past the cap: %+v, want %d cold misses, 2 capacity misses, 1 hit", d2, sharedPowersCap)
	}
	if SharedPowers(testKey{"split", 0}, base) != first {
		t.Error("a full registry stopped serving a key it holds")
	}
	if d := SharedPowersDetail().Sub(d0); d.Misses() != d.ColdMisses+d.CapacityMisses {
		t.Error("Misses() != sum of causes")
	}
}
