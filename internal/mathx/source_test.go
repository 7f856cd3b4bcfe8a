package mathx

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// schrageStep is math/rand's seedrand: the Park–Miller step by
// Schrage's method, the oracle for seedStep.
func schrageStep(x int32) int32 {
	const (
		a = 48271
		q = 44488
		r = 3399
	)
	hi := x / q
	lo := x % q
	x = a*lo - r*hi
	if x < 0 {
		x += int32max
	}
	return x
}

// TestSeedStepMatchesSchrage checks the Mersenne fold against Schrage's
// method on every x the seeding sequence can hold, [1, 2³¹−2] (a strided
// sample of it, plus both ends, under -short).
func TestSeedStepMatchesSchrage(t *testing.T) {
	const last = int32max - 1
	stride := uint32(1)
	if testing.Short() {
		stride = 65_521
	}
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var bad []uint32
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for x := 1 + uint32(w)*stride; x <= last; x += uint32(workers) * stride {
				if seedStep(x) != uint32(schrageStep(int32(x))) {
					mu.Lock()
					bad = append(bad, x)
					mu.Unlock()
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, x := range []uint32{1, 2, 44487, 44488, 44489, last - 1, last} {
		if seedStep(x) != uint32(schrageStep(int32(x))) {
			bad = append(bad, x)
		}
	}
	for _, x := range bad {
		t.Errorf("seedStep(%d) = %d, Schrage gives %d", x, seedStep(x), schrageStep(int32(x)))
	}
}

// matchDraws compares the first n draws of each kind math/rand offers
// the module — Uint64, Float64, NormFloat64 and Intn, over bounds on
// both sides of Intn's 31-bit fast path — between NewRand and
// rand.New(rand.NewSource) for one seed.
func matchDraws(t *testing.T, seed int64, n int) {
	t.Helper()
	got, want := NewRand(seed), rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		if g, w := got.Uint64(), want.Uint64(); g != w {
			t.Fatalf("seed %d: Uint64 draw %d = %d, math/rand gives %d", seed, i, g, w)
		}
		if g, w := got.Float64(), want.Float64(); g != w {
			t.Fatalf("seed %d: Float64 draw %d = %v, math/rand gives %v", seed, i, g, w)
		}
		if g, w := got.NormFloat64(), want.NormFloat64(); g != w {
			t.Fatalf("seed %d: NormFloat64 draw %d = %v, math/rand gives %v", seed, i, g, w)
		}
		bound := i + 1
		if i%2 == 1 {
			bound = math.MaxInt - i
		}
		if g, w := got.Intn(bound), want.Intn(bound); g != w {
			t.Fatalf("seed %d: Intn(%d) draw %d = %d, math/rand gives %d", seed, bound, i, g, w)
		}
	}
}

func TestNewRandMatchesMathRand(t *testing.T) {
	for _, seed := range []int64{0, 1, -1, int32max, int32max + 1, 89482311, math.MinInt64, math.MaxInt64} {
		matchDraws(t, seed, 2000)
	}
}

// TestNewRandReseeds checks that Seed on a NewRand generator restarts
// the sequence exactly as a fresh math/rand generator of that seed.
func TestNewRandReseeds(t *testing.T) {
	r := NewRand(5)
	r.Float64()
	r.Seed(11)
	want := rand.New(rand.NewSource(11))
	for i := 0; i < 100; i++ {
		if g, w := r.NormFloat64(), want.NormFloat64(); g != w {
			t.Fatalf("draw %d after Seed = %v, math/rand gives %v", i, g, w)
		}
	}
}

func FuzzSourceMatchesMathRand(f *testing.F) {
	for _, seed := range []int64{0, 1, -1, int32max, int32max + 1, 89482311, math.MinInt64, math.MaxInt64} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) { matchDraws(t, seed, 2000) })
}

func BenchmarkNewRand(b *testing.B) {
	b.ReportAllocs()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += NewRand(int64(i)).Float64()
	}
	_ = sink
}
