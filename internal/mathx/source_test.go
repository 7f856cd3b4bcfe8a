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
	f.Fuzz(func(t *testing.T, seed int64) {
		matchDraws(t, seed, 2000)
		requireSeedMatchesSequential(t, seed)
	})
}

// seedSequential is math/rand's seeding loop as Seed ran it before the
// four chains: one Park–Miller walk from the normalised seed, discarding
// 20 steps and taking three per word. It is the oracle for Seed.
func seedSequential(s *source, seed int64) {
	s.tap = 0
	s.feed = rngLen - rngTap

	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}

	x := uint32(seed)
	for i := -20; i < rngLen; i++ {
		x = seedStep(x)
		if i >= 0 {
			u := int64(x) << 40
			x = seedStep(x)
			u ^= int64(x) << 20
			x = seedStep(x)
			u ^= int64(x)
			u ^= rngCooked[i]
			s.vec[i] = u
		}
	}
}

// requireSeedMatchesSequential checks that Seed fills the register, tap
// and feed exactly as the sequential walk does, from a dirty register.
func requireSeedMatchesSequential(t *testing.T, seed int64) {
	t.Helper()
	var got, want source
	for i := range got.vec {
		got.vec[i] = int64(i) * -7919 // stale words from another seed
	}
	got.tap, got.feed = 17, 3
	got.Seed(seed)
	seedSequential(&want, seed)
	if got != want {
		for i := range got.vec {
			if got.vec[i] != want.vec[i] {
				t.Fatalf("seed %d: word %d = %d, the sequential walk gives %d", seed, i, got.vec[i], want.vec[i])
			}
		}
		t.Fatalf("seed %d: tap/feed %d/%d, the sequential walk gives %d/%d", seed, got.tap, got.feed, want.tap, want.feed)
	}
}

// TestSeedMatchesSequential pins the four-chain Seed against the
// sequential walk on the edge seeds and a spread of others.
func TestSeedMatchesSequential(t *testing.T) {
	seeds := []int64{0, 1, -1, 2, int32max - 1, int32max, int32max + 1, 2 * int32max, 89482311, math.MinInt64, math.MaxInt64}
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		seeds = append(seeds, r.Int63()-r.Int63())
	}
	for _, seed := range seeds {
		requireSeedMatchesSequential(t, seed)
	}
}

// TestSeedJumpConstants derives each chain's jump constant by iterating
// seedStep from 1, where x_k = 48271^k mod M: chain q starts at step
// 20 + 3q·seedLane of the walk. It also checks that the chains cover
// the register: three full chains and a fourth one word short.
func TestSeedJumpConstants(t *testing.T) {
	if !(3*seedLane < rngLen && rngLen == 4*seedLane-1) {
		t.Fatalf("seedLane %d does not split %d words into three full chains and one a word short", seedLane, rngLen)
	}
	x := uint32(1)
	for k := 1; k <= 20+3*3*seedLane; k++ {
		x = seedStep(x)
		for q, c := range seedJump {
			if k == 20+3*q*seedLane && x != c {
				t.Errorf("seedJump[%d] = %d, 48271^%d mod M is %d", q, c, k, x)
			}
		}
	}
	// mulMod by a jump constant is that many seedSteps: check it where
	// the fold's second subtraction can matter, at the top of the range.
	for _, x0 := range []uint32{1, 2, 48271, int32max - 2, int32max - 1} {
		want := x0
		for k := 0; k < 20; k++ {
			want = seedStep(want)
		}
		if got := mulMod(seedJump[0], x0); got != want {
			t.Errorf("mulMod(seedJump[0], %d) = %d, 20 seedSteps give %d", x0, got, want)
		}
	}
}

// drawMix makes one draw of the kind op names — Float64, NormFloat64,
// Intn (a 31-bit and a 63-bit bound) or Int63 — and returns it as bits.
func drawMix(r *Rand, op byte) uint64 {
	switch op % 5 {
	case 0:
		return math.Float64bits(r.Float64())
	case 1:
		return math.Float64bits(r.NormFloat64())
	case 2:
		return uint64(r.Intn(int(op) + 1))
	case 3:
		return uint64(r.Intn(math.MaxInt - int(op)))
	default:
		return uint64(r.Int63())
	}
}

// FuzzReseedMatchesFresh: a generator that has drawn any mix of Float64,
// NormFloat64, Intn and Int63 and is then reseeded draws exactly what
// NewRand(seed) draws, for any later mix. It is what lets one generator
// per worker stand in for a fresh one per trace, connection or sampler.
func FuzzReseedMatchesFresh(f *testing.F) {
	f.Add(int64(1), int64(2), []byte{0, 1, 2, 3, 4}, []byte{4, 3, 2, 1, 0})
	f.Add(int64(0), int64(0), []byte{}, []byte{1, 1, 1})
	f.Add(int64(math.MinInt64), int64(int32max), []byte{1, 1, 1, 1, 1, 1, 1}, []byte{0, 2, 3})
	f.Add(int64(89482311), int64(-1), []byte{3, 3, 3}, []byte{1, 0, 4, 1, 0, 4})
	f.Fuzz(func(t *testing.T, before, seed int64, mixBefore, mixAfter []byte) {
		r := NewRand(before)
		for _, op := range mixBefore {
			drawMix(r, op)
		}
		r.Seed(seed)
		fresh := NewRand(seed)
		for i, op := range append(mixAfter, 0, 1, 2, 3, 4) {
			if g, w := drawMix(r, op), drawMix(fresh, op); g != w {
				t.Fatalf("seed %d after %d draws from %d: draw %d (op %d) = %#x, NewRand gives %#x", seed, len(mixBefore), before, i, op%5, g, w)
			}
		}
	})
}

func BenchmarkNewRand(b *testing.B) {
	b.ReportAllocs()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += NewRand(int64(i)).Float64()
	}
	_ = sink
}

// BenchmarkReseed is one reseed of a warm generator and one draw: what
// each trace of a corpus worker costs in seeding.
func BenchmarkReseed(b *testing.B) {
	b.ReportAllocs()
	r := NewRand(0)
	var sink float64
	for i := 0; i < b.N; i++ {
		r.Seed(int64(i))
		sink += r.Float64()
	}
	_ = sink
}
