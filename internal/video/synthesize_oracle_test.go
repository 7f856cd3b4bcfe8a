package video

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// synthesizeOracle is Synthesize as it was before the one seeded source:
// a fresh math/rand generator per chunk, where Synthesize now reseeds
// one.
func synthesizeOracle(cfg Config) *Video {
	v := &Video{
		cfg:   cfg,
		sizes: make([][]float64, cfg.NumChunks),
		ssims: make([][]float64, cfg.NumChunks),
	}
	for n := 0; n < cfg.NumChunks; n++ {
		v.sizes[n] = make([]float64, len(cfg.Ladder))
		v.ssims[n] = make([]float64, len(cfg.Ladder))
		rng := rand.New(rand.NewSource(cfg.Seed*1_000_003 + int64(n)))
		complexity := math.Exp(rng.NormFloat64()*cfg.VBRStd - cfg.VBRStd*cfg.VBRStd/2)
		for q, rung := range cfg.Ladder {
			nominal := rung.Mbps * 1e6 / 8 * cfg.ChunkSeconds
			resid := 1 + rng.NormFloat64()*cfg.VBRStd*0.2
			v.sizes[n][q] = math.Max(200, nominal*complexity*math.Max(0.3, resid))
			v.ssims[n][q] = math.Min(1, math.Max(0, rung.SSIM+rng.NormFloat64()*cfg.SSIMStd))
		}
	}
	return v
}

func TestSynthesizeMatchesOracle(t *testing.T) {
	for _, seed := range []int64{0, 1, 5, -3, math.MaxInt64} {
		cfg := DefaultConfig(seed)
		if got, want := MustSynthesize(cfg), synthesizeOracle(cfg); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: Synthesize differs from the math/rand oracle", seed)
		}
	}
}
