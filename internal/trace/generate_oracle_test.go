package trace

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"veritas/internal/mathx"
)

// generateOracle is Generate as it was before the one seeded source: a
// math/rand generator, a []float64 of step values and FromSteps' copy
// into points.
func generateOracle(cfg GenConfig) (*Trace, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := int(math.Ceil(cfg.Horizon / cfg.Interval))
	vals := make([]float64, n)
	span := cfg.MaxMbps - cfg.MinMbps
	cur := cfg.MinMbps + rng.Float64()*span
	fadeLeft := 0
	for i := 0; i < n; i++ {
		if fadeLeft > 0 {
			vals[i] = cfg.FadeMbps
			fadeLeft--
			continue
		}
		vals[i] = cur
		if cfg.FadeProb > 0 && rng.Float64() < cfg.FadeProb {
			fadeLeft = cfg.FadeIntervals
			if fadeLeft < 1 {
				fadeLeft = 1
			}
			continue
		}
		if rng.Float64() < cfg.JumpProb {
			cur = cfg.MinMbps + rng.Float64()*span
			continue
		}
		cur += (rng.Float64()*2 - 1) * cfg.StepMbps
		if cur < cfg.MinMbps {
			cur = cfg.MinMbps + (cfg.MinMbps - cur)
		}
		if cur > cfg.MaxMbps {
			cur = cfg.MaxMbps - (cur - cfg.MaxMbps)
		}
		if cur < cfg.MinMbps {
			cur = cfg.MinMbps
		}
		if cur > cfg.MaxMbps {
			cur = cfg.MaxMbps
		}
	}
	return FromSteps(cfg.Interval, vals)
}

// TestGenerateMatchesOracle pins Generate, and GenerateWith through one
// generator reused (and so left mid-sequence) from case to case, to the
// math/rand oracle; GenerateSet's traces are the oracle's of each seed.
func TestGenerateMatchesOracle(t *testing.T) {
	reused := mathx.NewRand(42)
	for _, name := range Regimes() {
		for _, seed := range []int64{0, 1, 2, 10_001, -7, math.MaxInt64} {
			cfg, err := RegimeConfig(name, seed)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range []GenConfig{cfg, {MinMbps: 1, MaxMbps: 2, Interval: 0.7, Horizon: 30, StepMbps: 5, JumpProb: 0.5, FadeProb: 0.3, Seed: seed}} {
				got, err := Generate(c)
				if err != nil {
					t.Fatal(err)
				}
				want, err := generateOracle(c)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s seed %d: Generate differs from the math/rand oracle", name, seed)
				}
				if got, err = GenerateWith(reused, c); err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s seed %d: GenerateWith a reused generator differs from the math/rand oracle", name, seed)
				}
			}
		}
		cfg, err := RegimeConfig(name, 7)
		if err != nil {
			t.Fatal(err)
		}
		set, err := GenerateSet(cfg, 4)
		if err != nil {
			t.Fatal(err)
		}
		for i, got := range set {
			c := cfg
			c.Seed += int64(i)
			if want, _ := generateOracle(c); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: GenerateSet trace %d differs from the oracle's for seed %d", name, i, c.Seed)
			}
		}
	}
}

// BenchmarkGenerate is one 720 s trace of the lte regime (720 steps), as
// a corpus build draws it: through a warm generator, reseeded per trace.
func BenchmarkGenerate(b *testing.B) {
	cfg := DefaultLTE(1)
	rng := mathx.NewRand(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		if _, err := GenerateWith(rng, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
