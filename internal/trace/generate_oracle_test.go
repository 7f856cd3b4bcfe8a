package trace

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
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

func TestGenerateMatchesOracle(t *testing.T) {
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
			}
		}
	}
}
