package trace

import (
	"fmt"
	"math"

	"veritas/internal/mathx"
)

// GenConfig describes a synthetic FCC-like bandwidth process. The paper
// emulates FCC broadband traces (piecewise-constant bandwidth over 5 s
// intervals); we substitute a seeded Markov-modulated random walk with
// the same structure: the bandwidth holds for Interval seconds, then
// takes a bounded random step, with occasional larger regime jumps.
type GenConfig struct {
	MinMbps  float64 // inclusive floor of the process
	MaxMbps  float64 // inclusive ceiling of the process
	Interval float64 // seconds each value holds (paper: 5 s)
	Horizon  float64 // total trace length in seconds
	StepMbps float64 // max magnitude of a regular step (uniform)
	JumpProb float64 // probability an interval is a regime jump
	Seed     int64

	// Deep-fade extension for WiFi-like regimes: with probability
	// FadeProb an interval begins a fade, during which the bandwidth
	// drops to FadeMbps for FadeIntervals intervals before resuming the
	// pre-fade level. All three zero values disable fading, leaving the
	// FCC-like process byte-identical to the original generator.
	FadeProb      float64 // probability an interval starts a fade
	FadeMbps      float64 // bandwidth during a fade
	FadeIntervals int     // fade length in intervals (min 1 when fading)
}

// MaxSteps bounds the steps of a generated trace (Horizon/Interval) and
// of a SquareWave (horizon/halfPeriod): far above what a session needs
// (the built-in regimes use 720) and small enough that a trace's points
// fit in 16 MiB.
const MaxSteps = 1 << 20

// Validate reports the first problem with the config, if any.
func (c GenConfig) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{{"MinMbps", c.MinMbps}, {"MaxMbps", c.MaxMbps}, {"Interval", c.Interval}, {"Horizon", c.Horizon},
		{"StepMbps", c.StepMbps}, {"JumpProb", c.JumpProb}, {"FadeProb", c.FadeProb}, {"FadeMbps", c.FadeMbps}} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("trace: %s %v is not finite", f.name, f.v)
		}
	}
	switch {
	case c.MinMbps < 0:
		return fmt.Errorf("trace: MinMbps %v < 0", c.MinMbps)
	case c.MaxMbps <= c.MinMbps:
		return fmt.Errorf("trace: MaxMbps %v <= MinMbps %v", c.MaxMbps, c.MinMbps)
	case c.Interval <= 0:
		return fmt.Errorf("trace: Interval %v <= 0", c.Interval)
	case c.Horizon < c.Interval:
		return fmt.Errorf("trace: Horizon %v < Interval %v", c.Horizon, c.Interval)
	case c.Horizon/c.Interval > MaxSteps:
		return fmt.Errorf("trace: Horizon %v / Interval %v is more than %d steps", c.Horizon, c.Interval, MaxSteps)
	case c.StepMbps < 0:
		return fmt.Errorf("trace: StepMbps %v < 0", c.StepMbps)
	case c.JumpProb < 0 || c.JumpProb > 1:
		return fmt.Errorf("trace: JumpProb %v outside [0,1]", c.JumpProb)
	case c.FadeProb < 0 || c.FadeProb > 1:
		return fmt.Errorf("trace: FadeProb %v outside [0,1]", c.FadeProb)
	case c.FadeMbps < 0:
		return fmt.Errorf("trace: FadeMbps %v < 0", c.FadeMbps)
	case c.FadeIntervals < 0:
		return fmt.Errorf("trace: FadeIntervals %d < 0", c.FadeIntervals)
	}
	return nil
}

// DefaultFCC returns the generator settings used for the paper's
// counterfactual experiments: GTBW varying within 3-8 Mbps over 5 s
// intervals for a 10-minute session. Step sizes mirror the stability of
// real FCC broadband traces, which drift slowly with occasional regime
// shifts.
func DefaultFCC(seed int64) GenConfig {
	return GenConfig{
		MinMbps:  3,
		MaxMbps:  8,
		Interval: 5,
		Horizon:  720, // a 10-min video plus rebuffering slack
		StepMbps: 0.4,
		JumpProb: 0.02,
		Seed:     seed,
	}
}

// DefaultLTE returns a cellular-like regime: wider dynamic range than
// the FCC broadband process (1–20 Mbps), second-granularity variation
// and frequent regime jumps from handovers and scheduler churn.
func DefaultLTE(seed int64) GenConfig {
	return GenConfig{
		MinMbps:  1,
		MaxMbps:  20,
		Interval: 1,
		Horizon:  720,
		StepMbps: 1.5,
		JumpProb: 0.08,
		Seed:     seed,
	}
}

// DefaultWiFi returns a WLAN-like regime: a fast 2–25 Mbps random walk
// punctuated by deep fades (interference / contention bursts) during
// which the link collapses to ~0.5 Mbps for a few seconds.
func DefaultWiFi(seed int64) GenConfig {
	return GenConfig{
		MinMbps:       2,
		MaxMbps:       25,
		Interval:      2,
		Horizon:       720,
		StepMbps:      1.0,
		JumpProb:      0.04,
		FadeProb:      0.05,
		FadeMbps:      0.5,
		FadeIntervals: 3,
		Seed:          seed,
	}
}

// Regimes returns the names of the built-in generator regimes, in the
// order RegimeConfig accepts them.
func Regimes() []string { return []string{"fcc", "lte", "wifi"} }

// RegimeConfig returns the named built-in regime's generator config.
func RegimeConfig(name string, seed int64) (GenConfig, error) {
	switch name {
	case "fcc", "":
		return DefaultFCC(seed), nil
	case "lte":
		return DefaultLTE(seed), nil
	case "wifi":
		return DefaultWiFi(seed), nil
	}
	return GenConfig{}, fmt.Errorf("trace: unknown regime %q (have %v)", name, Regimes())
}

// Generate produces one synthetic trace from the config.
func Generate(cfg GenConfig) (*Trace, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return generate(mathx.NewRand(cfg.Seed), cfg)
}

// GenerateWith is Generate drawing from rng, which it reseeds with
// cfg.Seed: the same trace, without allocating and seeding a generator
// of its own. A caller that generates many traces keeps one generator
// for all of them (engine.BuildCorpus keeps one per worker).
func GenerateWith(rng *mathx.Rand, cfg GenConfig) (*Trace, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng.Seed(cfg.Seed)
	return generate(rng, cfg)
}

// generate draws the trace of a validated config from rng, seeded with
// cfg.Seed.
func generate(rng *mathx.Rand, cfg GenConfig) (*Trace, error) {
	n := int(math.Ceil(cfg.Horizon / cfg.Interval))
	pts := make([]Point, n)
	span := cfg.MaxMbps - cfg.MinMbps
	cur := cfg.MinMbps + rng.Float64()*span
	fadeLeft := 0
	for i := 0; i < n; i++ {
		if fadeLeft > 0 {
			pts[i].Mbps = cfg.FadeMbps
			fadeLeft--
			continue
		}
		pts[i].Mbps = cur
		if cfg.FadeProb > 0 && rng.Float64() < cfg.FadeProb {
			fadeLeft = cfg.FadeIntervals
			if fadeLeft < 1 {
				fadeLeft = 1
			}
			continue // the pre-fade level resumes after the fade
		}
		if rng.Float64() < cfg.JumpProb {
			// Regime jump: re-draw anywhere in the range. This gives the
			// occasional sharp shift real broadband traces show.
			cur = cfg.MinMbps + rng.Float64()*span
			continue
		}
		step := (rng.Float64()*2 - 1) * cfg.StepMbps
		cur += step
		if cur < cfg.MinMbps {
			cur = cfg.MinMbps + (cfg.MinMbps - cur) // reflect at floor
		}
		if cur > cfg.MaxMbps {
			cur = cfg.MaxMbps - (cur - cfg.MaxMbps) // reflect at ceiling
		}
		// A reflection can overshoot when the step exceeds the span.
		if cur < cfg.MinMbps {
			cur = cfg.MinMbps
		}
		if cur > cfg.MaxMbps {
			cur = cfg.MaxMbps
		}
	}
	return FromPoints(cfg.Interval, pts)
}

// GenerateSet produces n traces with seeds cfg.Seed, cfg.Seed+1, ...
// so sets are reproducible and individually addressable. Trace i is
// Generate's for seed cfg.Seed+i; one generator, reseeded per trace,
// draws them all.
func GenerateSet(cfg GenConfig, n int) ([]*Trace, error) {
	if n <= 0 {
		return nil, fmt.Errorf("trace: GenerateSet needs n > 0, got %d", n)
	}
	out := make([]*Trace, n)
	rng := mathx.NewRand(cfg.Seed)
	for i := range out {
		c := cfg
		c.Seed = cfg.Seed + int64(i)
		tr, err := GenerateWith(rng, c)
		if err != nil {
			return nil, err
		}
		out[i] = tr
	}
	return out, nil
}

// SquareWave returns a trace alternating between lo and hi every
// halfPeriod seconds for the given horizon, starting at hi. Used by unit
// tests and the workshop-paper comparison (square-wave bandwidth).
func SquareWave(lo, hi, halfPeriod, horizon float64) (*Trace, error) {
	if !(halfPeriod > 0) || !(horizon > 0) || math.IsInf(halfPeriod, 1) || math.IsInf(horizon, 1) || horizon/halfPeriod > MaxSteps {
		return nil, fmt.Errorf("trace: SquareWave requires positive finite halfPeriod and horizon, at most %d steps", MaxSteps)
	}
	n := int(math.Ceil(horizon / halfPeriod))
	vals := make([]float64, n)
	for i := range vals {
		if i%2 == 0 {
			vals[i] = hi
		} else {
			vals[i] = lo
		}
	}
	return FromSteps(halfPeriod, vals)
}
