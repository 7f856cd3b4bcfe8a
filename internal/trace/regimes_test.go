package trace

import (
	"math"
	"testing"
)

func TestRegimeConfigLookup(t *testing.T) {
	for _, name := range Regimes() {
		cfg, err := RegimeConfig(name, 7)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if cfg.Seed != 7 {
			t.Errorf("%s: seed %d, want 7", name, cfg.Seed)
		}
		tr, err := Generate(cfg)
		if err != nil {
			t.Fatalf("%s: generate: %v", name, err)
		}
		if tr.Len() == 0 {
			t.Errorf("%s: empty trace", name)
		}
	}
	if cfg, err := RegimeConfig("", 3); err != nil || cfg.MinMbps != DefaultFCC(3).MinMbps {
		t.Errorf("empty regime should default to fcc, got %+v, %v", cfg, err)
	}
	if _, err := RegimeConfig("dialup", 1); err == nil {
		t.Error("unknown regime should error")
	}
}

func TestWiFiFades(t *testing.T) {
	tr, err := Generate(DefaultWiFi(1))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultWiFi(1)
	var fades int
	for _, p := range tr.Points() {
		if p.Mbps == cfg.FadeMbps {
			fades++
		}
	}
	if fades == 0 {
		t.Error("WiFi regime produced no fade intervals")
	}
	// Non-fade values stay inside the configured band.
	for _, p := range tr.Points() {
		if p.Mbps != cfg.FadeMbps && (p.Mbps < cfg.MinMbps-1e-9 || p.Mbps > cfg.MaxMbps+1e-9) {
			t.Errorf("value %v outside [%v, %v]", p.Mbps, cfg.MinMbps, cfg.MaxMbps)
		}
	}
}

// TestFadeDisabledUnchanged pins the FCC process against golden values
// captured before the fade extension landed: with fading disabled the
// generator must not consume any extra RNG draws, or every FCC trace —
// and every paper figure — would silently shift.
func TestFadeDisabledUnchanged(t *testing.T) {
	tr, err := Generate(DefaultFCC(42))
	if err != nil {
		t.Fatal(err)
	}
	pts := tr.Points()
	if len(pts) != 144 {
		t.Fatalf("DefaultFCC(42) has %d points, want 144", len(pts))
	}
	golden := []Point{
		{0, 4.865141805233163},
		{5, 4.948416886480077},
		{10, 4.5834716533595765},
		{15, 4.8337733620990795},
		{20, 4.7402090845388525},
		{25, 4.928712538402108},
	}
	for i, want := range golden {
		if pts[i] != want {
			t.Fatalf("point %d = %v, want %v (FCC RNG stream perturbed)", i, pts[i], want)
		}
	}
}

func TestFadeValidation(t *testing.T) {
	bad := []func(*GenConfig){
		func(c *GenConfig) { c.FadeProb = -0.1 },
		func(c *GenConfig) { c.FadeProb = 1.5 },
		func(c *GenConfig) { c.FadeMbps = -1 },
		func(c *GenConfig) { c.FadeIntervals = -1 },
		func(c *GenConfig) { c.FadeProb = math.NaN() },
		func(c *GenConfig) { c.FadeMbps = math.NaN() },
		func(c *GenConfig) { c.FadeMbps = math.Inf(1) },
	}
	for i, mut := range bad {
		cfg := DefaultWiFi(1)
		mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d not caught", i)
		}
	}
}
