package trace

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
)

func mustFromSteps(t *testing.T, interval float64, vals []float64) *Trace {
	t.Helper()
	tr, err := FromSteps(interval, vals)
	if err != nil {
		t.Fatalf("FromSteps: %v", err)
	}
	return tr
}

func TestAtLookup(t *testing.T) {
	tr := mustFromSteps(t, 5, []float64{1, 2, 3})
	cases := []struct{ t, want float64 }{
		{-1, 1}, {0, 1}, {4.99, 1}, {5, 2}, {9.99, 2}, {10, 3}, {100, 3},
	}
	for _, c := range cases {
		if got := tr.At(c.t); got != c.want {
			t.Errorf("At(%v) = %v, want %v", c.t, got, c.want)
		}
	}
}

func TestNewRejectsBad(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Error("New(nil) should fail")
	}
	if _, err := New([]Point{{0, -1}}); err == nil {
		t.Error("negative bandwidth should fail")
	}
	if _, err := New([]Point{{0, 1}, {0, 2}}); err == nil {
		t.Error("duplicate time should fail")
	}
	if _, err := New([]Point{{0, math.NaN()}}); err == nil {
		t.Error("NaN bandwidth should fail")
	}
}

func TestNewSortsPoints(t *testing.T) {
	tr, err := New([]Point{{10, 2}, {0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if tr.At(5) != 1 || tr.At(15) != 2 {
		t.Error("points not sorted by time")
	}
}

func TestNextChange(t *testing.T) {
	tr := mustFromSteps(t, 5, []float64{1, 2})
	if got := tr.NextChange(0); got != 5 {
		t.Errorf("NextChange(0) = %v, want 5", got)
	}
	if got := tr.NextChange(5); !math.IsInf(got, 1) {
		t.Errorf("NextChange(5) = %v, want +Inf", got)
	}
	if got := tr.NextChange(2.5); got != 5 {
		t.Errorf("NextChange(2.5) = %v, want 5", got)
	}
}

func TestConstant(t *testing.T) {
	tr := Constant(7)
	if tr.At(0) != 7 || tr.At(1e9) != 7 {
		t.Error("Constant trace should hold its value forever")
	}
}

func TestMeanTimeWeighted(t *testing.T) {
	tr := mustFromSteps(t, 5, []float64{2, 4})
	// Over [0,10): 5s at 2 and 5s at 4.
	if got := tr.Mean(10); got != 3 {
		t.Errorf("Mean(10) = %v, want 3", got)
	}
	// Over [0,5): only the first step.
	if got := tr.Mean(5); got != 2 {
		t.Errorf("Mean(5) = %v, want 2", got)
	}
	// Beyond the end the final value holds.
	if got := tr.Mean(20); got != 3.5 {
		t.Errorf("Mean(20) = %v, want 3.5", got)
	}
}

// stepRange returns the smallest and largest step values of tr.
func stepRange(tr *Trace) (min, max float64) {
	min, max = math.Inf(1), math.Inf(-1)
	for _, p := range tr.points {
		min, max = math.Min(min, p.Mbps), math.Max(max, p.Mbps)
	}
	return min, max
}

// TestFromStepsMatchesNew pins FromSteps, which builds its points in
// place, against the copy-sort-validate constructor it used to go
// through: same points for good input, an error for everything New
// would have refused (and for an interval that is not a number, which
// New let through as NaN times).
func TestFromStepsMatchesNew(t *testing.T) {
	for _, interval := range []float64{0.01, 1, 5, 1e-300} {
		vals := []float64{3, 0, 7.5, 7.5, 1e9}
		pts := make([]Point, len(vals))
		for i, v := range vals {
			pts[i] = Point{T: float64(i) * interval, Mbps: v}
		}
		want, err := New(pts)
		if err != nil {
			t.Fatal(err)
		}
		got := mustFromSteps(t, interval, vals).Points()
		for i, p := range want.Points() {
			if got[i] != p {
				t.Errorf("interval %v step %d = %v, want %v", interval, i, got[i], p)
			}
		}
	}
	for _, bad := range []struct {
		name     string
		interval float64
		vals     []float64
	}{
		{"zero interval", 0, []float64{1}},
		{"negative interval", -1, []float64{1}},
		{"NaN interval", math.NaN(), []float64{1, 2}},
		{"+Inf interval", math.Inf(1), []float64{1, 2, 3}},
		{"interval that overflows", 1e308, []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20}},
		{"no steps", 1, nil},
		{"negative value", 1, []float64{1, -2}},
		{"NaN value", 1, []float64{1, math.NaN()}},
		{"+Inf value", 1, []float64{math.Inf(1)}},
	} {
		if tr, err := FromSteps(bad.interval, bad.vals); err == nil {
			t.Errorf("%s: accepted as %v", bad.name, tr.Points())
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	tr := mustFromSteps(t, 5, []float64{1.5, 2.25, 0})
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != tr.Len() {
		t.Fatalf("round trip changed length: %d vs %d", got.Len(), tr.Len())
	}
	for i, p := range got.Points() {
		if p != tr.Points()[i] {
			t.Errorf("round trip point %d: %v vs %v", i, p, tr.Points()[i])
		}
	}
}

func TestDecodeComments(t *testing.T) {
	in := "# comment\n\n0 1.5\n5 2\n"
	tr, err := Decode(bytes.NewBufferString(in))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 2 || tr.At(6) != 2 {
		t.Error("Decode with comments wrong")
	}
}

func TestDecodeErrors(t *testing.T) {
	for _, in := range []string{"0\n", "a b\n", "0 x\n", ""} {
		if _, err := Decode(bytes.NewBufferString(in)); err == nil {
			t.Errorf("Decode(%q) should fail", in)
		}
	}
}

func TestGenerateBounds(t *testing.T) {
	cfg := DefaultFCC(3)
	tr, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	min, max := stepRange(tr)
	if min < cfg.MinMbps-1e-9 || max > cfg.MaxMbps+1e-9 {
		t.Errorf("generated trace out of bounds: [%v, %v] not within [%v, %v]",
			min, max, cfg.MinMbps, cfg.MaxMbps)
	}
	wantSteps := int(math.Ceil(cfg.Horizon / cfg.Interval))
	if tr.Len() != wantSteps {
		t.Errorf("generated %d steps, want %d", tr.Len(), wantSteps)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, _ := Generate(DefaultFCC(9))
	b, _ := Generate(DefaultFCC(9))
	for i, p := range a.Points() {
		if p != b.Points()[i] {
			t.Fatal("same seed produced different traces")
		}
	}
	c, _ := Generate(DefaultFCC(10))
	same := true
	for i, p := range a.Points() {
		if p != c.Points()[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical traces")
	}
}

func TestGenerateSetSeeds(t *testing.T) {
	set, err := GenerateSet(DefaultFCC(100), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != 3 {
		t.Fatalf("GenerateSet returned %d traces", len(set))
	}
	single, _ := Generate(DefaultFCC(101))
	for i, p := range set[1].Points() {
		if p != single.Points()[i] {
			t.Fatal("GenerateSet seed indexing broken: set[1] != Generate(seed+1)")
		}
	}
}

// TestGenerateValidation: Generate refuses each bad config with an
// error, never a panic. A non-finite field or a step count past
// MaxSteps once reached make([]Point, n) with an n out of range.
func TestGenerateValidation(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []struct {
		name string
		mut  func(*GenConfig)
	}{
		{"max <= min", func(c *GenConfig) { c.MaxMbps = c.MinMbps }},
		{"zero interval", func(c *GenConfig) { c.Interval = 0 }},
		{"NaN interval", func(c *GenConfig) { c.Interval = nan }},
		{"NaN horizon", func(c *GenConfig) { c.Horizon = nan }},
		{"+Inf horizon", func(c *GenConfig) { c.Horizon = inf }},
		{"+Inf interval and horizon", func(c *GenConfig) { c.Interval, c.Horizon = inf, inf }},
		{"NaN min", func(c *GenConfig) { c.MinMbps = nan }},
		{"-Inf min", func(c *GenConfig) { c.MinMbps = -inf }},
		{"NaN max", func(c *GenConfig) { c.MaxMbps = nan }},
		{"+Inf max", func(c *GenConfig) { c.MaxMbps = inf }},
		{"NaN step", func(c *GenConfig) { c.StepMbps = nan }},
		{"+Inf step", func(c *GenConfig) { c.StepMbps = inf }},
		{"NaN jump probability", func(c *GenConfig) { c.JumpProb = nan }},
		{"too many steps", func(c *GenConfig) { c.Interval = c.Horizon / (MaxSteps + 1) }},
		{"tiny interval", func(c *GenConfig) { c.Interval = 1e-300 }},
	} {
		cfg := DefaultFCC(1)
		c.mut(&cfg)
		if _, err := Generate(cfg); err == nil {
			t.Errorf("%s: Generate(%+v) succeeded", c.name, cfg)
		}
	}
	if _, err := Generate(GenConfig{MinMbps: 1, MaxMbps: 2, Interval: 1, Horizon: MaxSteps}); err != nil {
		t.Errorf("MaxSteps steps refused: %v", err)
	}
}

// FuzzGenerate: for any config Generate never panics. A config that
// Validate refuses makes Generate return that error; one it accepts
// yields finite, non-negative steps, each inside [MinMbps, MaxMbps] or
// equal to FadeMbps.
func FuzzGenerate(f *testing.F) {
	for _, c := range []GenConfig{DefaultFCC(1), DefaultLTE(2), DefaultWiFi(3),
		{MinMbps: 1, MaxMbps: 2, Interval: math.NaN(), Horizon: 10},
		{MinMbps: 1, MaxMbps: 2, Interval: 1, Horizon: math.Inf(1)},
		{MinMbps: 0, MaxMbps: math.MaxFloat64, Interval: 1e300, Horizon: math.MaxFloat64, StepMbps: math.MaxFloat64, JumpProb: 0.5},
		{MinMbps: 0, MaxMbps: 5e-324, Interval: 5e-324, Horizon: 1e-320, FadeProb: 1, FadeMbps: 7, FadeIntervals: 2},
	} {
		f.Add(c.MinMbps, c.MaxMbps, c.Interval, c.Horizon, c.StepMbps, c.JumpProb, c.FadeProb, c.FadeMbps, c.FadeIntervals, c.Seed)
	}
	f.Fuzz(func(t *testing.T, minMbps, maxMbps, interval, horizon, step, jump, fadeProb, fadeMbps float64, fadeIntervals int, seed int64) {
		cfg := GenConfig{MinMbps: minMbps, MaxMbps: maxMbps, Interval: interval, Horizon: horizon, StepMbps: step,
			JumpProb: jump, Seed: seed, FadeProb: fadeProb, FadeMbps: fadeMbps, FadeIntervals: fadeIntervals}
		tr, err := Generate(cfg)
		if verr := cfg.Validate(); verr != nil {
			if err == nil || err.Error() != verr.Error() {
				t.Fatalf("Validate refused %+v with %v, Generate returned %v", cfg, verr, err)
			}
			return
		}
		if err != nil {
			t.Fatalf("Validate accepted %+v, Generate failed: %v", cfg, err)
		}
		for i, p := range tr.Points() {
			if math.IsNaN(p.Mbps) || math.IsInf(p.Mbps, 0) || p.Mbps < 0 ||
				(p.Mbps < cfg.MinMbps || p.Mbps > cfg.MaxMbps) && p.Mbps != cfg.FadeMbps {
				t.Fatalf("%+v: step %d is %v", cfg, i, p.Mbps)
			}
		}
	})
}

func TestSquareWave(t *testing.T) {
	tr, err := SquareWave(1, 5, 10, 40)
	if err != nil {
		t.Fatal(err)
	}
	if tr.At(0) != 5 || tr.At(10) != 1 || tr.At(20) != 5 || tr.At(30) != 1 {
		t.Error("square wave values wrong")
	}
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range [][2]float64{{0, 40}, {10, 0}, {nan, 40}, {10, nan}, {inf, 40}, {10, inf}, {1e-300, 40}, {1, MaxSteps + 1}} {
		if _, err := SquareWave(1, 5, c[0], c[1]); err == nil {
			t.Errorf("SquareWave(1, 5, %v, %v) succeeded", c[0], c[1])
		}
	}
}

func TestQuickGeneratedTracesInBounds(t *testing.T) {
	f := func(seed int64) bool {
		cfg := GenConfig{MinMbps: 1, MaxMbps: 4, Interval: 5, Horizon: 100,
			StepMbps: 2, JumpProb: 0.2, Seed: seed}
		tr, err := Generate(cfg)
		if err != nil {
			return false
		}
		min, max := stepRange(tr)
		return min >= 1-1e-9 && max <= 4+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
