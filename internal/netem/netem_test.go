package netem

import (
	"math"
	"strings"
	"testing"

	"veritas/internal/trace"
)

func newTestConn(t *testing.T, cfg Config) *Conn {
	t.Helper()
	c, err := NewConn(cfg)
	if err != nil {
		t.Fatalf("NewConn: %v", err)
	}
	return c
}

// deterministic returns a config without jitter so assertions are exact.
func deterministic() Config {
	return Config{RTT: 0.080, SlowStartRestart: true, JitterStd: 0}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{RTT: 0},
		{RTT: -1},
		{RTT: 0.08, JitterStd: -0.1},
		{RTT: 0.08, JitterStd: 0.9},
		{RTT: 0.08, InitCWND: -1},
		{RTT: 0.08, MaxCWND: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d should be invalid", i)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("DefaultConfig invalid: %v", err)
	}
}

// TestConfigRefusesNonFinite: NaN and ±Inf pass every ordered
// comparison the range checks make (or one of them), so each field is
// checked for a finite value first and the error names it.
func TestConfigRefusesNonFinite(t *testing.T) {
	fields := []struct {
		name string
		set  func(*Config, float64)
	}{
		{"RTT", func(c *Config, v float64) { c.RTT = v }},
		{"InitCWND", func(c *Config, v float64) { c.InitCWND = v }},
		{"MaxCWND", func(c *Config, v float64) { c.MaxCWND = v }},
		{"JitterStd", func(c *Config, v float64) { c.JitterStd = v }},
		{"QueueFactor", func(c *Config, v float64) { c.QueueFactor = v }},
		{"Beta", func(c *Config, v float64) { c.Beta = v }},
	}
	for _, f := range fields {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			cfg := DefaultConfig()
			f.set(&cfg, v)
			err := cfg.Validate()
			if err == nil || !strings.Contains(err.Error(), f.name+" ") {
				t.Errorf("%s = %v: err = %v, want one naming %s", f.name, v, err, f.name)
			}
			if _, err := NewConn(cfg); err == nil {
				t.Errorf("%s = %v: NewConn accepted it", f.name, v)
			}
		}
	}
}

func TestDownloadZeroBytes(t *testing.T) {
	c := newTestConn(t, deterministic())
	end, err := c.Download(3, 0, trace.Constant(5))
	if err != nil || end != 3 {
		t.Errorf("zero-byte download = (%v, %v), want (3, nil)", end, err)
	}
}

func TestDownloadNilTrace(t *testing.T) {
	c := newTestConn(t, deterministic())
	if _, err := c.Download(0, 1000, nil); err == nil {
		t.Error("nil trace should error")
	}
}

func TestDownloadStalledOnZeroBandwidth(t *testing.T) {
	c := newTestConn(t, deterministic())
	if _, err := c.Download(0, 1e6, trace.Constant(0)); err != ErrStalled {
		t.Errorf("expected ErrStalled, got %v", err)
	}
}

func TestDownloadResumesAfterZeroPeriod(t *testing.T) {
	// Bandwidth zero for 10 s, then 10 Mbps.
	tr, err := trace.FromSteps(10, []float64{0, 10})
	if err != nil {
		t.Fatal(err)
	}
	c := newTestConn(t, deterministic())
	end, err := c.Download(0, 100e3, tr)
	if err != nil {
		t.Fatalf("Download: %v", err)
	}
	if end <= 10 {
		t.Errorf("download finished at %v, cannot beat the zero period ending at 10", end)
	}
}

func TestLargeDownloadObservesLinkRate(t *testing.T) {
	// A large transfer on a warm connection should observe close to the
	// link rate.
	c := newTestConn(t, deterministic())
	tr := trace.Constant(10)
	// Warm up.
	if _, err := c.Download(0, 20e6, tr); err != nil {
		t.Fatal(err)
	}
	start := 100.0
	end, mbps, err := c.DownloadThroughput(start, 20e6, tr)
	if err != nil {
		t.Fatal(err)
	}
	if end <= start {
		t.Fatal("download took no time")
	}
	if mbps < 8.5 || mbps > 10.01 {
		t.Errorf("large transfer throughput = %v, want close to 10", mbps)
	}
}

func TestSmallDownloadBelowLinkRate(t *testing.T) {
	// A tiny payload takes ~1 RTT: observed throughput far below GTBW.
	c := newTestConn(t, deterministic())
	_, mbps, err := c.DownloadThroughput(0, 2e3, trace.Constant(18))
	if err != nil {
		t.Fatal(err)
	}
	want := 2e3 * 8 / 1e6 / 0.080 // one RTT
	if math.Abs(mbps-want) > 0.01 {
		t.Errorf("tiny payload throughput = %v, want %v", mbps, want)
	}
}

func TestSlowStartRestartAfterIdle(t *testing.T) {
	cfgSSR := deterministic()
	cSSR := newTestConn(t, cfgSSR)
	cfgNoSSR := deterministic()
	cfgNoSSR.SlowStartRestart = false
	cNoSSR := newTestConn(t, cfgNoSSR)

	tr := trace.Constant(18)
	// Warm both connections equally.
	for _, c := range []*Conn{cSSR, cNoSSR} {
		if _, err := c.Download(0, 10e6, tr); err != nil {
			t.Fatal(err)
		}
	}
	// Long idle period, then a mid-size payload.
	start := 1000.0
	endSSR, err := cSSR.Download(start, 400e3, tr)
	if err != nil {
		t.Fatal(err)
	}
	endNoSSR, err := cNoSSR.Download(start, 400e3, tr)
	if err != nil {
		t.Fatal(err)
	}
	if endSSR <= endNoSSR {
		t.Errorf("SSR should slow the post-idle download: SSR %v <= no-SSR %v",
			endSSR-start, endNoSSR-start)
	}
}

func TestCwndPersistsAcrossDownloads(t *testing.T) {
	cfg := deterministic()
	cfg.SlowStartRestart = false
	c := newTestConn(t, cfg)
	tr := trace.Constant(10)
	st0 := c.State(0)
	if _, err := c.Download(0, 5e6, tr); err != nil {
		t.Fatal(err)
	}
	st1 := c.State(100)
	if st1.CWND <= st0.CWND {
		t.Errorf("cwnd did not grow across download: %v -> %v", st0.CWND, st1.CWND)
	}
}

func TestStateLastSendGap(t *testing.T) {
	c := newTestConn(t, deterministic())
	if gap := c.State(5).LastSendGap; gap != NeverSentGap {
		t.Errorf("gap before any send = %v, want NeverSentGap", gap)
	}
	end, err := c.Download(0, 1e5, trace.Constant(10))
	if err != nil {
		t.Fatal(err)
	}
	gap := c.State(end + 3).LastSendGap
	if math.Abs(gap-3) > 1e-9 {
		t.Errorf("gap = %v, want 3", gap)
	}
}

func TestThroughputTracksTimeVaryingTrace(t *testing.T) {
	// First 100 s at 2 Mbps, then 8 Mbps: a long download spanning the
	// boundary must observe an intermediate average rate.
	tr, err := trace.FromSteps(100, []float64{2, 8})
	if err != nil {
		t.Fatal(err)
	}
	c := newTestConn(t, deterministic())
	// Warm up within the slow period.
	if _, err := c.Download(0, 2e6, tr); err != nil {
		t.Fatal(err)
	}
	// Download ~50 MB starting at t=80: takes well past t=100.
	start := 80.0
	end, mbps, err := c.DownloadThroughput(start, 50e6, tr)
	if err != nil {
		t.Fatal(err)
	}
	if end < 100 {
		t.Fatalf("download should span the rate change, ended %v", end)
	}
	if mbps <= 2.5 || mbps >= 8 {
		t.Errorf("throughput across rate change = %v, want between 2.5 and 8", mbps)
	}
}

func TestJitterIsSeededAndBounded(t *testing.T) {
	cfg := DefaultConfig()
	cfg.JitterStd = 0.05
	a := newTestConn(t, cfg)
	b := newTestConn(t, cfg)
	tr := trace.Constant(10)
	endA, _ := a.Download(0, 5e6, tr)
	endB, _ := b.Download(0, 5e6, tr)
	if endA != endB {
		t.Errorf("same seed should give identical downloads: %v vs %v", endA, endB)
	}
	cfg2 := cfg
	cfg2.Seed = 999
	c := newTestConn(t, cfg2)
	endC, _ := c.Download(0, 5e6, tr)
	if endC == endA {
		t.Log("note: different jitter seed produced identical download (possible but unlikely)")
	}
}
