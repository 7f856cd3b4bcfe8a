package player

import (
	"bytes"
	"math"
	"testing"

	"veritas/internal/abr"
	"veritas/internal/netem"
	"veritas/internal/trace"
	"veritas/internal/video"
)

func testConfig(t *testing.T, mbps float64, alg abr.Algorithm) Config {
	t.Helper()
	return Config{
		Video:     video.MustSynthesize(video.DefaultConfig(1)),
		ABR:       alg,
		Trace:     trace.Constant(mbps),
		Net:       netem.Config{RTT: 0.080, SlowStartRestart: true},
		BufferCap: 5,
	}
}

func TestRunValidation(t *testing.T) {
	good := testConfig(t, 5, abr.NewMPC())
	bad := []func(*Config){
		func(c *Config) { c.Video = nil },
		func(c *Config) { c.ABR = nil },
		func(c *Config) { c.Trace = nil },
		func(c *Config) { c.BufferCap = 1 }, // below one chunk duration
		func(c *Config) { c.MaxChunks = -1 },
		func(c *Config) { c.Net.RTT = 0 },
	}
	for i, mut := range bad {
		cfg := good
		mut(&cfg)
		if _, _, err := Run(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestSessionCompletes(t *testing.T) {
	cfg := testConfig(t, 5, abr.NewMPC())
	log, m, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(log.Records) != cfg.Video.NumChunks() {
		t.Fatalf("logged %d chunks, want %d", len(log.Records), cfg.Video.NumChunks())
	}
	if m.NumChunks != cfg.Video.NumChunks() {
		t.Errorf("metrics chunk count %d", m.NumChunks)
	}
	if m.AvgSSIM <= 0.9 || m.AvgSSIM > 1 {
		t.Errorf("implausible SSIM %v", m.AvgSSIM)
	}
	if m.AvgBitrateMbps <= 0 {
		t.Errorf("non-positive bitrate %v", m.AvgBitrateMbps)
	}
}

func TestRecordsAreConsistent(t *testing.T) {
	log, _, err := Run(testConfig(t, 5, abr.NewMPC()))
	if err != nil {
		t.Fatal(err)
	}
	prevEnd := 0.0
	for i, r := range log.Records {
		if r.Index != i {
			t.Fatalf("record %d has index %d", i, r.Index)
		}
		if r.Start < prevEnd {
			t.Fatalf("chunk %d starts (%v) before previous end (%v)", i, r.Start, prevEnd)
		}
		if r.End <= r.Start {
			t.Fatalf("chunk %d has non-positive download time", i)
		}
		wantTput := r.SizeBytes * 8 / 1e6 / r.DownloadSeconds()
		if math.Abs(r.ThroughputMbps-wantTput) > 1e-9 {
			t.Fatalf("chunk %d throughput inconsistent", i)
		}
		if err := r.TCP.Validate(); i > 0 && err != nil {
			t.Fatalf("chunk %d TCP state invalid: %v", i, err)
		}
		prevEnd = r.End
	}
}

func TestBufferCapCreatesIdleGaps(t *testing.T) {
	// On a fast link the player must wait for buffer room, so gaps
	// between chunk downloads should exceed the RTO, triggering SSR —
	// the paper's central observation mechanism.
	log, _, err := Run(testConfig(t, 20, abr.NewMPC()))
	if err != nil {
		t.Fatal(err)
	}
	gaps := 0
	for _, r := range log.Records[5:] {
		if r.TCP.LastSendGap > r.TCP.RTO {
			gaps++
		}
	}
	if gaps < len(log.Records)/3 {
		t.Errorf("only %d/%d chunks saw idle gaps > RTO; buffer-cap waiting seems broken",
			gaps, len(log.Records)-5)
	}
}

func TestFastLinkNoRebuffering(t *testing.T) {
	_, m, err := Run(testConfig(t, 50, abr.NewMPC()))
	if err != nil {
		t.Fatal(err)
	}
	if m.RebufRatio > 0.001 {
		t.Errorf("50 Mbps link rebuffered %.3f%%", m.RebufRatio*100)
	}
}

func TestSlowLinkRebuffersAtHighFixedQuality(t *testing.T) {
	// Forcing the top quality on a link slower than its bitrate must
	// rebuffer heavily.
	cfg := testConfig(t, 1, &abr.Fixed{Quality: 7}) // ~4 Mbps on 1 Mbps link
	_, m, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.RebufRatio < 0.3 {
		t.Errorf("forced 4 Mbps on 1 Mbps link rebuffered only %.1f%%", m.RebufRatio*100)
	}
}

func TestABRAdaptsToSlowLink(t *testing.T) {
	_, fixed, err := Run(testConfig(t, 1, &abr.Fixed{Quality: 7}))
	if err != nil {
		t.Fatal(err)
	}
	_, mpc, err := Run(testConfig(t, 1, abr.NewMPC()))
	if err != nil {
		t.Fatal(err)
	}
	if mpc.RebufRatio >= fixed.RebufRatio {
		t.Errorf("MPC (%.2f%%) should rebuffer less than forced top quality (%.2f%%)",
			mpc.RebufRatio*100, fixed.RebufRatio*100)
	}
	if mpc.AvgBitrateMbps > 1.5 {
		t.Errorf("MPC on a 1 Mbps link picked %v Mbps average", mpc.AvgBitrateMbps)
	}
}

func TestHigherBandwidthHigherQuality(t *testing.T) {
	_, slow, err := Run(testConfig(t, 1.5, abr.NewMPC()))
	if err != nil {
		t.Fatal(err)
	}
	_, fast, err := Run(testConfig(t, 8, abr.NewMPC()))
	if err != nil {
		t.Fatal(err)
	}
	if fast.AvgBitrateMbps <= slow.AvgBitrateMbps {
		t.Errorf("bitrate should rise with bandwidth: %v (8 Mbps) vs %v (1.5 Mbps)",
			fast.AvgBitrateMbps, slow.AvgBitrateMbps)
	}
	if fast.AvgSSIM <= slow.AvgSSIM {
		t.Errorf("SSIM should rise with bandwidth")
	}
}

func TestMaxChunksPrefix(t *testing.T) {
	cfg := testConfig(t, 5, abr.NewMPC())
	cfg.MaxChunks = 25
	log, m, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(log.Records) != 25 || m.NumChunks != 25 {
		t.Errorf("MaxChunks=25 produced %d records", len(log.Records))
	}
}

func TestPrefixView(t *testing.T) {
	log, _, err := Run(testConfig(t, 5, abr.NewMPC()))
	if err != nil {
		t.Fatal(err)
	}
	p := log.Prefix(10)
	if len(p.Records) != 10 {
		t.Fatalf("Prefix(10) has %d records", len(p.Records))
	}
	if p.BufferCap != log.BufferCap || p.ABRName != log.ABRName {
		t.Error("Prefix lost metadata")
	}
	big := log.Prefix(1 << 20)
	if len(big.Records) != len(log.Records) {
		t.Error("Prefix beyond length should return all records")
	}
}

func TestRebufferRatioDefinition(t *testing.T) {
	_, m, err := Run(testConfig(t, 1, &abr.Fixed{Quality: 7}))
	if err != nil {
		t.Fatal(err)
	}
	want := m.RebufSeconds / (m.PlaybackSeconds + m.RebufSeconds)
	if math.Abs(m.RebufRatio-want) > 1e-12 {
		t.Errorf("RebufRatio = %v, want %v", m.RebufRatio, want)
	}
}

func TestDeterministicRuns(t *testing.T) {
	a, am, err := Run(testConfig(t, 4, abr.NewMPC()))
	if err != nil {
		t.Fatal(err)
	}
	b, bm, err := Run(testConfig(t, 4, abr.NewMPC()))
	if err != nil {
		t.Fatal(err)
	}
	if am != bm {
		t.Error("identical configs gave different metrics")
	}
	for i := range a.Records {
		if a.Records[i] != b.Records[i] {
			t.Fatalf("identical configs diverge at record %d", i)
		}
	}
}

func TestLogCodecRoundTrip(t *testing.T) {
	log, _, err := Run(testConfig(t, 5, abr.NewBBA()))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := EncodeLog(&buf, log); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Records) != len(log.Records) || got.ABRName != log.ABRName {
		t.Fatal("round trip lost data")
	}
	r0, g0 := log.Records[42], got.Records[42]
	if r0.SizeBytes != g0.SizeBytes || r0.TCP.CWND != g0.TCP.CWND {
		t.Error("record fields changed in round trip")
	}
}

func TestDecodeLogRejectsEmpty(t *testing.T) {
	if _, err := DecodeLog(bytes.NewBufferString(`{"Records":[]}`)); err == nil {
		t.Error("empty record list should fail")
	}
	if _, err := DecodeLog(bytes.NewBufferString(`not json`)); err == nil {
		t.Error("bad JSON should fail")
	}
}
