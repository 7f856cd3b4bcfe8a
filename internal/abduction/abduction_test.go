package abduction

import (
	"math"
	"strings"
	"testing"

	"veritas/internal/abr"
	"veritas/internal/netem"
	"veritas/internal/player"
	"veritas/internal/trace"
	"veritas/internal/video"
)

// runSession runs an MPC session over the given GTBW trace with the
// paper's default setting (5 s buffer, 160 ms RTT).
func runSession(t *testing.T, tr *trace.Trace, alg abr.Algorithm) *player.SessionLog {
	t.Helper()
	log, _, err := player.Run(player.Config{
		Video:     video.MustSynthesize(video.DefaultConfig(1)),
		ABR:       alg,
		Trace:     tr,
		Net:       netem.Config{RTT: 0.160, SlowStartRestart: true, JitterStd: 0.02, Seed: 5},
		BufferCap: 5,
	})
	if err != nil {
		t.Fatalf("session: %v", err)
	}
	return log
}

// traceRMSE is the time-weighted root mean squared error between an
// estimate and the ground truth over [0, horizon], sampled at 1 s.
func traceRMSE(est, truth *trace.Trace, horizon float64) float64 {
	var sum float64
	n := 0
	for t := 0.0; t < horizon; t++ {
		d := est.At(t) - truth.At(t)
		sum += d * d
		n++
	}
	return math.Sqrt(sum / float64(n))
}

func TestObservationsConversion(t *testing.T) {
	gt := trace.Constant(5)
	log := runSession(t, gt, abr.NewMPC())
	obs, err := Observations(log, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(obs) != len(log.Records) {
		t.Fatalf("%d observations for %d records", len(obs), len(log.Records))
	}
	for i, o := range obs {
		r := log.Records[i]
		if o.ThroughputMbps != r.ThroughputMbps || o.SizeBytes != r.SizeBytes {
			t.Fatalf("observation %d does not match record", i)
		}
		if o.StartInterval != int(r.Start/5) {
			t.Fatalf("observation %d interval %d, want %d", i, o.StartInterval, int(r.Start/5))
		}
	}
	if _, err := Observations(nil, 5); err == nil {
		t.Error("nil log should error")
	}
	if _, err := Observations(log, 0); err == nil {
		t.Error("zero delta should error")
	}
}

func TestAbductRecoversConstantGTBW(t *testing.T) {
	gt := trace.Constant(5)
	log := runSession(t, gt, abr.NewMPC())
	a, err := Abduct(log, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ml := a.MostLikelyTrace()
	horizon := log.Records[len(log.Records)-1].End
	if rmse := traceRMSE(ml, gt, horizon); rmse > 1.0 {
		t.Errorf("most-likely trace RMSE %v Mbps on constant 5 Mbps GTBW", rmse)
	}
}

func TestVeritasBeatsBaseline(t *testing.T) {
	// The paper's core claim (Figure 7): on FCC-like traces with an
	// adaptive ABR, Veritas's inferred traces are much closer to GTBW
	// than the observed-throughput Baseline, which under-estimates
	// whenever the ABR picks small chunks.
	var vBetter, total int
	for seed := int64(1); seed <= 5; seed++ {
		cfg := trace.DefaultFCC(seed)
		gt, err := trace.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		log := runSession(t, gt, abr.NewMPC())
		a, err := Abduct(log, Config{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		base, err := BaselineTrace(log)
		if err != nil {
			t.Fatal(err)
		}
		horizon := log.Records[len(log.Records)-1].End
		vr := traceRMSE(a.MostLikelyTrace(), gt, horizon)
		br := traceRMSE(base, gt, horizon)
		t.Logf("seed %d: Veritas RMSE %.3f, Baseline RMSE %.3f", seed, vr, br)
		total++
		if vr < br {
			vBetter++
		}
	}
	if vBetter < total-1 {
		t.Errorf("Veritas beat Baseline on only %d/%d traces", vBetter, total)
	}
}

func TestBaselineUnderestimates(t *testing.T) {
	// With a 5 s buffer cap the ABR's chunks are often below the BDP,
	// so observed throughput (and hence Baseline) sits below GTBW.
	gt := trace.Constant(6)
	log := runSession(t, gt, abr.NewMPC())
	base, err := BaselineTrace(log)
	if err != nil {
		t.Fatal(err)
	}
	horizon := log.Records[len(log.Records)-1].End
	if m := base.Mean(horizon); m >= 6 {
		t.Errorf("Baseline mean %v should underestimate GTBW 6", m)
	}
}

func TestSampleTracesShapeAndDeterminism(t *testing.T) {
	gt, _ := trace.Generate(trace.DefaultFCC(11))
	log := runSession(t, gt, abr.NewMPC())
	a1, err := Abduct(log, Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	a2, err := Abduct(log, Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	s1, s2 := a1.SampleTraces(), a2.SampleTraces()
	if len(s1) != 5 {
		t.Fatalf("default K = %d, want 5", len(s1))
	}
	for k := range s1 {
		p1, p2 := s1[k].Points(), s2[k].Points()
		if len(p1) != len(p2) {
			t.Fatal("sample lengths differ across identical runs")
		}
		for i := range p1 {
			if p1[i] != p2[i] {
				t.Fatal("same seed produced different samples")
			}
		}
	}
}

func TestSamplesOnQuantizedGrid(t *testing.T) {
	gt, _ := trace.Generate(trace.DefaultFCC(13))
	log := runSession(t, gt, abr.NewMPC())
	a, err := Abduct(log, Config{})
	if err != nil {
		t.Fatal(err)
	}
	eps := a.ConfigUsed().HMM.EpsMbps
	for _, tr := range a.SampleTraces() {
		for _, p := range tr.Points() {
			q := math.Round(p.Mbps/eps) * eps
			if math.Abs(p.Mbps-q) > 1e-9 {
				t.Fatalf("sample value %v not on ε=%v grid", p.Mbps, eps)
			}
		}
	}
}

func TestCounterfactualOutcome(t *testing.T) {
	gt, _ := trace.Generate(trace.DefaultFCC(17))
	log := runSession(t, gt, abr.NewMPC())
	a, err := Abduct(log, Config{NumSamples: 3})
	if err != nil {
		t.Fatal(err)
	}
	setting := Setting{
		Video:     video.MustSynthesize(video.DefaultConfig(1)),
		NewABR:    func() abr.Algorithm { return abr.NewBBA() },
		BufferCap: 5,
		Net:       netem.Config{RTT: 0.080, SlowStartRestart: true},
	}
	out, err := a.Counterfactual(setting)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Samples) != 3 {
		t.Fatalf("%d sample outcomes, want 3", len(out.Samples))
	}
	if out.Baseline.NumChunks != setting.Video.NumChunks() {
		t.Error("baseline replay incomplete")
	}
	low, high := VeritasRange(out.Samples, MetricSSIM)
	if low > high {
		t.Errorf("VeritasRange inverted: %v > %v", low, high)
	}
}

func TestSettingValidation(t *testing.T) {
	s := Setting{}
	if err := s.Validate(); err == nil {
		t.Error("empty setting should be invalid")
	}
	if _, err := Replay(trace.Constant(5), s); err == nil {
		t.Error("replay with invalid setting should fail")
	}
}

func TestVeritasRangeSecondOrderStats(t *testing.T) {
	ms := make([]player.Metrics, 5)
	for i, v := range []float64{5, 1, 4, 2, 3} {
		ms[i] = player.Metrics{AvgSSIM: v}
	}
	low, high := VeritasRange(ms, MetricSSIM)
	if low != 2 || high != 4 {
		t.Errorf("VeritasRange = (%v, %v), want (2, 4): second-lowest/second-highest", low, high)
	}
	low, high = VeritasRange(ms[:2], MetricSSIM)
	if low != 1 || high != 5 {
		t.Errorf("VeritasRange with 2 samples = (%v, %v), want min/max", low, high)
	}
}

func TestPredictDownloadTimeWarmSession(t *testing.T) {
	gt := trace.Constant(5)
	log := runSession(t, gt, abr.NewMPC())
	a, err := Abduct(log, Config{})
	if err != nil {
		t.Fatal(err)
	}
	last := log.Records[len(log.Records)-1]
	// Hypothetical next chunk: 2 MB on a warm connection right after
	// the session. True download time on a 5 Mbps link ≈ 3.2 s plus
	// slow-start overhead.
	st := last.TCP
	st.LastSendGap = 0.05
	got := a.PredictDownloadTime(last.End+1, st, 2e6)
	want := 2e6 * 8 / (5 * 1e6)
	if got < want*0.7 || got > want*2.0 {
		t.Errorf("predicted %v s for a 2 MB chunk on ~5 Mbps, want near %v s", got, want)
	}
}

func TestAbductValidation(t *testing.T) {
	if _, err := Abduct(nil, Config{}); err == nil {
		t.Error("nil log should error")
	}
	if _, err := Abduct(&player.SessionLog{}, Config{}); err == nil {
		t.Error("empty log should error")
	}
}

func TestBaselineTraceValidation(t *testing.T) {
	if _, err := BaselineTrace(nil); err == nil {
		t.Error("nil log should error")
	}
	if _, err := BaselineTrace(&player.SessionLog{}); err == nil {
		t.Error("empty log should error")
	}
	// Every hostile record Abduct refuses, BaselineTrace refuses too —
	// at the parent an End of 1e300 or -5 panicked in makeslice, 1e12
	// asked for 8 TB, and out-of-order records became a trace.
	for _, h := range hostileRecords {
		tr, err := BaselineTrace(hostileLog(h.mutate))
		if err == nil || !strings.Contains(err.Error(), "record 2") {
			t.Errorf("%s: want an error naming record 2, got %v (trace %v)", h.name, err, tr)
		}
	}
	if _, err := BaselineTrace(hostileLog(func(*player.ChunkRecord) {})); err != nil {
		t.Errorf("unedited log refused: %v", err)
	}
	// The Baseline reads neither the size's magnitude nor the TCP state.
	for _, h := range estimatorRecords {
		if _, err := BaselineTrace(hostileLog(h.mutate)); err != nil {
			t.Errorf("%s: refused by the Baseline, which does not read it: %v", h.name, err)
		}
	}
}

func TestBaselineTraceInterpolatesOffPeriods(t *testing.T) {
	// Construct a tiny synthetic log with a long off-period between two
	// chunks and check the ramp.
	log := &player.SessionLog{
		ChunkSeconds: 2,
		BufferCap:    5,
		Records: []player.ChunkRecord{
			{Index: 0, Start: 0, End: 1, SizeBytes: 1e6, ThroughputMbps: 2},
			{Index: 1, Start: 11, End: 12, SizeBytes: 1e6, ThroughputMbps: 6},
		},
	}
	base, err := BaselineTrace(log)
	if err != nil {
		t.Fatal(err)
	}
	if got := base.At(0.5); got != 2 {
		t.Errorf("during chunk 0: %v, want 2", got)
	}
	if got := base.At(11.5); got != 6 {
		t.Errorf("during chunk 1: %v, want 6", got)
	}
	mid := base.At(6)
	if mid <= 2 || mid >= 6 {
		t.Errorf("off-period value %v should interpolate between 2 and 6", mid)
	}
}

func TestAbductErrorPaths(t *testing.T) {
	gt := trace.Constant(5)
	log := runSession(t, gt, abr.NewMPC())
	// Invalid HMM config surfaces.
	bad := Config{}
	bad.HMM.EpsMbps = -1
	bad.HMM.MaxMbps = 10
	bad.HMM.DeltaSecs = 5
	bad.HMM.Sigma = 0.5
	bad.HMM.StayProb = 0.8
	if _, err := Abduct(log, bad); err == nil {
		t.Error("invalid HMM config should fail")
	}
	// Transition fitting path runs and produces a usable abduction.
	abd, err := Abduct(log.Prefix(40), Config{FitTransitions: 2, NumSamples: 2})
	if err != nil {
		t.Fatalf("FitTransitions path: %v", err)
	}
	if len(abd.SampleTraces()) != 2 {
		t.Error("fit path lost samples")
	}
}

func TestLogAccessor(t *testing.T) {
	gt := trace.Constant(5)
	log := runSession(t, gt, abr.NewMPC())
	abd, err := Abduct(log, Config{NumSamples: 1})
	if err != nil {
		t.Fatal(err)
	}
	if abd.Log() != log {
		t.Error("Log() should return the abducted session log")
	}
}

func TestIgnoreTCPStateDegradesRecovery(t *testing.T) {
	gt := trace.Constant(6)
	log := runSession(t, gt, abr.NewMPC())
	full, err := Abduct(log, Config{NumSamples: 1})
	if err != nil {
		t.Fatal(err)
	}
	ablated, err := Abduct(log, Config{NumSamples: 1, IgnoreTCPState: true})
	if err != nil {
		t.Fatal(err)
	}
	horizon := log.Records[len(log.Records)-1].End
	fullRMSE := traceRMSE(full.MostLikelyTrace(), gt, horizon)
	ablRMSE := traceRMSE(ablated.MostLikelyTrace(), gt, horizon)
	if fullRMSE >= ablRMSE {
		t.Errorf("TCP-state conditioning should help: with %v vs without %v", fullRMSE, ablRMSE)
	}
}
