package veritas

import (
	"math"
	"testing"

	"veritas/internal/trace"
)

func TestEndToEndPipeline(t *testing.T) {
	gt, err := GenerateTrace(DefaultTraceConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := RunSession(SessionConfig{Trace: gt, ABR: NewMPC(), MaxChunks: 80})
	if err != nil {
		t.Fatal(err)
	}
	if len(sess.Log.Records) != 80 {
		t.Fatalf("session logged %d chunks", len(sess.Log.Records))
	}
	abd, err := Abduct(sess.Log, AbductionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	w := WhatIf{NewABR: NewBBA}
	outcome, err := Counterfactual(abd, w)
	if err != nil {
		t.Fatal(err)
	}
	if len(outcome.Samples) != 5 {
		t.Fatalf("outcome has %d samples, want 5", len(outcome.Samples))
	}
	truth, err := Oracle(gt, w)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := outcome.SSIMRange()
	if lo > hi {
		t.Errorf("SSIM range inverted: %v > %v", lo, hi)
	}
	// The Veritas range should land near the oracle; the Baseline need
	// not. Allow generous slack — this is a smoke test, the tight
	// comparisons live in the experiments.
	if truth.AvgSSIM < lo-0.02 || truth.AvgSSIM > hi+0.02 {
		t.Errorf("oracle SSIM %v far outside Veritas range [%v, %v]", truth.AvgSSIM, lo, hi)
	}
}

func TestRunSessionValidation(t *testing.T) {
	if _, err := RunSession(SessionConfig{ABR: NewMPC()}); err == nil {
		t.Error("missing trace should error")
	}
	if _, err := RunSession(SessionConfig{Trace: trace.Constant(5)}); err == nil {
		t.Error("missing ABR should error")
	}
}

func TestCounterfactualValidation(t *testing.T) {
	gt := trace.Constant(5)
	sess, err := RunSession(SessionConfig{Trace: gt, ABR: NewMPC(), MaxChunks: 30})
	if err != nil {
		t.Fatal(err)
	}
	abd, err := Abduct(sess.Log, AbductionConfig{NumSamples: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Counterfactual(abd, WhatIf{}); err == nil {
		t.Error("WhatIf without ABR factory should error")
	}
	if _, err := Oracle(gt, WhatIf{}); err == nil {
		t.Error("Oracle without ABR factory should error")
	}
}

func TestBaselineFacade(t *testing.T) {
	sess, err := RunSession(SessionConfig{Trace: trace.Constant(6), ABR: NewMPC(), MaxChunks: 50})
	if err != nil {
		t.Fatal(err)
	}
	base, err := Baseline(sess.Log)
	if err != nil {
		t.Fatal(err)
	}
	horizon := sess.Log.Records[len(sess.Log.Records)-1].End
	if m := base.Mean(horizon); m >= 6 {
		t.Errorf("baseline mean %v should underestimate the 6 Mbps truth", m)
	}
}

func TestABRFactories(t *testing.T) {
	v := DefaultVideo(1)
	for _, alg := range []ABR{NewMPC(), NewBBA(), NewBOLA(), NewRandomABR(1), NewFixedABR(2)} {
		sess, err := RunSession(SessionConfig{Trace: trace.Constant(5), ABR: alg, Video: v, MaxChunks: 20})
		if err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		if sess.Metrics.NumChunks != 20 {
			t.Errorf("%s ran %d chunks", alg.Name(), sess.Metrics.NumChunks)
		}
	}
}

func TestHigherQualityVideo(t *testing.T) {
	hv := HigherQualityVideo(1)
	dv := DefaultVideo(1)
	if hv.Quality(0).Mbps <= dv.Quality(0).Mbps {
		t.Error("higher ladder floor should exceed the default floor")
	}
	if hv.NumChunks() != dv.NumChunks() {
		t.Error("ladder change altered chunk count")
	}
}

func TestFestiveFacade(t *testing.T) {
	festive, err := NewABR("festive")
	if err != nil {
		t.Fatal(err)
	}
	sess, err := RunSession(SessionConfig{Trace: trace.Constant(6), ABR: festive, MaxChunks: 40})
	if err != nil {
		t.Fatal(err)
	}
	if sess.Metrics.NumChunks != 40 {
		t.Fatalf("festive session ran %d chunks", sess.Metrics.NumChunks)
	}
}

func TestGenerateTraceSetFacade(t *testing.T) {
	set, err := GenerateTraceSet(DefaultTraceConfig(1), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != 3 {
		t.Fatalf("got %d traces", len(set))
	}
}

func TestDefaultNetworkFacade(t *testing.T) {
	cfg := DefaultNetwork()
	if err := cfg.Validate(); err != nil {
		t.Errorf("DefaultNetwork invalid: %v", err)
	}
	if cfg.RTT != 0.160 {
		t.Errorf("testbed RTT = %v, want 0.160", cfg.RTT)
	}
}

func TestOutcomeRanges(t *testing.T) {
	sess, err := RunSession(SessionConfig{Trace: trace.Constant(5), ABR: NewMPC(), MaxChunks: 40})
	if err != nil {
		t.Fatal(err)
	}
	abd, err := Abduct(sess.Log, AbductionConfig{NumSamples: 4})
	if err != nil {
		t.Fatal(err)
	}
	out, err := Counterfactual(abd, WhatIf{NewABR: NewBOLA})
	if err != nil {
		t.Fatal(err)
	}
	for name, rangeFn := range map[string]func() (float64, float64){
		"rebuf":   out.RebufRange,
		"bitrate": out.BitrateRange,
	} {
		lo, hi := rangeFn()
		if lo > hi {
			t.Errorf("%s range inverted: %v > %v", name, lo, hi)
		}
	}
}

func TestPredictDownloadTimeFacade(t *testing.T) {
	sess, err := RunSession(SessionConfig{Trace: trace.Constant(5), ABR: NewMPC(), MaxChunks: 40})
	if err != nil {
		t.Fatal(err)
	}
	abd, err := Abduct(sess.Log, AbductionConfig{NumSamples: 1})
	if err != nil {
		t.Fatal(err)
	}
	last := sess.Log.Records[len(sess.Log.Records)-1]
	got := abd.PredictDownloadTime(last.End+0.5, last.TCP, 1e6)
	if got <= 0 {
		t.Errorf("prediction %v should be positive", got)
	}
	// The next chunk, one second after the last one ended on the same
	// connection: a larger payload takes longer, and neither is endless.
	st := last.TCP
	st.LastSendGap = 1
	small := abd.PredictDownloadTime(last.End+1, st, 100e3)
	large := abd.PredictDownloadTime(last.End+1, st, 4e6)
	if small <= 0 || large <= 0 || math.IsInf(large, 0) {
		t.Fatalf("implausible predictions: small %v, large %v", small, large)
	}
	if large <= small {
		t.Errorf("larger chunk should take longer: %v vs %v", large, small)
	}
}
