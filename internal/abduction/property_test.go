package abduction

import (
	"testing"
	"testing/quick"

	"veritas/internal/abr"
	"veritas/internal/netem"
	"veritas/internal/player"
	"veritas/internal/trace"
	"veritas/internal/video"
)

// shortLog builds a small deterministic session log for property tests.
func shortLog(t *testing.T, bw float64, seed int64) *player.SessionLog {
	t.Helper()
	cfg := video.DefaultConfig(1)
	cfg.NumChunks = 30
	log, _, err := player.Run(player.Config{
		Video:     video.MustSynthesize(cfg),
		ABR:       abr.NewMPC(),
		Trace:     trace.Constant(bw),
		Net:       netem.Config{RTT: 0.160, SlowStartRestart: true, JitterStd: 0.05, Seed: seed},
		BufferCap: 5,
	})
	if err != nil {
		t.Fatalf("session: %v", err)
	}
	return log
}

// TestQuickSampledTracesWithinGrid: every posterior sample stays on the
// model's capacity grid and within its bounds, for random bandwidths
// and seeds.
func TestQuickSampledTracesWithinGrid(t *testing.T) {
	f := func(bwRaw, seedRaw uint8) bool {
		bw := 1 + float64(bwRaw%70)*0.1
		log := shortLog(t, bw, int64(seedRaw))
		abd, err := Abduct(log, Config{NumSamples: 2, Seed: int64(seedRaw) + 1})
		if err != nil {
			return false
		}
		maxCap := abd.ConfigUsed().HMM.MaxMbps
		for _, tr := range abd.SampleTraces() {
			lo, hi := tr.MinMax()
			if lo < 0 || hi > maxCap+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// TestQuickBaselineNeverExceedsObservedMax: the Baseline trace is built
// from observed throughputs and interpolation, so it can never exceed
// the largest observation.
func TestQuickBaselineNeverExceedsObservedMax(t *testing.T) {
	f := func(bwRaw, seedRaw uint8) bool {
		bw := 1 + float64(bwRaw%70)*0.1
		log := shortLog(t, bw, int64(seedRaw))
		base, err := BaselineTrace(log)
		if err != nil {
			return false
		}
		var maxObs float64
		for _, r := range log.Records {
			if r.ThroughputMbps > maxObs {
				maxObs = r.ThroughputMbps
			}
		}
		_, hi := base.MinMax()
		return hi <= maxObs+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// TestQuickPredictDownloadTimeMonotoneInSize: for a fixed session and
// state, a bigger hypothetical chunk can never be predicted faster.
func TestQuickPredictDownloadTimeMonotoneInSize(t *testing.T) {
	log := shortLog(t, 5, 3)
	abd, err := Abduct(log, Config{NumSamples: 1})
	if err != nil {
		t.Fatal(err)
	}
	last := log.Records[len(log.Records)-1]
	f := func(aRaw, bRaw uint16) bool {
		a := 1e4 + float64(aRaw)*100
		b := 1e4 + float64(bRaw)*100
		if a > b {
			a, b = b, a
		}
		st := last.TCP
		pa := abd.PredictDownloadTime(last.End+1, st, a)
		pb := abd.PredictDownloadTime(last.End+1, st, b)
		return pa <= pb+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestCounterfactualSampleCountMatchesConfig covers K edge cases.
func TestCounterfactualSampleCountMatchesConfig(t *testing.T) {
	log := shortLog(t, 5, 1)
	for _, k := range []int{1, 2, 7} {
		abd, err := Abduct(log, Config{NumSamples: k})
		if err != nil {
			t.Fatal(err)
		}
		if got := len(abd.SampleTraces()); got != k {
			t.Errorf("K=%d produced %d traces", k, got)
		}
	}
}
