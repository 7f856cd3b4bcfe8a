package abduction

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"veritas/internal/abr"
	"veritas/internal/hmm"
	"veritas/internal/mathx"
	"veritas/internal/netem"
	"veritas/internal/player"
	"veritas/internal/tcp"
	"veritas/internal/trace"
	"veritas/internal/video"
)

// TestArenaMatchesOracle streams sessions of varying chunk counts, K
// and buffers through one Arena — each session growing or shrinking
// what the last one left in the generator, the connection, the
// throughput history and the trace slabs — and checks every step
// against the package's oracles, bit for bit: the deployed session
// (Simulate against player.Run), the abduction (against a fresh Abduct),
// the estimate traces (against the FromSteps-era builders), every
// what-if arm (against the per-arm oracle) and the truth replay.
func TestArenaMatchesOracle(t *testing.T) {
	arms := []Setting{
		{Video: video.Default(), NewABR: func() abr.Algorithm { return abr.NewBBA() }, BufferCap: 5, Net: netem.DefaultConfig()},
		{Video: video.Default().Prefix(60), NewABR: func() abr.Algorithm { return abr.NewBOLA() }, BufferCap: 30, Net: netem.DefaultConfig()},
	}
	var ar Arena
	for i, s := range []struct {
		seed   int64
		chunks int // 0: the full 300-chunk clip
		k      int
		buf    float64
	}{
		{3, 0, 5, 5}, {4, 40, 2, 30}, {5, 7, 9, 5}, {6, 120, 1, 5}, {7, 1, 3, 30}, {8, 0, 5, 30},
	} {
		name := fmt.Sprintf("session %d (%d chunks, K=%d)", i, s.chunks, s.k)
		gt, err := trace.Generate(trace.DefaultLTE(s.seed))
		if err != nil {
			t.Fatal(err)
		}
		cfg := player.Config{
			Video: video.Default(), Trace: gt, BufferCap: s.buf, MaxChunks: s.chunks,
			Net: netem.Config{RTT: 0.160, SlowStartRestart: true, JitterStd: 0.1, Seed: s.seed},
		}
		cfg.ABR = abr.NewMPC()
		log, m, err := ar.Simulate(cfg)
		if err != nil {
			t.Fatalf("%s: Simulate: %v", name, err)
		}
		cfg.ABR = abr.NewMPC()
		wantLog, wantM, err := player.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if m != wantM || len(log.Records) != len(wantLog.Records) {
			t.Fatalf("%s: Simulate metrics %+v over %d records, player.Run %+v over %d", name, m, len(log.Records), wantM, len(wantLog.Records))
		}
		for j := range log.Records {
			if log.Records[j] != wantLog.Records[j] {
				t.Fatalf("%s: record %d = %+v, player.Run gives %+v", name, j, log.Records[j], wantLog.Records[j])
			}
		}

		acfg := Config{NumSamples: s.k, Seed: s.seed + 11}
		a, err := ar.Abduct(log, acfg)
		if err != nil {
			t.Fatalf("%s: Abduct: %v", name, err)
		}
		fresh, err := Abduct(log, acfg)
		if err != nil {
			t.Fatal(err)
		}
		for p := range fresh.SampledPaths {
			for j := range fresh.SampledPaths[p] {
				if a.SampledPaths[p][j] != fresh.SampledPaths[p][j] {
					t.Fatalf("%s: sample %d differs at chunk %d", name, p, j)
				}
			}
		}
		for _, arm := range arms {
			got, err := a.Counterfactual(arm)
			if err != nil {
				t.Fatalf("%s: Counterfactual: %v", name, err)
			}
			want := counterfactualOracle(t, fresh, arm)
			if got.Baseline != want.Baseline {
				t.Errorf("%s: Baseline replay %+v, oracle %+v", name, got.Baseline, want.Baseline)
			}
			for j := range want.Samples {
				if got.Samples[j] != want.Samples[j] {
					t.Errorf("%s: sample replay %d %+v, oracle %+v", name, j, got.Samples[j], want.Samples[j])
				}
			}
			truth, err := ar.Replay(gt, arm)
			if err != nil {
				t.Fatal(err)
			}
			if wantTruth, _ := replayOracle(gt, arm); truth != wantTruth {
				t.Errorf("%s: truth replay %+v, oracle %+v", name, truth, wantTruth)
			}
		}
		for p, tr := range a.SampleTraces() {
			if err := samePoints(tr, pathToTraceOracle(fresh, fresh.SampledPaths[p])); err != nil {
				t.Errorf("%s: sample trace %d: %v", name, p, err)
			}
		}
		base, err := baselineTraceOracle(log, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := samePoints(a.baseline, base); err != nil {
			t.Errorf("%s: Baseline trace: %v", name, err)
		}
	}
}

// TestArenaUseAfterReuseFailsLoudly: once an Arena abducts another
// session — even one whose Abduct fails — every Abduction it made
// before refuses to run rather than read the new session's slabs:
// Counterfactual returns ErrArenaReused, and SampleTraces,
// MostLikelyTrace and PredictDownloadTime panic with it. The newest
// Abduction works, and one made without an arena is never affected.
func TestArenaUseAfterReuseFailsLoudly(t *testing.T) {
	logA, logB := sessionLog(t, 3, 60, 5), sessionLog(t, 4, 20, 30)
	arm := Setting{Video: video.Default(), NewABR: func() abr.Algorithm { return abr.NewBBA() }, BufferCap: 30, Net: netem.DefaultConfig()}
	var ar Arena
	first, err := ar.Abduct(logA, Config{NumSamples: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := first.Counterfactual(arm); err != nil { // builds its traces in the arena
		t.Fatal(err)
	}
	untouched, err := ar.Abduct(logA, Config{NumSamples: 3, Seed: 5}) // never builds its traces
	if err != nil {
		t.Fatal(err)
	}
	own, err := Abduct(logA, Config{NumSamples: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	latest, err := ar.Abduct(logB, Config{NumSamples: 2, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	for _, stale := range []*Abduction{first, untouched} {
		if _, err := stale.Counterfactual(arm); !errors.Is(err, ErrArenaReused) {
			t.Errorf("Counterfactual after reuse: %v, want %v", err, ErrArenaReused)
		}
		mustPanicReused(t, "SampleTraces", func() { stale.SampleTraces() })
		mustPanicReused(t, "MostLikelyTrace", func() { stale.MostLikelyTrace() })
		mustPanicReused(t, "PredictDownloadTime", func() { stale.PredictDownloadTime(1000, tcp.Fresh(0.16), 1e6) })
	}
	if _, err := latest.Counterfactual(arm); err != nil {
		t.Errorf("the arena's newest Abduction: %v", err)
	}
	if _, err := own.Counterfactual(arm); err != nil {
		t.Errorf("an Abduction made without an arena: %v", err)
	}
	// A failed Abduct has already overwritten the slabs.
	if _, err := ar.Abduct(&player.SessionLog{}, Config{}); err == nil {
		t.Fatal("Abduct of an empty log succeeded")
	}
	if _, err := latest.Counterfactual(arm); !errors.Is(err, ErrArenaReused) {
		t.Errorf("Counterfactual after a failed Abduct on its arena: %v, want %v", err, ErrArenaReused)
	}
}

func mustPanicReused(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		if err, _ := recover().(error); !errors.Is(err, ErrArenaReused) {
			t.Errorf("%s after reuse: panic %v, want %v", what, err, ErrArenaReused)
		}
	}()
	f()
}

// TestArmedAbductKeepsOneSlab: an armed Abduct leaves its arena's
// inference slabs holding one N×S float slab, α, and beside it only
// O(S + K·N): per chunk an observation and the step into it (A^Δn and
// its band), the K sampled paths, and a few S-vectors. Every slice of
// the hmm.Scratch is counted, so a new N×S slab, or a per-chunk one
// the budget does not name, fails it. MostLikelyTrace builds the
// Viterbi path on slabs of its own and leaves the count as it was.
func TestArmedAbductKeepsOneSlab(t *testing.T) {
	log := sessionLog(t, 3, 0, 5) // the full 300-chunk clip
	const k = 5
	var ar Arena
	a, err := ar.Abduct(log, Config{NumSamples: k, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	N, S := len(a.Observations), a.Model.NumStates()
	perChunk := int(reflect.TypeOf(hmm.Observation{}).Size()+reflect.TypeOf(mathx.Band{}).Size()) + 8
	budget := N*perChunk + k*N*8 + k*24 + 8*8*S
	check := func(when string) {
		t.Helper()
		var slabs, rest int
		v := reflect.ValueOf(&ar.inf).Elem()
		for i := 0; i < v.NumField(); i++ {
			f := v.Field(i)
			if f.Kind() != reflect.Slice {
				continue
			}
			bytes := f.Cap() * int(f.Type().Elem().Size())
			if f.Cap() >= N*S {
				slabs++
				if f.Type().Elem().Kind() != reflect.Float64 || f.Cap() != N*S {
					t.Errorf("%s: %s holds %d cells of %s, want α's %d floats", when, v.Type().Field(i).Name, f.Cap(), f.Type().Elem(), N*S)
				}
				continue
			}
			rest += bytes
		}
		if slabs != 1 {
			t.Errorf("%s: the arena holds %d slabs of at least N×S = %d×%d cells, want 1", when, slabs, N, S)
		}
		if rest > budget {
			t.Errorf("%s: the arena's other slices hold %d B, want at most O(S + K·N) = %d B", when, rest, budget)
		}
	}
	check("after Abduct")
	a.MostLikelyTrace()
	check("after MostLikelyTrace")
}
