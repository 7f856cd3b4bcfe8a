package veritas

// One benchmark per paper figure: each bench regenerates the figure's
// table at QuickScale (same code path as the paper-scale run in
// cmd/experiments) and reports wall time per regeneration. Run with
//
//	go test -bench=. -benchmem
//
// plus micro-benchmarks for the pipeline's hot pieces (the EHMM
// inference, a full session simulation, and a full abduction).

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"

	"veritas/internal/abduction"
	"veritas/internal/engine"
	"veritas/internal/experiments"
)

func benchFigure(b *testing.B, id string) {
	b.Helper()
	s := experiments.QuickScale()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		table, err := experiments.Run(id, s)
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		if len(table.Rows) == 0 {
			b.Fatalf("%s produced no rows", id)
		}
	}
}

func BenchmarkFig2a(b *testing.B) { benchFigure(b, "fig2a") }
func BenchmarkFig2b(b *testing.B) { benchFigure(b, "fig2b") }
func BenchmarkFig2c(b *testing.B) { benchFigure(b, "fig2c") }
func BenchmarkFig5(b *testing.B)  { benchFigure(b, "fig5") }
func BenchmarkFig7(b *testing.B)  { benchFigure(b, "fig7") }
func BenchmarkFig8(b *testing.B)  { benchFigure(b, "fig8") }
func BenchmarkFig9(b *testing.B)  { benchFigure(b, "fig9") }
func BenchmarkFig10(b *testing.B) { benchFigure(b, "fig10") }
func BenchmarkFig11(b *testing.B) { benchFigure(b, "fig11") }
func BenchmarkFig12(b *testing.B) { benchFigure(b, "fig12") }
func BenchmarkFig13(b *testing.B) { benchFigure(b, "fig13") }
func BenchmarkFig14(b *testing.B) { benchFigure(b, "fig14") }

// Ablation benches for the design choices DESIGN.md calls out.
func BenchmarkAblationTCPState(b *testing.B) { benchFigure(b, "abl-tcpstate") }
func BenchmarkAblationPrior(b *testing.B)    { benchFigure(b, "abl-prior") }
func BenchmarkAblationSigma(b *testing.B)    { benchFigure(b, "abl-sigma") }
func BenchmarkAblationEM(b *testing.B)       { benchFigure(b, "abl-em") }

// BenchmarkSession measures one full 300-chunk MPC session simulation.
func BenchmarkSession(b *testing.B) {
	gt, err := GenerateTrace(DefaultTraceConfig(1))
	if err != nil {
		b.Fatal(err)
	}
	v := DefaultVideo(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunSession(SessionConfig{Trace: gt, ABR: NewMPC(), Video: v}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAbduction measures the full inversion of a 300-chunk log:
// Viterbi + forward-backward + 5 posterior samples.
func BenchmarkAbduction(b *testing.B) {
	gt, err := GenerateTrace(DefaultTraceConfig(1))
	if err != nil {
		b.Fatal(err)
	}
	sess, err := RunSession(SessionConfig{Trace: gt, ABR: NewMPC()})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Abduct(sess.Log, AbductionConfig{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCounterfactualReplay measures one warm what-if arm at K = 1:
// two replays (a full session each, over the Baseline and the one
// sample trace) on an Abduction whose estimate traces already exist.
func BenchmarkCounterfactualReplay(b *testing.B) {
	gt, err := GenerateTrace(DefaultTraceConfig(1))
	if err != nil {
		b.Fatal(err)
	}
	sess, err := RunSession(SessionConfig{Trace: gt, ABR: NewMPC()})
	if err != nil {
		b.Fatal(err)
	}
	abd, err := Abduct(sess.Log, AbductionConfig{NumSamples: 1})
	if err != nil {
		b.Fatal(err)
	}
	w := WhatIf{NewABR: NewBBA, Video: DefaultVideo(1)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Counterfactual(abd, w); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCounterfactualArms measures the replay stage of one default
// what-if session: a fresh 300-chunk Abduction (built off the clock) is
// asked the default campaign's four arms at K = 5 — one build of the six
// estimate traces, then 24 replays.
func BenchmarkCounterfactualArms(b *testing.B) {
	gt, err := GenerateTrace(DefaultTraceConfig(1))
	if err != nil {
		b.Fatal(err)
	}
	sess, err := RunSession(SessionConfig{Trace: gt, ABR: NewMPC()})
	if err != nil {
		b.Fatal(err)
	}
	v := DefaultVideo(1)
	arms := []WhatIf{
		{NewABR: NewBBA, Video: v, BufferCap: 5}, {NewABR: NewBBA, Video: v, BufferCap: 30},
		{NewABR: NewBOLA, Video: v, BufferCap: 5}, {NewABR: NewBOLA, Video: v, BufferCap: 30},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		abd, err := Abduct(sess.Log, AbductionConfig{})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for _, w := range arms {
			if _, err := Counterfactual(abd, w); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkAbductionScaling reports abduction cost as session length
// grows, exercising the O(N·S²) forward-backward recursion.
func BenchmarkAbductionScaling(b *testing.B) {
	gt, err := GenerateTrace(DefaultTraceConfig(1))
	if err != nil {
		b.Fatal(err)
	}
	sess, err := RunSession(SessionConfig{Trace: gt, ABR: NewMPC()})
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{50, 100, 200, 300} {
		b.Run(fmt.Sprintf("chunks=%d", n), func(b *testing.B) {
			prefix := sess.Log.Prefix(n)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := abduction.Abduct(prefix, abduction.Config{NumSamples: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExtSquareWave covers the square-wave extension experiment.
func BenchmarkExtSquareWave(b *testing.B) { benchFigure(b, "ext-square") }

// fleetBenchSetup builds the benchmark campaign: a 32-session
// scenario-diverse corpus (4 regimes × 8 sessions) with one what-if
// arm — the acceptance workload for engine throughput scaling.
func fleetBenchSetup(b *testing.B) ([]FleetSpec, []FleetArm) {
	b.Helper()
	ccfg := engine.CorpusConfig{SessionsPer: 8, NumChunks: 60, Seed: 1}
	corpus, err := engine.BuildCorpus(ccfg)
	if err != nil {
		b.Fatal(err)
	}
	arms, err := engine.BuildMatrix(ccfg, []string{"bba"}, []float64{5})
	if err != nil {
		b.Fatal(err)
	}
	return corpus, arms
}

// BenchmarkFleet measures batch causal-query throughput across worker
// counts. On multicore hardware throughput scales near-linearly until
// the core count; aggregates are byte-identical at every worker count
// (see engine.TestDeterministicAcrossWorkerCounts).
func BenchmarkFleet(b *testing.B) {
	corpus, arms := fleetBenchSetup(b)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := engine.Config{Workers: workers, Samples: 3, Seed: 1}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := engine.Run(context.Background(), cfg, corpus, arms); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(corpus))*float64(b.N)/b.Elapsed().Seconds(), "sessions/sec")
		})
	}
}

// benchRow synthesizes one plausible store row (three posterior
// samples, one arm, truth attached) without running inference.
func benchRow(i int) FleetRow {
	m := Metrics{AvgSSIM: 0.9, RebufRatio: 0.01, AvgBitrateMbps: 2.5, NumChunks: 300}
	return FleetRow{
		Index:     i,
		ID:        fmt.Sprintf("bench-%06d", i),
		Scenario:  "bench",
		Simulated: true,
		SettingA:  m,
		Arms: []FleetArmOutcome{{
			Name:     "bba-5s",
			Baseline: m,
			Samples:  []Metrics{m, m, m},
			Truth:    m,
			HasTruth: true,
		}},
		Predictions: []float64{1.5},
	}
}

// BenchmarkStoreWrite measures streaming-persistence throughput: one
// checksummed, segmented append per completed session.
func BenchmarkStoreWrite(b *testing.B) {
	s, err := OpenStore(b.TempDir(), FleetStoreOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Append(benchRow(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreQuery measures point lookups (decode + checksum verify)
// against a multi-segment store of 1000 sessions.
func BenchmarkStoreQuery(b *testing.B) {
	dir := b.TempDir()
	s, err := OpenStore(dir, FleetStoreOptions{SegmentBytes: 1 << 16})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	const n = 1000
	for i := 0; i < n; i++ {
		if err := s.Append(benchRow(i)); err != nil {
			b.Fatal(err)
		}
	}
	if segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.vseg")); len(segs) < 4 {
		b.Fatalf("%d rows made %d segment file(s); the benchmark is of a multi-segment store", n, len(segs))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := fmt.Sprintf("bench-%06d", (i*7919)%n)
		if _, ok, err := s.Get(id); !ok || err != nil {
			b.Fatalf("Get(%s): ok=%v err=%v", id, ok, err)
		}
	}
}
