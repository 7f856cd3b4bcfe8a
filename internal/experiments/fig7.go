package experiments

import (
	"fmt"

	"veritas/internal/abduction"
	"veritas/internal/engine"
	"veritas/internal/stats"
	"veritas/internal/trace"
)

func init() {
	register("fig7", "Inferred GTBW time series: Baseline vs Veritas samples vs truth", fig7)
}

// fig7 reproduces the example-trace figure: one FCC-like trace is
// streamed with MPC, then the Baseline estimate and five Veritas samples
// are compared against the true GTBW over time.
func fig7(s Scale) (*Table, error) {
	gcfg, err := trace.RegimeConfig(s.Scenario, s.Seed+7)
	if err != nil {
		return nil, err
	}
	gt, err := trace.Generate(gcfg)
	if err != nil {
		return nil, err
	}
	spec := deployed("fig7", gt, s.clip(), s.Seed+7)
	spec.Abduct = abduction.Config{NumSamples: s.Samples, Seed: s.Seed + 7}
	sessions, err := run(s, []engine.SessionSpec{spec}, nil, true)
	if err != nil {
		return nil, err
	}
	log, abd := sessions[0].Log, sessions[0].Abd
	base, err := abduction.BaselineTrace(log)
	if err != nil {
		return nil, err
	}
	samples := abd.SampleTraces()
	horizon := log.Records[len(log.Records)-1].End

	t := &Table{
		ID:     "fig7",
		Title:  "GTBW (Mbps) over time for one example trace",
		Header: []string{"t (s)", "GTBW", "Baseline", "Veritas min", "Veritas max", "Viterbi"},
	}
	ml := abd.MostLikelyTrace()
	step := horizon / 24
	if step < 1 {
		step = 1
	}
	for tt := 0.0; tt <= horizon; tt += step {
		lo, hi := samples[0].At(tt), samples[0].At(tt)
		for _, sm := range samples[1:] {
			v := sm.At(tt)
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		t.AddRow(tt, gt.At(tt), base.At(tt), lo, hi, ml.At(tt))
	}

	baseRMSE := traceRMSE(base, gt, horizon)
	var sampleRMSEs []float64
	for _, sm := range samples {
		sampleRMSEs = append(sampleRMSEs, traceRMSE(sm, gt, horizon))
	}
	t.AddRow("RMSE", 0.0, baseRMSE, stats.Min(sampleRMSEs), stats.Max(sampleRMSEs), traceRMSE(ml, gt, horizon))
	t.check(Verdict{ID: "fig7/samples-closer-than-baseline", Held: stats.Max(sampleRMSEs) < baseRMSE,
		OK: "every Veritas sample is closer to GTBW than Baseline (paper Fig 7)",
		Miss: fmt.Sprintf("Baseline RMSE %.3g, Veritas sample RMSEs %.3g-%.3g",
			baseRMSE, stats.Min(sampleRMSEs), stats.Max(sampleRMSEs))})
	return t, nil
}
