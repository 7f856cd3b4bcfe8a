package experiments

import (
	"fmt"
	"math"

	"veritas/internal/abduction"
	"veritas/internal/engine"
	"veritas/internal/player"
	"veritas/internal/stats"
)

func init() {
	register("fig8", "True impact of changing the ABR from MPC to BBA", fig8)
	register("fig9", "Predicted impact of MPC→BBA: Baseline vs Veritas vs ground truth",
		prediction("fig9", "Predicted performance if MPC were replaced by BBA", toBBA))
	register("fig10", "Predicted impact of increasing the buffer from 5 s to 30 s",
		prediction("fig10", "Predicted performance if the buffer were 30 s instead of 5 s", toBuffer30))
	register("fig11", "Predicted impact of switching to a higher quality ladder", fig11)
	register("fig13", "Predicted impact of MPC→BOLA (appendix)",
		prediction("fig13", "Predicted performance if MPC were replaced by BOLA", toBOLA))
	register("fig14", "Average bitrate across all counterfactual queries (appendix)", fig14)
}

// cfResult holds one trace's outcomes under a what-if setting.
type cfResult struct {
	SettingA player.Metrics   // deployed system (MPC) on the true GTBW
	Truth    player.Metrics   // Setting B on the true GTBW (the oracle)
	Baseline player.Metrics   // Setting B on the Baseline trace
	Samples  []player.Metrics // Setting B on each Veritas sample
}

// counterfactuals executes the full Figure-6 pipeline over the scale's
// trace set, batched on the fleet engine: every trace becomes one
// Setting A session, every whatIf entry in ids one arm, and the engine
// fans the Abduct + replay work across the worker pool. Each session is
// simulated and abduced once however many arms replay over it — fig14's
// four panels share one inversion. Seeds are per trace, so tables are
// identical for every worker count. out[k] holds ids[k]'s results in
// trace order.
func counterfactuals(s Scale, ids ...int) ([][]cfResult, error) {
	gts, err := regimeTraces(s)
	if err != nil {
		return nil, err
	}
	clip := s.clip()
	corpus := make([]engine.SessionSpec, len(gts))
	for i, gt := range gts {
		corpus[i] = deployed(fmt.Sprintf("trace-%03d", i), gt, clip, s.Seed+int64(i))
		corpus[i].Abduct = abduction.Config{NumSamples: s.Samples, Seed: s.Seed + int64(i)*101}
	}
	sessions, err := run(s, corpus, arms(clip, ids...), false)
	if err != nil {
		return nil, err
	}
	out := make([][]cfResult, len(ids))
	for _, sr := range sessions {
		for k, oc := range sr.Arms {
			out[k] = append(out[k],
				cfResult{SettingA: sr.SettingA, Truth: oc.Truth, Baseline: oc.Baseline, Samples: oc.Samples})
		}
	}
	return out, nil
}

// runCounterfactual runs a single whatIf entry.
func runCounterfactual(s Scale, id int) ([]cfResult, error) {
	out, err := counterfactuals(s, id)
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// metricSeries extracts the per-trace values of one metric for each
// estimator.
type metricSeries struct {
	Truth, Baseline, VLow, VHigh []float64
}

func collect(results []cfResult, f abduction.MetricFn) metricSeries {
	var ms metricSeries
	for _, r := range results {
		ms.Truth = append(ms.Truth, f(r.Truth))
		ms.Baseline = append(ms.Baseline, f(r.Baseline))
		lo, hi := abduction.VeritasRange(r.Samples, f)
		ms.VLow = append(ms.VLow, lo)
		ms.VHigh = append(ms.VHigh, hi)
	}
	return ms
}

// coverage returns the fraction of traces where the truth lies within
// [VLow - slack, VHigh + slack].
func (ms metricSeries) coverage(slack float64) float64 {
	if len(ms.Truth) == 0 {
		return 0
	}
	var n int
	for i := range ms.Truth {
		if ms.Truth[i] >= ms.VLow[i]-slack && ms.Truth[i] <= ms.VHigh[i]+slack {
			n++
		}
	}
	return float64(n) / float64(len(ms.Truth))
}

// addMetricRows appends percentile rows for a metric across estimators.
func addMetricRows(t *Table, label string, ms metricSeries, scalePct bool) {
	k := 1.0
	if scalePct {
		k = 100
	}
	for _, p := range []float64{10, 25, 50, 75, 90} {
		t.AddRow(
			fmt.Sprintf("%s P%g", label, p),
			stats.Percentile(ms.Truth, p)*k,
			stats.Percentile(ms.Baseline, p)*k,
			stats.Percentile(ms.VLow, p)*k,
			stats.Percentile(ms.VHigh, p)*k,
		)
	}
}

// absErrMedians returns median |estimate − truth| for Baseline and for
// the Veritas mid-range ((low+high)/2).
func (ms metricSeries) absErrMedians() (base, veritas float64) {
	var be, ve []float64
	for i := range ms.Truth {
		be = append(be, math.Abs(ms.Baseline[i]-ms.Truth[i]))
		ve = append(ve, math.Abs((ms.VLow[i]+ms.VHigh[i])/2-ms.Truth[i]))
	}
	return stats.Median(be), stats.Median(ve)
}

// predictionTable renders a fig9/10/11/13-style table for one scenario.
func predictionTable(id, title string, results []cfResult) *Table {
	t := &Table{
		ID:     id,
		Title:  title,
		Header: []string{"metric", "truth (GTBW)", "Baseline", "Veritas(Low)", "Veritas(High)"},
	}
	ssim := collect(results, abduction.MetricSSIM)
	rebuf := collect(results, abduction.MetricRebufRatio)
	addMetricRows(t, "SSIM", ssim, false)
	addMetricRows(t, "rebuf %", rebuf, true)

	bSSIM, vSSIM := ssim.absErrMedians()
	bReb, vReb := rebuf.absErrMedians()
	t.AddRow("median |err| SSIM", "", bSSIM, vSSIM, "")
	t.AddRow("median |err| rebuf %", "", bReb*100, vReb*100, "")
	t.Notes = append(t.Notes, fmt.Sprintf(
		"Veritas range covers truth (±0.002 SSIM) on %.0f%% of traces; rebuf coverage (±0.5%%) %.0f%%",
		ssim.coverage(0.002)*100, rebuf.coverage(0.005)*100))
	t.check(Verdict{ID: id + "/veritas-closer-than-baseline", Held: vSSIM < bSSIM && vReb <= bReb,
		OK: "Veritas predictions are closer to ground truth than Baseline on both metrics",
		Miss: fmt.Sprintf("|err| medians — SSIM base %.4g vs veritas %.4g, rebuf base %.4g vs veritas %.4g",
			bSSIM, vSSIM, bReb, vReb)})
	return t
}

func fig8(s Scale) (*Table, error) {
	results, err := runCounterfactual(s, toBBA)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "fig8",
		Title:  "True impact of MPC→BBA on the same GTBW traces",
		Header: []string{"metric", "MPC (Setting A)", "BBA (Setting B)"},
	}
	var ssimA, ssimB, rebA, rebB []float64
	for _, r := range results {
		ssimA = append(ssimA, r.SettingA.AvgSSIM)
		ssimB = append(ssimB, r.Truth.AvgSSIM)
		rebA = append(rebA, r.SettingA.RebufRatio)
		rebB = append(rebB, r.Truth.RebufRatio)
	}
	for _, p := range []float64{10, 25, 50, 75, 90} {
		t.AddRow(fmt.Sprintf("SSIM P%g", p), stats.Percentile(ssimA, p), stats.Percentile(ssimB, p))
	}
	for _, p := range []float64{10, 25, 50, 75, 90} {
		t.AddRow(fmt.Sprintf("rebuf %% P%g", p), stats.Percentile(rebA, p)*100, stats.Percentile(rebB, p)*100)
	}
	t.check(Verdict{ID: "fig8/bba-more-aggressive", Held: stats.Median(ssimB) > stats.Median(ssimA) && stats.Mean(rebB) > stats.Mean(rebA),
		OK: "BBA is more aggressive — higher SSIM and more rebuffering than MPC (paper Fig 8)",
		Miss: fmt.Sprintf("median SSIM %.4g->%.4g, mean rebuf %.4g%%->%.4g%%",
			stats.Median(ssimA), stats.Median(ssimB), stats.Mean(rebA)*100, stats.Mean(rebB)*100)})
	return t, nil
}

// prediction is a fig9/10/13-style figure: the prediction table of one
// whatIf entry.
func prediction(id, title string, w int) func(Scale) (*Table, error) {
	return func(s Scale) (*Table, error) {
		results, err := runCounterfactual(s, w)
		if err != nil {
			return nil, err
		}
		return predictionTable(id, title, results), nil
	}
}

func fig11(s Scale) (*Table, error) {
	results, err := runCounterfactual(s, toHigher)
	if err != nil {
		return nil, err
	}
	t := predictionTable("fig11", "Predicted performance with a higher quality ladder", results)
	rebuf := collect(results, abduction.MetricRebufRatio)
	baseMed := stats.Median(rebuf.Baseline) * 100
	truthMed := stats.Median(rebuf.Truth) * 100
	vHighMed := stats.Median(rebuf.VHigh) * 100
	t.Notes = append(t.Notes, fmt.Sprintf(
		"headline: median rebuffering — truth %.2f%%, Veritas(High) %.2f%%, Baseline %.2f%% (paper: truth/Veritas ≈ 0, Baseline ≈ 6.7%%)",
		truthMed, vHighMed, baseMed))
	t.check(Verdict{ID: "fig11/ladder-baseline-overpredicts", Held: baseMed > vHighMed+1 && truthMed < 1,
		OK:   "Baseline grossly over-predicts rebuffering for the higher ladder; Veritas stays near the (≈0) truth",
		Miss: "Baseline's median rebuffering is not 1 point above Veritas(High)'s, or the truth's is not under 1%"})
	return t, nil
}

func fig14(s Scale) (*Table, error) {
	t := &Table{
		ID:     "fig14",
		Title:  "Average bitrate (Mbps) for every counterfactual query",
		Header: []string{"panel", "truth (GTBW)", "Baseline", "Veritas(Low)", "Veritas(High)"},
	}
	ids := []int{toBBA, toBOLA, toBuffer30, toHigher}
	labels := []string{"(b) MPC->BBA", "(c) MPC->BOLA", "(d) buffer 30s", "(e) higher ladder"}
	// One engine run: the corpus is simulated and abduced once, all
	// four panels replay as arms over the shared posteriors.
	byPanel, err := counterfactuals(s, ids...)
	if err != nil {
		return nil, err
	}
	var okCount int
	for k, results := range byPanel {
		br := collect(results, abduction.MetricAvgBitrate)
		t.AddRow(labels[k]+" median", stats.Median(br.Truth), stats.Median(br.Baseline),
			stats.Median(br.VLow), stats.Median(br.VHigh))
		if ids[k] == toBBA {
			// Panel (a) of the paper compares Setting A and B truths.
			var a, b []float64
			for _, r := range results {
				a = append(a, r.SettingA.AvgBitrateMbps)
				b = append(b, r.Truth.AvgBitrateMbps)
			}
			t.AddRow("(a) MPC / BBA truth median", stats.Median(a), stats.Median(b), "", "")
		}
		if stats.Median(br.Baseline) < stats.Median(br.Truth) {
			okCount++
		}
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"Baseline's median avg-bitrate fell below truth on %d/%d panels (paper: Baseline underestimates, e.g. 3.1 vs 3.5 Mbps for BBA)",
		okCount, len(ids)))
	return t, nil
}
