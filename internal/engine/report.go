package engine

import (
	"fmt"
	"io"
	"strings"

	"veritas/internal/abduction"
)

// reportMetrics are the fleet-report rows: query key, label, extractor,
// and the multiplier applied for display (rebuffering is shown in
// percent). The key is the spelling the /v1 query surface accepts. It is
// an array so that its length is a constant: a digest's slab layout
// (partials.go) is sized by it.
var reportMetrics = [...]struct {
	key   string
	label string
	fn    abduction.MetricFn
	scale float64
	slack float64 // coverage slack in the metric's native unit
}{
	{"ssim", "SSIM", abduction.MetricSSIM, 1, 0.002},
	{"rebuf", "rebuf %", abduction.MetricRebufRatio, 100, 0.005},
	{"bitrate", "bitrate Mbps", abduction.MetricAvgBitrate, 1, 0.1},
}

var reportEstimators = []ArmEstimator{EstTruth, EstBaseline, EstVeritasLow, EstVeritasHigh}

// MetricAggregate is one metric's fleet aggregate for one arm: a
// Summary per estimator, plus truth coverage of the Veritas range when
// oracle outcomes are present.
type MetricAggregate struct {
	Metric        string
	Estimators    map[ArmEstimator]Summary
	Coverage      *float64 `json:",omitempty"`
	CoverageSlack float64  `json:",omitempty"`
}

// ArmAggregate is one arm's block of metric aggregates.
type ArmAggregate struct {
	Arm     string
	Metrics []MetricAggregate
}

// Report is the serializable aggregate of a corpus — what cmd/serve
// returns as JSON and what the determinism tests compare byte-for-byte
// between Partials and the Aggregator oracle. It carries no
// wall-clock or worker-count fields, so equal corpora produce equal
// reports however they were computed.
type Report struct {
	Sessions    int
	Arms        []ArmAggregate
	Predictions *Summary `json:",omitempty"`
}

// Report computes the aggregate report over everything recorded so
// far — the oracle Partials.Report is pinned byte-identical to.
func (a *Aggregator) Report() *Report {
	rows := a.snapshot()
	rep := &Report{Sessions: len(rows)}
	for _, arm := range armNamesOf(rows) {
		ar := ArmAggregate{Arm: arm}
		for _, m := range reportMetrics {
			ma := MetricAggregate{Metric: m.label, Estimators: map[ArmEstimator]Summary{}}
			for _, est := range reportEstimators {
				if s := Summarize(seriesOf(rows, arm, est, m.fn)); s.N > 0 {
					ma.Estimators[est] = s
				}
			}
			if _, ok := ma.Estimators[EstTruth]; ok {
				c := coverageOf(rows, arm, m.fn, m.slack)
				ma.Coverage = &c
				ma.CoverageSlack = m.slack
			}
			ar.Metrics = append(ar.Metrics, ma)
		}
		rep.Arms = append(rep.Arms, ar)
	}
	if preds := predictionsOf(rows); len(preds) > 0 {
		s := Summarize(preds)
		rep.Predictions = &s
	}
	return rep
}

// WriteAggregate renders a report's aggregate blocks as aligned text:
// one block per what-if arm with mean/percentile rows for every metric
// and estimator plus truth coverage, then the interventional-prediction
// summary. It is the body shared by Result.WriteReport and the
// store-backed Campaign.WriteReport.
func WriteAggregate(w io.Writer, rep *Report) error {
	var b strings.Builder
	for _, arm := range rep.Arms {
		fmt.Fprintf(&b, "\n-- arm: %s --\n", arm.Arm)
		fmt.Fprintf(&b, "%-14s %-13s %9s %9s %9s %9s %9s\n",
			"metric", "estimator", "mean", "P10", "P50", "P90", "max")
		for i, ma := range arm.Metrics {
			scale := reportMetrics[i].scale // Report lists metrics in reportMetrics order
			for _, est := range reportEstimators {
				s, ok := ma.Estimators[est]
				if !ok {
					continue
				}
				fmt.Fprintf(&b, "%-14s %-13s %9.4g %9.4g %9.4g %9.4g %9.4g\n",
					ma.Metric, est, s.Mean*scale, s.P10*scale, s.P50*scale, s.P90*scale, s.Max*scale)
			}
		}
		for _, ma := range arm.Metrics {
			if ma.Coverage == nil {
				continue
			}
			fmt.Fprintf(&b, "coverage: truth inside Veritas range (±%g) on %.0f%% of sessions [%s]\n",
				ma.CoverageSlack, *ma.Coverage*100, ma.Metric)
		}
	}

	if s := rep.Predictions; s != nil {
		fmt.Fprintf(&b, "\n-- interventional download-time predictions --\n")
		fmt.Fprintf(&b, "n %d  mean %.4g s  P10 %.4g  P50 %.4g  P90 %.4g\n",
			s.N, s.Mean, s.P10, s.P50, s.P90)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteReport renders the fleet run as an aligned-text aggregate
// report: one block per what-if arm with mean/percentile rows for every
// metric and estimator, then cache and throughput statistics.
func (r *Result) WriteReport(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "== fleet report: %d sessions, %d workers ==\n", len(r.Sessions), r.Workers)
	if r.Executed < len(r.Sessions) {
		fmt.Fprintf(&b, "(%d executed, %d skipped by the resume set)\n",
			r.Executed, len(r.Sessions)-r.Executed)
	}
	if err := WriteAggregate(&b, r.Partials.Report("")); err != nil {
		return err
	}
	if _, err := io.WriteString(w, b.String()); err != nil {
		return err
	}
	return r.WriteEngineStats(w)
}

// WriteEngineStats renders the run's cache and throughput footer — the
// block shared by WriteReport and the store-backed report path in
// cmd/fleet.
func (r *Result) WriteEngineStats(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "\n-- engine --\n")
	if p := r.Powers; p.Hits+p.Misses() > 0 {
		lookups := p.Hits + p.Misses()
		fmt.Fprintf(&b, "transition-power cache: %d lookups, %.1f%% shared (%d hits, %d new grids, %d over-cap)\n",
			lookups, float64(p.Hits)/float64(lookups)*100, p.Hits,
			p.ColdMisses, p.CapacityMisses)
	}
	fmt.Fprintf(&b, "elapsed %v, %d sessions executed (%.2f sessions/sec)\n",
		r.Elapsed.Round(1e6), r.Executed, r.SessionsPerSecond())
	_, err := io.WriteString(w, b.String())
	return err
}
