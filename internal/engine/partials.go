package engine

import (
	"sort"
	"strings"
	"sync"

	"veritas/internal/abduction"
)

// Incremental per-arm aggregation — the one reducer behind every
// report (engine.Run, the store, the /v1 report family, Fold). The
// fleet report's reducer is associative: every cell is a fold over
// per-session values that are pure functions of one SessionRow (the
// estimator values, the coverage range test, the prediction list).
// Partials exploits that by extracting those values once, when a row
// is folded in, and keeping them as a per-session digest — so a growing
// corpus pays O(arms × metrics) extraction per appended row instead of
// a full O(rows) rescan per report.
//
// Byte-identity discipline. Reports built from partials must be
// byte-identical to the Aggregator oracle's report over the same rows
// (the repo's central invariant, pinned by tests at every layer). Two
// properties make that hold:
//
//   - Extraction is pure per row: the metric functions and VeritasRange
//     computed at fold time equal the same calls at report time.
//   - Series order is fixed: stats.Mean sums in input order, so Report
//     materializes every series in (Index, ID) session order with
//     per-session arm multiplicity preserved.
//
// EstVeritasMid is not stored: it is (low+high)/2, derived from the
// stored low/high cells with that exact float expression.

// PartialSession is one session's digest: everything the report needs,
// nothing else (no metrics structs, no samples). It is serializable —
// the store persists digests as a snapshot so reopening a corpus does
// not re-extract every row. Slices are shared, not copied; treat a
// PartialSession obtained from Snapshot as read-only.
type PartialSession struct {
	// Seq orders folds of the same session ID: FoldRow ignores a row
	// whose Seq is below the recorded one, so replaying a store's
	// frames in any interleaving converges on the newest record.
	Seq         uint64
	Index       int
	ID          string
	Scenario    string
	Arms        []PartialArm
	Predictions []float64
}

// PartialArm is one arm's extracted cells: per report metric, the value
// under each base estimator. Truth is present only when the outcome
// carried the oracle.
type PartialArm struct {
	Name     string
	HasTruth bool
	Truth    []float64 `json:",omitempty"` // per reportMetrics index
	Baseline []float64
	Low      []float64
	High     []float64
}

// value returns the arm's cell under est; m indexes reportMetrics.
func (a *PartialArm) value(est ArmEstimator, m int) (float64, bool) {
	switch est {
	case EstTruth:
		if !a.HasTruth {
			return 0, false
		}
		return a.Truth[m], true
	case EstBaseline:
		return a.Baseline[m], true
	case EstVeritasLow:
		return a.Low[m], true
	case EstVeritasHigh:
		return a.High[m], true
	case EstVeritasMid:
		return (a.Low[m] + a.High[m]) / 2, true
	}
	return 0, false
}

// ReducePartial extracts one row's digest. It is the only place rows
// are reduced, so fold-time and rebuild-time digests cannot diverge.
func ReducePartial(row SessionRow, seq uint64) PartialSession {
	ps := PartialSession{
		Seq:      seq,
		Index:    row.Index,
		ID:       row.ID,
		Scenario: row.Scenario,
	}
	if len(row.Predictions) > 0 {
		ps.Predictions = append([]float64(nil), row.Predictions...)
	}
	if len(row.Arms) > 0 {
		ps.Arms = make([]PartialArm, len(row.Arms))
	}
	for i, oc := range row.Arms {
		pa := PartialArm{
			Name:     oc.Name,
			HasTruth: oc.HasTruth,
			Baseline: make([]float64, len(reportMetrics)),
			Low:      make([]float64, len(reportMetrics)),
			High:     make([]float64, len(reportMetrics)),
		}
		if oc.HasTruth {
			pa.Truth = make([]float64, len(reportMetrics))
		}
		for m, met := range reportMetrics {
			pa.Baseline[m] = met.fn(oc.Baseline)
			if oc.HasTruth {
				pa.Truth[m] = met.fn(oc.Truth)
			}
			pa.Low[m], pa.High[m] = abduction.VeritasRange(oc.Samples, met.fn)
		}
		ps.Arms[i] = pa
	}
	return ps
}

// Partials holds the incremental aggregate state of a corpus: one
// digest per session ID, newest fold wins. All methods are safe for
// concurrent use.
type Partials struct {
	mu       sync.Mutex
	sessions map[string]*PartialSession
	ordered  []*PartialSession // every session, sorted by (Index, ID) when sorted
	sorted   bool
}

// NewPartials returns an empty partial-aggregate state.
func NewPartials() *Partials {
	return &Partials{sessions: make(map[string]*PartialSession), sorted: true}
}

// FoldRow reduces one row and folds it in, replacing any digest already
// held for the same ID unless that digest carries a higher Seq (a
// concurrent fold of a newer record won the race). Reports whether the
// fold was applied.
func (p *Partials) FoldRow(row SessionRow, seq uint64) bool {
	return p.fold(ReducePartial(row, seq), false)
}

// FoldPartial folds an already-reduced digest, unconditionally: the
// caller's fold order is the precedence (last write wins), which is how
// snapshot restore and cross-store merges impose a deterministic order
// on digests whose Seq counters come from different stores.
func (p *Partials) FoldPartial(ps PartialSession) { p.fold(ps, true) }

func (p *Partials) fold(ps PartialSession, force bool) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if cur, ok := p.sessions[ps.ID]; ok {
		if !force && ps.Seq < cur.Seq {
			return false
		}
		if cur.Index != ps.Index {
			p.sorted = false
		}
		*cur = ps
		return true
	}
	c := ps
	p.sessions[ps.ID] = &c
	p.ordered = append(p.ordered, &c)
	p.sorted = false
	return true
}

// Sessions returns the number of distinct sessions folded in.
func (p *Partials) Sessions() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.sessions)
}

// view returns the digests in (Index, ID) order, optionally filtered to
// one scenario. The returned
// slice is the caller's; the pointed-to digests are shared and must not
// be mutated.
func (p *Partials) view(scenario string) []*PartialSession {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.sorted {
		sort.Slice(p.ordered, func(i, j int) bool {
			if p.ordered[i].Index != p.ordered[j].Index {
				return p.ordered[i].Index < p.ordered[j].Index
			}
			return p.ordered[i].ID < p.ordered[j].ID
		})
		p.sorted = true
	}
	out := make([]*PartialSession, 0, len(p.ordered))
	for _, s := range p.ordered {
		if scenario == "" || s.Scenario == scenario {
			out = append(out, s)
		}
	}
	return out
}

// Snapshot returns every digest in (Index, ID) order — the store's
// persistence hook. Digest slices are shared; treat them as read-only.
func (p *Partials) Snapshot() []PartialSession {
	view := p.view("")
	out := make([]PartialSession, len(view))
	for i, s := range view {
		out[i] = *s
	}
	return out
}

// HasScenario reports whether any folded session carries the scenario.
func (p *Partials) HasScenario(scenario string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, s := range p.sessions {
		if s.Scenario == scenario {
			return true
		}
	}
	return false
}

// ArmUnion returns the sorted union of arm names across the (scenario-
// filtered) sessions — the validation set for arm and ABR query
// filters. Unlike the report's arm list (first session's order) it sees
// arms any session ran.
func (p *Partials) ArmUnion(scenario string) []string {
	seen := make(map[string]bool)
	for _, s := range p.view(scenario) {
		for i := range s.Arms {
			seen[s.Arms[i].Name] = true
		}
	}
	out := make([]string, 0, len(seen))
	for name := range seen {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// partialArmNames returns the arm names of the first session (in view
// order) that ran any arms.
func partialArmNames(rows []*PartialSession) []string {
	for _, s := range rows {
		if len(s.Arms) > 0 {
			names := make([]string, len(s.Arms))
			for i := range s.Arms {
				names[i] = s.Arms[i].Name
			}
			return names
		}
	}
	return nil
}

// partialSeries returns the per-session values for one arm under one
// estimator, in view order, with per-session arm multiplicity preserved.
// Sessions missing the arm (or the truth, for EstTruth) are skipped.
func partialSeries(rows []*PartialSession, arm string, est ArmEstimator, m int) []float64 {
	n := 0
	for _, s := range rows {
		for i := range s.Arms {
			if s.Arms[i].Name == arm {
				n++
			}
		}
	}
	out := make([]float64, 0, n)
	for _, s := range rows {
		for i := range s.Arms {
			if s.Arms[i].Name != arm {
				continue
			}
			if v, ok := s.Arms[i].value(est, m); ok {
				out = append(out, v)
			}
		}
	}
	if len(out) == 0 {
		return nil // an empty series is nil, which JSON bodies show as null
	}
	return out
}

// partialCoverage returns the fraction of sessions whose truth lies
// inside [low − slack, high + slack] for metric m.
func partialCoverage(rows []*PartialSession, arm string, m int, slack float64) float64 {
	var n, covered int
	for _, s := range rows {
		for i := range s.Arms {
			a := &s.Arms[i]
			if a.Name != arm || !a.HasTruth {
				continue
			}
			n++
			if t := a.Truth[m]; t >= a.Low[m]-slack && t <= a.High[m]+slack {
				covered++
			}
		}
	}
	if n == 0 {
		return 0
	}
	return float64(covered) / float64(n)
}

// Report builds the aggregate report from the partials — byte-identical
// (after JSON encoding) to the Aggregator oracle's over the same rows.
// scenario empty means all sessions.
func (p *Partials) Report(scenario string) *Report {
	return p.ReportFiltered(scenario, nil)
}

// ReportFiltered is Report restricted to the arms armOK accepts (nil
// accepts all) — the /v1/report?abr= filter. The unfiltered report is
// the byte-identity-pinned one; a filtered report is the same blocks
// minus the excluded arms.
func (p *Partials) ReportFiltered(scenario string, armOK func(string) bool) *Report {
	rows := p.view(scenario)
	rep := &Report{Sessions: len(rows)}
	for _, arm := range partialArmNames(rows) {
		if armOK != nil && !armOK(arm) {
			continue
		}
		ar := ArmAggregate{Arm: arm}
		for m, met := range reportMetrics {
			ma := MetricAggregate{Metric: met.label, Estimators: map[ArmEstimator]Summary{}}
			for _, est := range reportEstimators {
				if s := Summarize(partialSeries(rows, arm, est, m)); s.N > 0 {
					ma.Estimators[est] = s
				}
			}
			if _, ok := ma.Estimators[EstTruth]; ok {
				c := partialCoverage(rows, arm, m, met.slack)
				ma.Coverage = &c
				ma.CoverageSlack = met.slack
			}
			ar.Metrics = append(ar.Metrics, ma)
		}
		rep.Arms = append(rep.Arms, ar)
	}
	var preds []float64
	for _, s := range rows {
		preds = append(preds, s.Predictions...)
	}
	if len(preds) > 0 {
		s := Summarize(preds)
		rep.Predictions = &s
	}
	return rep
}

// Series returns the per-session values of one report metric under the
// given estimator for one arm, in corpus order — what the CDF, series
// and percentile endpoints serve. m indexes ReportMetrics.
func (p *Partials) Series(scenario, arm string, est ArmEstimator, m int) []float64 {
	if m < 0 || m >= len(reportMetrics) {
		return nil
	}
	return partialSeries(p.view(scenario), arm, est, m)
}

// ReportMetric describes one metric column of the fleet report.
type ReportMetric struct {
	Key   string  // query-surface spelling ("ssim", "rebuf", "bitrate")
	Label string  // report row label ("SSIM", "rebuf %", "bitrate Mbps")
	Scale float64 // display multiplier
	Slack float64 // coverage slack in the metric's native unit
}

// ReportMetrics lists the report's metric columns in report order; the
// slice index is the m parameter of Series.
func ReportMetrics() []ReportMetric {
	out := make([]ReportMetric, len(reportMetrics))
	for i, m := range reportMetrics {
		out[i] = ReportMetric{Key: m.key, Label: m.label, Scale: m.scale, Slack: m.slack}
	}
	return out
}

// MetricIndex resolves a metric spelling — the query key
// (case-insensitive) or the exact report label — to its reportMetrics
// index.
func MetricIndex(name string) (int, bool) {
	for i, m := range reportMetrics {
		if strings.EqualFold(name, m.key) || name == m.label {
			return i, true
		}
	}
	return 0, false
}

// Estimators lists every arm estimator the query surface accepts.
func Estimators() []ArmEstimator {
	return []ArmEstimator{EstTruth, EstBaseline, EstVeritasLow, EstVeritasHigh, EstVeritasMid}
}

// ParseEstimator resolves an estimator spelling.
func ParseEstimator(name string) (ArmEstimator, bool) {
	for _, est := range Estimators() {
		if ArmEstimator(name) == est {
			return est, true
		}
	}
	return "", false
}
