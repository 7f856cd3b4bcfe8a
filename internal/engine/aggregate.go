package engine

import (
	"slices"
	"sort"
	"sync"

	"veritas/internal/abduction"
	"veritas/internal/player"
	"veritas/internal/stats"
)

// ArmEstimator selects which of the paper's estimators a fleet
// aggregate is computed over.
type ArmEstimator string

const (
	// EstTruth is the oracle replay over the ground-truth trace.
	EstTruth ArmEstimator = "truth"
	// EstBaseline is the replay over the Baseline throughput estimate.
	EstBaseline ArmEstimator = "baseline"
	// EstVeritasLow / EstVeritasHigh are the paper's reported range
	// (second-lowest and second-highest posterior sample outcome).
	EstVeritasLow  ArmEstimator = "veritas-low"
	EstVeritasHigh ArmEstimator = "veritas-high"
	// EstVeritasMid is the midpoint of the Veritas range, the point
	// estimate used for error comparisons.
	EstVeritasMid ArmEstimator = "veritas-mid"
)

// Summary is a fleet-level description of one metric series.
type Summary struct {
	N                                 int
	Mean                              float64
	Min, P10, P25, P50, P75, P90, Max float64
}

// summaryRanks are the percentiles a Summary reports, in field order.
var summaryRanks = []float64{10, 25, 50, 75, 90}

// Summarize computes a Summary over vals; the zero Summary for empty
// input. The five percentiles are read from one sorted copy; vals is
// left as it was.
func Summarize(vals []float64) Summary {
	return summarizeInPlace(slices.Clone(vals))
}

// summarizeInPlace is Summarize over a scratch series the caller owns:
// the mean, min and max read vals in input order, as Summarize does,
// then one in-place sort serves the percentiles, so vals is left
// sorted. The float operations are Summarize's, so is the result.
func summarizeInPlace(vals []float64) Summary {
	if len(vals) == 0 {
		return Summary{}
	}
	mean, lo, hi := stats.Mean(vals), stats.Min(vals), stats.Max(vals)
	p := stats.PercentilesInPlace(vals, summaryRanks)
	return Summary{
		N:    len(vals),
		Mean: mean,
		Min:  lo,
		P10:  p[0],
		P25:  p[1],
		P50:  p[2],
		P75:  p[3],
		P90:  p[4],
		Max:  hi,
	}
}

// SessionRow is the compact, serializable reduction of a SessionResult:
// everything aggregation and the result store keep per session, and
// nothing else. In particular it drops the session log and any retained
// abduction, which is what bounds a store's and a row stream's memory on
// corpora whose logs would not fit in RAM.
type SessionRow struct {
	Index       int
	ID          string
	Scenario    string
	Simulated   bool // true when Setting A was simulated (SettingA is meaningful)
	SettingA    player.Metrics
	Arms        []ArmOutcome
	Predictions []float64
}

// Row reduces the result to its aggregation row.
func (r SessionResult) Row() SessionRow {
	return SessionRow{
		Index:       r.Index,
		ID:          r.ID,
		Scenario:    r.Scenario,
		Simulated:   r.Log != nil && r.SettingA != (player.Metrics{}),
		SettingA:    r.SettingA,
		Arms:        r.Arms,
		Predictions: r.Predictions,
	}
}

// Sink consumes completed session results as workers finish them — the
// engine's streaming persistence hook (e.g. a store writer). Put is
// called from worker goroutines in completion order and must be safe
// for concurrent use; the first Put error aborts the run.
type Sink interface {
	Put(SessionResult) error
}

// Aggregator is the independent row-at-a-time oracle for Partials: it
// keeps full rows and recomputes every report cell from them at Report
// time with its own walk (armNamesOf, seriesOf, coverageOf) instead of
// reading per-session digests. No production path builds one —
// engine.Run, the store and the serving tier all reduce through
// Partials — it exists so differential tests (and bench/'s query check)
// can compare two reducers byte for byte. Report computes over rows
// ordered by (Index, ID), whatever order AddRow saw them in.
type Aggregator struct {
	mu       sync.Mutex
	rows     []SessionRow
	unsorted bool
}

// NewAggregator returns an oracle with room for about n rows (a
// capacity hint, not a limit).
func NewAggregator(n int) *Aggregator {
	if n < 0 {
		n = 0
	}
	return &Aggregator{rows: make([]SessionRow, 0, n)}
}

// AddRow records one session row; safe for concurrent use.
func (a *Aggregator) AddRow(row SessionRow) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.rows = append(a.rows, row)
	a.unsorted = true
}

// snapshot returns the recorded rows ordered by (Index, ID). The rows
// themselves are shared with the aggregator and must not be mutated.
func (a *Aggregator) snapshot() []SessionRow {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.unsorted {
		sort.Slice(a.rows, func(i, j int) bool {
			if a.rows[i].Index != a.rows[j].Index {
				return a.rows[i].Index < a.rows[j].Index
			}
			return a.rows[i].ID < a.rows[j].ID
		})
		a.unsorted = false
	}
	out := make([]SessionRow, len(a.rows))
	copy(out, a.rows)
	return out
}

// armNamesOf returns the arm names of the first row (in snapshot order)
// that ran any arms.
func armNamesOf(rows []SessionRow) []string {
	for _, s := range rows {
		if len(s.Arms) > 0 {
			names := make([]string, len(s.Arms))
			for i, oc := range s.Arms {
				names[i] = oc.Name
			}
			return names
		}
	}
	return nil
}

func armValue(oc ArmOutcome, est ArmEstimator, f abduction.MetricFn) (float64, bool) {
	switch est {
	case EstTruth:
		if !oc.HasTruth {
			return 0, false
		}
		return f(oc.Truth), true
	case EstBaseline:
		return f(oc.Baseline), true
	case EstVeritasLow:
		lo, _ := abduction.VeritasRange(oc.Samples, f)
		return lo, true
	case EstVeritasHigh:
		_, hi := abduction.VeritasRange(oc.Samples, f)
		return hi, true
	case EstVeritasMid:
		lo, hi := abduction.VeritasRange(oc.Samples, f)
		return (lo + hi) / 2, true
	}
	return 0, false
}

// seriesOf returns the per-session values of metric f under the given
// estimator for one arm, in row order. Rows missing the arm (or the
// ground truth, for EstTruth) are skipped.
func seriesOf(rows []SessionRow, arm string, est ArmEstimator, f abduction.MetricFn) []float64 {
	var out []float64
	for _, s := range rows {
		for _, oc := range s.Arms {
			if oc.Name != arm {
				continue
			}
			if v, ok := armValue(oc, est, f); ok {
				out = append(out, v)
			}
		}
	}
	return out
}

// predictionsOf returns every interventional prediction in row order.
func predictionsOf(rows []SessionRow) []float64 {
	var out []float64
	for _, s := range rows {
		out = append(out, s.Predictions...)
	}
	return out
}

// coverageOf returns the fraction of rows whose oracle outcome lies
// inside [VeritasLow − slack, VeritasHigh + slack] for metric f.
func coverageOf(rows []SessionRow, arm string, f abduction.MetricFn, slack float64) float64 {
	var n, covered int
	for _, s := range rows {
		for _, oc := range s.Arms {
			if oc.Name != arm || !oc.HasTruth {
				continue
			}
			lo, hi := abduction.VeritasRange(oc.Samples, f)
			t := f(oc.Truth)
			n++
			if t >= lo-slack && t <= hi+slack {
				covered++
			}
		}
	}
	if n == 0 {
		return 0
	}
	return float64(covered) / float64(n)
}
