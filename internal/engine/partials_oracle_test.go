package engine

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"veritas/internal/abduction"
	"veritas/internal/player"
)

// The per-arm reducer Partials used before its digests became flat
// slabs, kept as a test oracle: one PartialSession per session, a
// PartialArm with its own name and four small cell slices per arm, the
// series walked by comparing names and copied again to be sorted. The
// differential test below compares its reports and series with the
// slab reducer's, byte for byte.

// ReducePartial extracts one row's digest in wire form, as the old
// reducer did.
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

// oracleValue returns the arm's cell under est; m indexes reportMetrics.
func oracleValue(a *PartialArm, est ArmEstimator, m int) (float64, bool) {
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

// oraclePartials is the old Partials: digests held by pointer and
// overwritten in place on a re-fold.
type oraclePartials struct {
	mu       sync.Mutex
	sessions map[string]*PartialSession
	ordered  []*PartialSession
	sorted   bool
}

func newOraclePartials() *oraclePartials {
	return &oraclePartials{sessions: make(map[string]*PartialSession), sorted: true}
}

func (p *oraclePartials) FoldRow(row SessionRow, seq uint64) bool {
	return p.fold(ReducePartial(row, seq), false)
}

func (p *oraclePartials) fold(ps PartialSession, force bool) bool {
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

func (p *oraclePartials) view(scenario string) []*PartialSession {
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

func (p *oraclePartials) HasScenario(scenario string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, s := range p.sessions {
		if s.Scenario == scenario {
			return true
		}
	}
	return false
}

func (p *oraclePartials) ArmUnion(scenario string) []string {
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

func oracleArmNames(rows []*PartialSession) []string {
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

func oracleSeries(rows []*PartialSession, arm string, est ArmEstimator, m int) []float64 {
	var out []float64
	for _, s := range rows {
		for i := range s.Arms {
			if s.Arms[i].Name != arm {
				continue
			}
			if v, ok := oracleValue(&s.Arms[i], est, m); ok {
				out = append(out, v)
			}
		}
	}
	return out
}

func oracleCoverage(rows []*PartialSession, arm string, m int, slack float64) float64 {
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

func (p *oraclePartials) ReportFiltered(scenario string, armOK func(string) bool) *Report {
	rows := p.view(scenario)
	rep := &Report{Sessions: len(rows)}
	for _, arm := range oracleArmNames(rows) {
		if armOK != nil && !armOK(arm) {
			continue
		}
		ar := ArmAggregate{Arm: arm}
		for m, met := range reportMetrics {
			ma := MetricAggregate{Metric: met.label, Estimators: map[ArmEstimator]Summary{}}
			for _, est := range reportEstimators {
				if s := Summarize(oracleSeries(rows, arm, est, m)); s.N > 0 {
					ma.Estimators[est] = s
				}
			}
			if _, ok := ma.Estimators[EstTruth]; ok {
				c := oracleCoverage(rows, arm, m, met.slack)
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

func (p *oraclePartials) Series(scenario, arm string, est ArmEstimator, m int) []float64 {
	if m < 0 || m >= len(reportMetrics) {
		return nil
	}
	return oracleSeries(p.view(scenario), arm, est, m)
}

// randomRow draws one row of a differential corpus: IDs from a small
// pool (so later rows overwrite earlier ones, sometimes at another
// Index or scenario), arm lists drawn from mixed layouts with
// duplicate names, arms with and without the truth, arm-less
// prediction rows, and ties and signed zeros among the metric values.
func randomRow(rng *rand.Rand, ids int) SessionRow {
	vals := []float64{0, 0.25, 0.5, 1}
	met := func() player.Metrics {
		pick := func(scale float64) float64 {
			switch rng.Intn(4) {
			case 0:
				return vals[rng.Intn(len(vals))] * scale
			case 1:
				return math.Copysign(0, -1)
			default:
				return rng.Float64() * scale
			}
		}
		return player.Metrics{AvgSSIM: pick(1), RebufRatio: pick(0.05), AvgBitrateMbps: pick(6)}
	}
	k := rng.Intn(ids)
	row := SessionRow{
		Index:    rng.Intn(2 * ids), // a re-fold may move the session, and Indexes tie
		ID:       fmt.Sprintf("s-%03d", k),
		Scenario: []string{"fcc", "lte", "wifi"}[rng.Intn(3)],
	}
	layouts := [][]string{
		{"bba-5s", "bba-30s", "mpc-5s", "mpc-30s"},
		{"mpc-5s", "bba-5s"},
		{"bba-5s", "bba-5s", "mpc-30s"}, // a duplicate name: both count
		{"festive"},
		nil, // an arm-less row: predictions only
	}
	for _, name := range layouts[rng.Intn(len(layouts))] {
		oc := ArmOutcome{Name: name, Baseline: met()}
		for s := 0; s < rng.Intn(5); s++ { // zero samples too
			oc.Samples = append(oc.Samples, met())
		}
		if rng.Intn(3) > 0 {
			oc.Truth, oc.HasTruth = met(), true
		}
		row.Arms = append(row.Arms, oc)
	}
	for j := rng.Intn(4); j > 0; j-- {
		row.Predictions = append(row.Predictions, rng.Float64())
	}
	return row
}

// TestPartialsMatchOldReducer: over random corpora folded row by row
// (overwrites, stale and equal sequence numbers, mixed layouts), the
// slab reducer's reports, filtered reports, series and lookups equal
// the old per-arm reducer's byte for byte at every step.
func TestPartialsMatchOldReducer(t *testing.T) {
	filters := map[string]func(string) bool{
		"all":   nil,
		"bba":   func(arm string) bool { return strings.HasPrefix(arm, "bba") },
		"mpc":   func(arm string) bool { return strings.HasPrefix(arm, "mpc") },
		"none":  func(string) bool { return false },
		"-30s":  func(arm string) bool { return strings.HasSuffix(arm, "-30s") },
		"vanil": func(arm string) bool { return arm == "festive" },
	}
	arms := []string{"bba-5s", "bba-30s", "mpc-5s", "mpc-30s", "festive", "nope"}
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		got, want := NewPartials(), newOraclePartials()
		rows := 20 + rng.Intn(60)
		for r := 0; r < rows; r++ {
			row := randomRow(rng, 1+rows/3)
			seq := uint64(rng.Intn(rows)) // stale folds are refused by both
			if a, b := got.FoldRow(row, seq), want.FoldRow(row, seq); a != b {
				t.Fatalf("seed %d row %d: FoldRow applied = %v, old reducer %v", seed, r, a, b)
			}
			if r%7 != 6 && r != rows-1 {
				continue
			}
			for _, scenario := range []string{"", "fcc", "lte", "wifi", "dialup"} {
				if a, b := got.HasScenario(scenario), want.HasScenario(scenario); scenario != "" && a != b {
					t.Fatalf("seed %d: HasScenario(%q) = %v, old reducer %v", seed, scenario, a, b)
				}
				if a, b := fmt.Sprint(got.ArmUnion(scenario)), fmt.Sprint(want.ArmUnion(scenario)); a != b {
					t.Fatalf("seed %d: ArmUnion(%q) = %s, old reducer %s", seed, scenario, a, b)
				}
				for name, armOK := range filters {
					a, b := reportJSON(t, got.ReportFiltered(scenario, armOK)), reportJSON(t, want.ReportFiltered(scenario, armOK))
					if string(a) != string(b) {
						t.Fatalf("seed %d row %d scenario %q filter %s:\nslab: %s\nold:  %s", seed, r, scenario, name, a, b)
					}
				}
				for _, arm := range arms {
					for m := -1; m <= numMetrics; m++ {
						for _, est := range Estimators() {
							a, _ := json.Marshal(got.Series(scenario, arm, est, m))
							b, _ := json.Marshal(want.Series(scenario, arm, est, m))
							if string(a) != string(b) {
								t.Fatalf("seed %d scenario %q series %s/%d/%s:\nslab: %s\nold:  %s", seed, scenario, arm, m, est, a, b)
							}
						}
					}
				}
			}
		}
		// The wire form round-trips: a Partials restored from the
		// EachPartial stream reports what the old reducer reports.
		restored := NewPartials()
		if err := got.EachPartial(func(ps *PartialSession) error {
			b, err := json.Marshal(ps)
			if err != nil {
				return err
			}
			var back PartialSession
			if err := json.Unmarshal(b, &back); err != nil {
				return err
			}
			return restored.FoldPartial(back)
		}); err != nil {
			t.Fatal(err)
		}
		if a, b := reportJSON(t, restored.Report("")), reportJSON(t, want.ReportFiltered("", nil)); string(a) != string(b) {
			t.Fatalf("seed %d: restored report diverged:\nslab: %s\nold:  %s", seed, a, b)
		}
	}
}
