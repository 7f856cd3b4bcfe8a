package engine

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"veritas/internal/player"
)

// synthRow builds a deterministic synthetic session row. Every (i, seed)
// pair produces the same row, so tests can regenerate a "newer record"
// for the same ID by varying seed.
func synthRow(i int, seed int64) SessionRow {
	rng := rand.New(rand.NewSource(int64(i)*1664525 + seed))
	met := func() player.Metrics {
		return player.Metrics{
			AvgSSIM:        0.8 + 0.2*rng.Float64(),
			RebufRatio:     0.05 * rng.Float64(),
			AvgBitrateMbps: 1 + 5*rng.Float64(),
		}
	}
	row := SessionRow{
		Index:    i,
		ID:       fmt.Sprintf("sess-%04d", i),
		Scenario: fmt.Sprintf("scenario-%d", i%3),
	}
	for _, name := range []string{"bba", "mpc", "mpc-greedy"} {
		oc := ArmOutcome{Name: name, Baseline: met()}
		for k := 0; k < 3+rng.Intn(3); k++ {
			oc.Samples = append(oc.Samples, met())
		}
		if i%4 != 3 { // some sessions lack the oracle
			oc.Truth = met()
			oc.HasTruth = true
		}
		row.Arms = append(row.Arms, oc)
	}
	if i%2 == 0 {
		for k := 0; k < 1+rng.Intn(4); k++ {
			row.Predictions = append(row.Predictions, rng.Float64())
		}
	}
	return row
}

func reportJSON(t *testing.T, rep *Report) []byte {
	t.Helper()
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatalf("marshal report: %v", err)
	}
	return b
}

// The acceptance pin at the engine layer: a report built from
// incrementally folded partials is byte-identical to the full
// Aggregator recompute at every generation, for every scenario filter,
// under out-of-order arrival.
func TestPartialsReportByteIdentical(t *testing.T) {
	agg := NewAggregator(0)
	p := NewPartials()
	// Fold in a scrambled order to exercise the (Index, ID) resort.
	order := rand.New(rand.NewSource(7)).Perm(40)
	for gen, i := range order {
		row := synthRow(i, 1)
		agg.AddRow(row)
		if !p.FoldRow(row, uint64(gen)) {
			t.Fatalf("fold %d rejected", gen)
		}
		for _, scenario := range []string{"", "scenario-0", "scenario-1", "scenario-2"} {
			want := reportJSON(t, reportForScenario(agg, scenario))
			got := reportJSON(t, p.Report(scenario))
			if string(want) != string(got) {
				t.Fatalf("gen %d scenario %q:\npartials: %s\nfull:     %s", gen, scenario, got, want)
			}
		}
	}
	if p.Sessions() != 40 {
		t.Fatalf("Sessions = %d, want 40", p.Sessions())
	}
}

// reportForScenario is the oracle's scenario filter: refilter the rows,
// then Report.
func reportForScenario(agg *Aggregator, scenario string) *Report {
	if scenario == "" {
		return agg.Report()
	}
	sub := NewAggregator(0)
	for _, row := range agg.snapshot() {
		if row.Scenario == scenario {
			sub.AddRow(row)
		}
	}
	return sub.Report()
}

// Folding a newer record for the same ID must supersede the older one —
// and produce the exact report of an aggregator that only ever saw the
// newest records.
func TestPartialsFoldRowSupersedes(t *testing.T) {
	p := NewPartials()
	agg := NewAggregator(0)
	for i := 0; i < 12; i++ {
		p.FoldRow(synthRow(i, 1), uint64(i))
	}
	// Rewrite every third session with different outcomes.
	for i := 0; i < 12; i++ {
		row := synthRow(i, 1)
		if i%3 == 0 {
			row = synthRow(i, 99)
			p.FoldRow(row, uint64(100+i))
		}
		agg.AddRow(row)
	}
	if got, want := reportJSON(t, p.Report("")), reportJSON(t, agg.Report()); string(got) != string(want) {
		t.Fatalf("superseded report diverged:\npartials: %s\nfull:     %s", got, want)
	}
	// A stale fold (lower seq) must be rejected and change nothing.
	before := reportJSON(t, p.Report(""))
	if p.FoldRow(synthRow(0, 1), 0) {
		t.Fatal("stale fold was applied")
	}
	if after := reportJSON(t, p.Report("")); string(after) != string(before) {
		t.Fatal("rejected fold still changed the report")
	}
	// An equal-seq fold wins (replay of the same frame is idempotent).
	if !p.FoldRow(synthRow(0, 99), 100) {
		t.Fatal("equal-seq fold rejected")
	}
}

// FoldPartial is unconditional: caller order is precedence, which is
// what snapshot restore and cross-store merges rely on.
func TestPartialsFoldPartialOrderWins(t *testing.T) {
	old := ReducePartial(synthRow(3, 1), 500)
	new_ := ReducePartial(synthRow(3, 2), 1) // lower seq, folded later

	p := NewPartials()
	p.FoldPartial(old)
	p.FoldPartial(new_)

	want := NewAggregator(0)
	want.AddRow(synthRow(3, 2))
	if got, exp := reportJSON(t, p.Report("")), reportJSON(t, want.Report()); string(got) != string(exp) {
		t.Fatalf("FoldPartial order not respected:\ngot:  %s\nwant: %s", got, exp)
	}
}

func TestPartialsSeriesMatchesAggregator(t *testing.T) {
	agg := NewAggregator(0)
	p := NewPartials()
	for i := 0; i < 25; i++ {
		row := synthRow(i, 1)
		agg.AddRow(row)
		p.FoldRow(row, uint64(i))
	}
	for m, met := range reportMetrics {
		for _, est := range Estimators() {
			want := seriesOf(agg.snapshot(), "mpc", est, met.fn)
			got := p.Series("", "mpc", est, m)
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("series %s/%s: got %v want %v", met.key, est, got, want)
			}
		}
	}
	if s := p.Series("", "mpc", EstBaseline, 17); s != nil {
		t.Fatalf("out-of-range metric index returned %v", s)
	}
}

func TestPartialsSnapshotRoundTrip(t *testing.T) {
	p := NewPartials()
	for i := 0; i < 15; i++ {
		p.FoldRow(synthRow(i, 1), uint64(i))
	}
	snap := p.Snapshot()
	if len(snap) != 15 {
		t.Fatalf("snapshot has %d sessions, want 15", len(snap))
	}
	// Snapshot must survive a JSON round trip (the store persists it).
	b, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back []PartialSession
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	p2 := NewPartials()
	for _, ps := range back {
		p2.FoldPartial(ps)
	}
	if got, want := reportJSON(t, p2.Report("")), reportJSON(t, p.Report("")); string(got) != string(want) {
		t.Fatalf("restored report diverged:\ngot:  %s\nwant: %s", got, want)
	}
}

func TestPartialsLookups(t *testing.T) {
	p := NewPartials()
	for i := 0; i < 9; i++ {
		p.FoldRow(synthRow(i, 1), uint64(i))
	}
	if !p.HasScenario("scenario-1") || p.HasScenario("nope") {
		t.Fatal("HasScenario wrong")
	}
	union := p.ArmUnion("")
	if !reflect.DeepEqual(union, []string{"bba", "mpc", "mpc-greedy"}) {
		t.Fatalf("ArmUnion = %v", union)
	}
	if got := p.ArmUnion("nope"); len(got) != 0 {
		t.Fatalf("ArmUnion(nope) = %v", got)
	}
}

func TestMetricIndexAndEstimators(t *testing.T) {
	for i, m := range ReportMetrics() {
		if got, ok := MetricIndex(m.Key); !ok || got != i {
			t.Fatalf("MetricIndex(%q) = %d, %v", m.Key, got, ok)
		}
		if got, ok := MetricIndex(m.Label); !ok || got != i {
			t.Fatalf("MetricIndex(%q) = %d, %v", m.Label, got, ok)
		}
	}
	if _, ok := MetricIndex("SSIM"); !ok { // label, exact
		t.Fatal("label lookup failed")
	}
	if _, ok := MetricIndex("vmaf"); ok {
		t.Fatal("unknown metric resolved")
	}
	if est, ok := ParseEstimator("veritas-mid"); !ok || est != EstVeritasMid {
		t.Fatalf("ParseEstimator = %v, %v", est, ok)
	}
	if _, ok := ParseEstimator("psychic"); ok {
		t.Fatal("unknown estimator resolved")
	}
}

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden from the current output")

// TestWriteAggregateGolden pins the text report byte-for-byte over the
// synthetic fixture rows, plus one arm no session has an oracle for
// (its Truth rows and coverage lines must be absent, not zero). Both
// reducers render it: the Aggregator oracle's report and the Partials'.
func TestWriteAggregateGolden(t *testing.T) {
	agg := NewAggregator(0)
	p := NewPartials()
	for i := 0; i < 12; i++ {
		row := synthRow(i, 1)
		if i == 0 {
			blind := row.Arms[0]
			blind.Name, blind.HasTruth = "no-oracle", false
			row.Arms = append(row.Arms, blind)
		}
		agg.AddRow(row)
		p.FoldRow(row, 0)
	}
	golden := filepath.Join("testdata", "aggregate.golden")
	for _, c := range []struct {
		reducer string
		rep     *Report
	}{{"Aggregator", agg.Report()}, {"Partials", p.Report("")}} {
		var got bytes.Buffer
		if err := WriteAggregate(&got, c.rep); err != nil {
			t.Fatal(err)
		}
		if *updateGolden {
			if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("WriteAggregate over the %s report drifted from %s (re-record with -update if deliberate)\ngot:\n%s\nwant:\n%s", c.reducer, golden, got.Bytes(), want)
		}
	}
}
