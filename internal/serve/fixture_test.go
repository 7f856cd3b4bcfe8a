package serve

// Fixtures the moved handler tests shared with the store's own tests
// (internal/store/store_test.go keeps its copies): test-only, so they
// are duplicated here rather than exported from production code.

import (
	"fmt"
	"testing"

	"veritas/internal/engine"
	"veritas/internal/player"
	"veritas/internal/store"
)

// testRow synthesizes a plausible session row without running any
// inference.
func testRow(i int, scenario string) engine.SessionRow {
	m := player.Metrics{AvgSSIM: 0.9 + float64(i)*1e-3, RebufRatio: 0.01 * float64(i%5), AvgBitrateMbps: 2 + float64(i%7), NumChunks: 30}
	return engine.SessionRow{
		Index:     i,
		ID:        fmt.Sprintf("%s-%03d", scenario, i),
		Scenario:  scenario,
		Simulated: true,
		SettingA:  m,
		Arms: []engine.ArmOutcome{{
			Name:     "bba-5s",
			Baseline: m,
			Samples:  []player.Metrics{m, m, m},
			Truth:    m,
			HasTruth: true,
		}},
		Predictions: []float64{1.5, float64(i)},
	}
}

func fillStore(t *testing.T, s *store.Store, n int, scenario string) []engine.SessionRow {
	t.Helper()
	rows := make([]engine.SessionRow, n)
	for i := 0; i < n; i++ {
		rows[i] = testRow(i, scenario)
		if err := s.Append(rows[i]); err != nil {
			t.Fatal(err)
		}
	}
	return rows
}

// fleetCorpus builds a small real corpus + one arm for the end-to-end
// handler tests.
func fleetCorpus(t testing.TB) ([]engine.SessionSpec, []engine.Arm) {
	t.Helper()
	ccfg := engine.CorpusConfig{SessionsPer: 1, NumChunks: 25, Seed: 3}
	corpus, err := engine.BuildCorpus(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	arms, err := engine.BuildMatrix(ccfg, []string{"bba"}, []float64{5})
	if err != nil {
		t.Fatal(err)
	}
	return corpus, arms
}
