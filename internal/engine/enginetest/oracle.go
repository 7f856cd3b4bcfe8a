// Package enginetest is test support for the packages layered on the
// fleet engine: the one helper through which their differential tests
// reach engine.Aggregator, the row-at-a-time oracle every report built
// from engine.Partials is pinned byte-identical to.
package enginetest

import (
	"encoding/json"
	"testing"

	"veritas/internal/engine"
)

// Scan iterates session rows; (*store.Store).Scan has this shape.
type Scan = func(fn func(engine.SessionRow) error) error

// ResultRows scans the rows of a run's retained sessions (skipped and
// out-of-shard corpus slots hold no result and yield none).
func ResultRows(res *engine.Result) Scan {
	return func(fn func(engine.SessionRow) error) error {
		for _, s := range res.Sessions {
			if s.ID == "" {
				continue
			}
			if err := fn(s.Row()); err != nil {
				return err
			}
		}
		return nil
	}
}

// OracleReport replays every row scan yields — only those of scenario,
// when it is non-empty — into a fresh engine.Aggregator and returns the
// oracle's report.
func OracleReport(t testing.TB, scan Scan, scenario string) *engine.Report {
	t.Helper()
	agg := engine.NewAggregator(0)
	err := scan(func(row engine.SessionRow) error {
		if scenario == "" || row.Scenario == scenario {
			agg.AddRow(row)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return agg.Report()
}

// OracleJSON is OracleReport encoded the way /v1/report encodes it.
func OracleJSON(t testing.TB, scan Scan, scenario string) []byte {
	t.Helper()
	b, err := json.Marshal(OracleReport(t, scan, scenario))
	if err != nil {
		t.Fatal(err)
	}
	return b
}
