package store

// Tests for the store-level partial-aggregate layer: lazy build,
// incremental fold on append, and the snapshot writer's bytes. That no
// snapshot ever reaches a report is pinned in snapshot_ignored_test.go.

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"veritas/internal/engine"
	"veritas/internal/engine/enginetest"
	"veritas/internal/telemetry"
)

func partialsReportBytes(t *testing.T, s *Store, scenario string) []byte {
	t.Helper()
	p, err := s.Partials()
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(p.Report(scenario))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestStorePartialsMatchFullScanAtEveryGeneration is the tentpole
// acceptance pin: the incrementally folded report is byte-identical to
// the full-recompute (Scan + Aggregator) report at every single
// generation, unfiltered and per scenario.
func TestStorePartialsMatchFullScanAtEveryGeneration(t *testing.T) {
	s, err := Create(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	scenarios := []string{"fcc", "lte", "wifi"}
	for i := 0; i < 15; i++ {
		if err := s.Append(testRow(i, scenarios[i%3])); err != nil {
			t.Fatal(err)
		}
		for _, scen := range []string{"", "fcc", "lte", "wifi"} {
			if i < 2 && scen != "" && !s.hasScenarioNow(scen) {
				continue
			}
			got := partialsReportBytes(t, s, scen)
			want := enginetest.OracleJSON(t, s.Scan, scen)
			if !bytes.Equal(got, want) {
				t.Fatalf("gen %d scenario %q: incremental report diverged\nwant: %s\ngot:  %s", i, scen, want, got)
			}
		}
	}
	// Overwrites must supersede, not duplicate.
	if err := s.Append(testRow(3, "fcc")); err != nil {
		t.Fatal(err)
	}
	if got, want := partialsReportBytes(t, s, ""), enginetest.OracleJSON(t, s.Scan, ""); !bytes.Equal(got, want) {
		t.Fatal("incremental report diverged after overwrite")
	}
}

// hasScenarioNow reports whether any stored row carries the scenario
// (test helper; Scenarios() is the public path).
func (s *Store) hasScenarioNow(scen string) bool {
	for _, si := range s.Scenarios() {
		if si.Scenario == scen {
			return true
		}
	}
	return false
}

// TestPartialsSnapshotRoundTripOnDisk: Close saves partials.vagg, a
// reopen reports what the rows say, and rows appended after the
// snapshot fold in on top.
func TestPartialsSnapshotRoundTripOnDisk(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fillStore(t, s, 10, "fcc")
	if _, err := s.Partials(); err != nil { // force the build so Close persists it
		t.Fatal(err)
	}
	want := enginetest.OracleJSON(t, s.Scan, "")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, partialsName)); err != nil {
		t.Fatalf("Close did not persist %s: %v", partialsName, err)
	}

	ro, err := Open(dir, Options{ReadOnly: true, Telemetry: telemetry.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	if got := partialsReportBytes(t, ro, ""); !bytes.Equal(got, want) {
		t.Fatal("report after a reopen differs")
	}
	ro.Close()

	// Append past the snapshot: the reopened store's report must cover
	// the old rows and the new ones.
	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for i := 10; i < 14; i++ {
		if err := w.Append(testRow(i, "lte")); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := partialsReportBytes(t, w, ""), enginetest.OracleJSON(t, w.Scan, ""); !bytes.Equal(got, want) {
		t.Fatal("report after appends past the snapshot diverged from full scan")
	}
}

// TestPartialsSnapshotIsMarshalShaped: the snapshot a store streams
// out, digest by digest, is byte for byte the json.Marshal of its
// {Layout, Sessions} payload.
func TestPartialsSnapshotIsMarshalShaped(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fillStore(t, s, 8, "fcc")
	row := testRow(8, "lte")
	row.Arms, row.Predictions = nil, []float64{0.5} // an arm-less row
	if err := s.Append(row); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Partials(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, partialsName))
	if err != nil {
		t.Fatal(err)
	}
	payload, ok := openEnvelope(partialsMagic, raw)
	if !ok {
		t.Fatal("snapshot envelope does not verify")
	}
	var pf partialsFile
	if err := json.Unmarshal(payload, &pf); err != nil {
		t.Fatal(err)
	}
	if again, _ := json.Marshal(pf); !bytes.Equal(again, payload) {
		t.Fatalf("streamed payload is not json.Marshal's:\nstreamed: %s\nmarshal:  %s", payload, again)
	}
	if len(pf.Sessions) != 9 {
		t.Fatalf("snapshot holds %d digests, want 9", len(pf.Sessions))
	}
}

// TestPartialsSeriesEndpointHelpers: the store-level Partials expose
// the series the query tier serves, matching a straight engine
// aggregation of the same rows.
func TestPartialsSeriesMatchesAggregate(t *testing.T) {
	s, err := Create(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rows := fillStore(t, s, 8, "fcc")
	p, err := s.Partials()
	if err != nil {
		t.Fatal(err)
	}
	wantRep := enginetest.OracleJSON(t, s.Scan, "")
	gotRep, _ := json.Marshal(p.Report(""))
	if !bytes.Equal(gotRep, wantRep) {
		t.Fatal("partials report != aggregator report")
	}
	series := p.Series("", "bba-5s", engine.EstTruth, 0)
	if len(series) != len(rows) {
		t.Fatalf("truth series has %d values, want %d", len(series), len(rows))
	}
}
