package store

// Tests for the store-level partial-aggregate layer: lazy build,
// incremental fold on append, snapshot persistence, and snapshot
// mistrust (corruption, layout drift).

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
// reopen restores it (no full rescan), and a delta of rows appended
// after the snapshot folds in on top.
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
		t.Fatal("report from restored snapshot differs")
	}
	if loads := ro.met.partialSnapLoads.Value(); loads != 1 {
		t.Errorf("snapshot loads = %d, want 1 (restore did not use the snapshot)", loads)
	}
	ro.Close()

	// Append past the snapshot: restore must cover the prefix and the
	// delta must fold from the frames.
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
		t.Fatal("snapshot + delta report diverged from full scan")
	}
}

// TestPartialsCorruptSnapshotRebuilds: a corrupt or stale partials.vagg
// must be ignored (full rebuild), never trusted, never fatal.
func TestPartialsCorruptSnapshotRebuilds(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fillStore(t, s, 6, "wifi")
	if _, err := s.Partials(); err != nil {
		t.Fatal(err)
	}
	want := enginetest.OracleJSON(t, s.Scan, "")
	s.Close()

	path := filepath.Join(dir, partialsName)
	for name, corrupt := range map[string]func([]byte) []byte{
		"flipped byte": func(b []byte) []byte {
			b[len(b)/2] ^= 0xff
			return b
		},
		"truncated": func(b []byte) []byte { return b[:len(b)/2] },
		"garbage":   func([]byte) []byte { return []byte("not a snapshot") },
	} {
		good, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, corrupt(append([]byte(nil), good...)), 0o644); err != nil {
			t.Fatal(err)
		}
		ro, err := Open(dir, Options{ReadOnly: true, Telemetry: telemetry.NewRegistry()})
		if err != nil {
			t.Fatalf("%s: open: %v", name, err)
		}
		if got := partialsReportBytes(t, ro, ""); !bytes.Equal(got, want) {
			t.Fatalf("%s: report over corrupt snapshot differs from full scan", name)
		}
		if loads := ro.met.partialSnapLoads.Value(); loads != 0 {
			t.Errorf("%s: corrupt snapshot was trusted (loads=%d)", name, loads)
		}
		ro.Close()
		if err := os.WriteFile(path, good, 0o644); err != nil {
			t.Fatal(err)
		}
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
