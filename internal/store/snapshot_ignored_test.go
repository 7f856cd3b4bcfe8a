package store_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"veritas/internal/engine/enginetest"
	"veritas/internal/serve"
	"veritas/internal/store"
)

// TestNoSnapshotReachesAReport: a store gets its partial aggregates one
// way, by folding its rows. A partials.vagg whose checksum verifies and
// whose layout matches the segments, but whose digests disagree with
// the rows, must reach no report: not after a read-only Open, a
// writable Open or OpenWatch, and not in the served /v1/report body.
// Each must equal the oracle over the rows. A corrupt snapshot is the
// easy case of the same rule.
func TestNoSnapshotReachesAReport(t *testing.T) {
	dir := t.TempDir()
	s, err := store.Create(dir, store.Options{SegmentBytes: 1200})
	if err != nil {
		t.Fatal(err)
	}
	for i, scen := range []string{"fcc", "lte", "wifi", "fcc", "lte", "wifi", "fcc"} {
		if err := s.Append(store.TestRow(i, scen)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Append(store.TestRow(1, "lte")); err != nil { // one session overwritten
		t.Fatal(err)
	}
	if _, err := s.Partials(); err != nil { // so that Close writes the snapshot
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.vseg")); len(segs) < 2 {
		t.Fatalf("the store has %d segment(s), want several", len(segs))
	}
	snap := filepath.Join(dir, "partials.vagg")
	good, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	lie := store.LieInSnapshot(t, dir, 0.5)

	report := func(t *testing.T, st *store.Store) []byte {
		t.Helper()
		p, err := st.Partials()
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(p.Report(""))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	served := func(t *testing.T, st *store.Store) []byte {
		t.Helper()
		rec := httptest.NewRecorder()
		serve.New(st).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/report", nil))
		body, _ := io.ReadAll(rec.Result().Body)
		if rec.Code != http.StatusOK {
			t.Fatalf("/v1/report: HTTP %d %s", rec.Code, body)
		}
		return body
	}
	for _, c := range []struct {
		name string
		open func() (*store.Store, error)
		body func(*testing.T, *store.Store) []byte
	}{
		{"read-only Open", func() (*store.Store, error) { return store.Open(dir, store.Options{ReadOnly: true}) }, report},
		{"writable Open", func() (*store.Store, error) { return store.Open(dir, store.Options{}) }, report},
		{"OpenWatch", func() (*store.Store, error) { return store.OpenWatch(dir, store.Options{}) }, report},
		{"served /v1/report", func() (*store.Store, error) { return store.Open(dir, store.Options{ReadOnly: true}) }, served},
	} {
		for _, snapshot := range []struct {
			name string
			raw  []byte
		}{
			{"lying", lie},
			{"truncated", good[:len(good)/2]},
		} {
			t.Run(c.name+"/"+snapshot.name, func(t *testing.T) {
				if err := os.WriteFile(snap, snapshot.raw, 0o644); err != nil {
					t.Fatal(err)
				}
				st, err := c.open()
				if err != nil {
					t.Fatal(err)
				}
				defer st.Close()
				got, want := c.body(t, st), enginetest.OracleJSON(t, st.Scan, "")
				if !bytes.Equal(got, want) {
					t.Errorf("report differs from the oracle over the rows:\n got %s\nwant %s", got, want)
				}
			})
		}
	}
}
