package serve

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"veritas/internal/engine"
	"veritas/internal/engine/enginetest"
	"veritas/internal/store"
)

// TestRowsWithRetiredCacheCountersStillServe is the on-disk half of the
// backward-compatibility rule: rows written before SessionRow lost its
// CacheHits/CacheMisses counters (testdata/rows_pr16.jsonl holds two
// payloads exactly as that version marshalled them) are framed by hand
// — per the package store format comment, not through Append — into a
// segment that must open, scan, fold and serve byte-identically to the
// same rows written today. It fails the day row decoding turns strict
// (DisallowUnknownFields) or the frame layout moves.
func TestRowsWithRetiredCacheCountersStillServe(t *testing.T) {
	f, err := os.Open(filepath.Join("testdata", "rows_pr16.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	oldDir, newDir := t.TempDir(), t.TempDir()
	cur, err := store.Create(newDir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	seg := []byte("VSTORE1\n")
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		payload := sc.Bytes()
		if !bytes.Contains(payload, []byte(`"CacheHits":`)) || !bytes.Contains(payload, []byte(`"CacheMisses":`)) {
			t.Fatalf("testdata row lacks the retired keys: %s", payload)
		}
		var row engine.SessionRow
		if err := json.Unmarshal(payload, &row); err != nil {
			t.Fatal(err)
		}
		if err := cur.Append(row); err != nil {
			t.Fatal(err)
		}
		body := append([]byte(row.ID), payload...)
		seg = binary.LittleEndian.AppendUint32(seg, uint32(len(row.ID)))
		seg = binary.LittleEndian.AppendUint32(seg, uint32(len(payload)))
		seg = binary.LittleEndian.AppendUint32(seg, crc32.ChecksumIEEE(body))
		seg = append(seg, body...)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if err := cur.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(oldDir, "seg-00000.vseg"), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	if b, err := os.ReadFile(filepath.Join(newDir, "seg-00000.vseg")); err != nil || bytes.Contains(b, []byte("CacheHits")) {
		t.Fatalf("current-format segment still carries the retired keys (read err %v)", err)
	}

	// Fold the hand-framed store too: the merge path re-reads and
	// re-appends every row.
	foldDir := filepath.Join(t.TempDir(), "folded")
	if n, err := store.Fold(foldDir, store.Options{}, oldDir); err != nil || n != 2 {
		t.Fatalf("Fold of the old-format store: n=%d err=%v", n, err)
	}

	scan := func(dir string) ([]engine.SessionRow, []byte) {
		t.Helper()
		st, err := store.Open(dir, store.Options{ReadOnly: true})
		if err != nil {
			t.Fatalf("open %s: %v", dir, err)
		}
		t.Cleanup(func() { st.Close() })
		var rows []engine.SessionRow
		if err := st.Scan(func(r engine.SessionRow) error { rows = append(rows, r); return nil }); err != nil {
			t.Fatalf("scan %s: %v", dir, err)
		}
		code, body := get(t, New(st), "/v1/report")
		if code != http.StatusOK {
			t.Fatalf("/v1/report over %s: %d %s", dir, code, body)
		}
		if oracle := enginetest.OracleJSON(t, st.Scan, ""); !bytes.Equal(body, oracle) {
			t.Errorf("%s: /v1/report differs from the oracle over the scanned rows\nwant: %s\ngot:  %s", dir, oracle, body)
		}
		return rows, body
	}
	wantRows, wantReport := scan(newDir)
	if len(wantRows) != 2 {
		t.Fatalf("current-format store holds %d rows, want 2", len(wantRows))
	}
	for _, dir := range []string{oldDir, foldDir} {
		rows, report := scan(dir)
		if !reflect.DeepEqual(rows, wantRows) {
			t.Errorf("%s: scanned rows differ from the current-format store", dir)
		}
		if !bytes.Equal(report, wantReport) {
			t.Errorf("%s: /v1/report differs from the current-format store\nwant: %s\ngot:  %s", dir, wantReport, report)
		}
	}
}
