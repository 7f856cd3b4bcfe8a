package store

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"veritas/internal/engine"
	"veritas/internal/engine/enginetest"
	"veritas/internal/telemetry"
)

// partialsFile is the JSON payload of a partials snapshot as
// json.Marshal shapes it: what encodePartials writes one digest at a
// time.
type partialsFile struct {
	Layout   []partialsLayoutSeg
	Sessions []engine.PartialSession
}

// copyFixture copies testdata/<name> into a temp dir, so a test may
// open it without ever writing into the checked-in bytes.
func copyFixture(t testing.TB, name string) string {
	t.Helper()
	src := filepath.Join("testdata", name)
	dst := t.TempDir()
	files, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		b, err := os.ReadFile(filepath.Join(src, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, f.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestStoreWrittenByPR18 is the on-disk compatibility pin for JSON rows.
// testdata/store_pr18 was written by the commit before the codecs moved
// into frame.go (SegmentBytes 4096, so seg-00000 is sealed; six appends
// of five sessions, lte-001 overwritten; closed cleanly, so both
// segments carry sidecars and partials.vagg covers every row). Its
// sidecars are the JSON-era VSIDX1 kind, which this build walks past and
// a writable open rewrites as binary VSIDX2 ones; its snapshot is never
// read; its report, folded from the rows, and its segments and snapshot
// must come through unchanged — every encoder reproduces their bytes
// exactly. Its rows are JSON: this build reads them and no longer writes
// them, so their reproduction goes through the test-only JSON encoder.
func TestStoreWrittenByPR18(t *testing.T) {
	checkFixtureStore(t, "store_pr18", `{"seed":18, "sessions":5}`, func(dst []byte, row engine.SessionRow) ([]byte, error) {
		payload, err := encodeRowJSON(row)
		return append(dst, payload...), err
	})
}

// TestStoreWrittenByPR21 is the same pin for binary rows.
// testdata/store_pr21 holds the rows of store_pr18 as the commit that
// introduced the binary payload wrote them: the six frames of the PR 18
// fixture, decoded and appended in frame order under SegmentBytes 1200
// (three rows seal seg-00000), Partials built before the first append,
// closed cleanly; campaign.json and shard.json copied over.
func TestStoreWrittenByPR21(t *testing.T) {
	checkFixtureStore(t, "store_pr21", `{"seed":18, "sessions":5}`, encodeRow)
}

// checkFixtureStore opens a copy of a two-segment, five-session, shard
// 0/1 fixture with JSON-era sidecars and pins the way up to binary
// ones: a read-only open walks both segments and folds the report from
// the rows, not from the fixture's partials.vagg; a writable open and
// Close leave two binary sidecars and every other file as it was; the next read-only open takes both segments from
// those sidecars and reports the same bytes. Segments and the snapshot
// re-encode byte for byte; appendRow is the row encoder of the
// fixture's era.
func checkFixtureStore(t *testing.T, name, campaign string, appendRow func([]byte, engine.SessionRow) ([]byte, error)) {
	dir := copyFixture(t, name)
	if n, err := VerifyShard(dir, 0, 1, [][]byte{[]byte(campaign)}); err != nil || n != 5 {
		t.Fatalf("VerifyShard = (%d, %v), want 5 sessions of shard 0/1", n, err)
	}
	readOnly := func(wantLoaded, wantScanned int) []byte {
		t.Helper()
		s, err := Open(dir, Options{ReadOnly: true, Telemetry: telemetry.NewRegistry()})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if loaded, scanned := s.SidecarStats(); loaded != wantLoaded || scanned != wantScanned {
			t.Errorf("SidecarStats = (%d loaded, %d scanned), want (%d, %d)", loaded, scanned, wantLoaded, wantScanned)
		}
		got, want := partialsReportBytes(t, s, ""), enginetest.OracleJSON(t, s.Scan, "")
		if !bytes.Equal(got, want) {
			t.Errorf("report differs from the oracle over the rows:\n got %s\nwant %s", got, want)
		}
		if folds, rebuilds := s.met.partialFolds.Value(), s.met.partialRebuilds.Value(); folds != 5 || rebuilds != 1 {
			t.Errorf("partial folds = %d, rebuilds = %d; want the five indexed rows folded in one build", folds, rebuilds)
		}
		return got
	}
	before := readOnly(0, 2) // the fixture's sidecars are JSON: both segments walked

	// Segments: decode every frame and row, encode them again.
	for num := 0; num < 2; num++ {
		want, err := os.ReadFile(filepath.Join(dir, segName(num)))
		if err != nil {
			t.Fatal(err)
		}
		got := []byte(segMagic)
		end, err := walkFrames(bytes.NewReader(want), int64(len(segMagic)), int64(len(want)), func(_ int64, key, payload []byte) error {
			row, err := decodeRow(payload)
			if err != nil {
				return err
			}
			if row.ID != string(key) {
				t.Errorf("%s: frame keyed %q holds row %q", segName(num), key, row.ID)
			}
			again, err := appendRow(nil, row)
			got = appendFrame(got, row.ID, again)
			return err
		})
		if err != nil || end != int64(len(want)) {
			t.Fatalf("%s: walk ended at %d of %d (err %v)", segName(num), end, len(want), err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: re-encoding its decoded rows does not reproduce the file", segName(num))
		}
	}

	// The snapshot: open, decode the payload, encode and seal it again.
	want, err := os.ReadFile(filepath.Join(dir, partialsName))
	if err != nil {
		t.Fatal(err)
	}
	payload, ok := openEnvelope(partialsMagic, want)
	if !ok {
		t.Fatalf("%s: envelope does not verify", partialsName)
	}
	var snap partialsFile
	if err := json.Unmarshal(payload, &snap); err != nil {
		t.Fatalf("%s: %v", partialsName, err)
	}
	again, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sealEnvelope(partialsMagic, again), want) {
		t.Errorf("%s: re-sealing its decoded payload does not reproduce the file", partialsName)
	}

	// A writable open heals the sidecars and touches nothing else.
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for _, file := range []string{segName(0), segName(1), partialsName, CampaignMetaFile, ShardMetaFile} {
		got, err := os.ReadFile(filepath.Join(dir, file))
		if err != nil {
			t.Fatal(err)
		}
		if want, err := os.ReadFile(filepath.Join("testdata", name, file)); err != nil || !bytes.Equal(got, want) {
			t.Errorf("%s changed under a writable open and Close (read err %v)", file, err)
		}
	}
	idx := sidecarPaths(t, dir)
	if len(idx) != 2 {
		t.Fatalf("a writable open and Close left %d sidecars, want 2", len(idx))
	}
	for num, p := range idx {
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		payload, ok := openEnvelope(sidecarMagic, raw)
		if !ok {
			t.Fatalf("%s is not a %q sidecar", filepath.Base(p), sidecarMagic)
		}
		if _, entries, err := decodeSidecar(payload, num); err != nil || len(entries) == 0 {
			t.Errorf("%s: %d entries (err %v)", filepath.Base(p), len(entries), err)
		}
	}

	if after := readOnly(2, 0); !bytes.Equal(after, before) {
		t.Errorf("the report over the healed sidecars differs from the walked one:\n got %s\nwant %s", after, before)
	}
}

// TestBinaryRowsAppendedBehindJSONRows: a JSON-era store reopened
// writable keeps its newest segment active, so the rows this build
// appends land — binary — behind JSON frames in one file. Every read
// path must take the segment as it comes.
func TestBinaryRowsAppendedBehindJSONRows(t *testing.T) {
	dir := copyFixture(t, "store_pr18")
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Partials(); err != nil { // folded from the rows; the appends fold live
		t.Fatal(err)
	}
	old := s.Keys()
	added := []engine.SessionRow{testRow(7, "wifi"), testRow(1, "lte"), testRow(8, "fcc")} // lte-001 overwritten again
	for _, row := range added {
		if err := s.Append(row); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if n := len(segmentPaths(t, dir)); n != 2 {
		t.Fatalf("store has %d segments, want the appends inside seg-00001", n)
	}
	var tags []byte
	seg, err := os.ReadFile(filepath.Join(dir, segName(1)))
	if err != nil {
		t.Fatal(err)
	}
	if end, _ := walkFrames(bytes.NewReader(seg), int64(len(segMagic)), int64(len(seg)), func(_ int64, _, payload []byte) error {
		tags = append(tags, payload[0])
		return nil
	}); end != int64(len(seg)) || string(tags) != "{{{\x01\x01\x01" {
		t.Fatalf("seg-00001 holds payload tags %q (walk ended at %d of %d), want three JSON rows then three binary ones", tags, end, len(seg))
	}

	check := func(t *testing.T, s *Store) {
		t.Helper()
		if s.Len() != len(old)+2 {
			t.Errorf("Len = %d, want %d", s.Len(), len(old)+2)
		}
		for _, want := range added {
			if got, ok, err := s.Get(want.ID); !ok || err != nil || !reflect.DeepEqual(got, want) {
				t.Errorf("Get(%s) = %+v (ok %v, err %v), want the appended row", want.ID, got, ok, err)
			}
		}
		for _, id := range old {
			if row, ok, err := s.Get(id); !ok || err != nil || row.ID != id {
				t.Errorf("Get(%s): ok=%v err=%v", id, ok, err)
			}
		}
		if got, want := partialsReportBytes(t, s, ""), enginetest.OracleJSON(t, s.Scan, ""); !bytes.Equal(got, want) {
			t.Errorf("partials report differs from the oracle over Scan:\n got %s\nwant %s", got, want)
		}
		if got := s.Scenarios(); !reflect.DeepEqual(got, []ScenarioInfo{{"fcc", 4}, {"lte", 2}, {"wifi", 1}}) {
			t.Errorf("Scenarios = %+v", got)
		}
	}
	t.Run("sidecars and snapshot", func(t *testing.T) {
		s, err := Open(dir, Options{ReadOnly: true})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		check(t, s)
	})
	t.Run("frame scan and rebuild", func(t *testing.T) {
		for _, p := range append(sidecarPaths(t, dir), filepath.Join(dir, partialsName)) {
			if err := os.Remove(p); err != nil {
				t.Fatal(err)
			}
		}
		s, err := Open(dir, Options{ReadOnly: true})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		check(t, s)
	})
	t.Run("watch tail", func(t *testing.T) {
		s, err := OpenWatch(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		check(t, s)
	})
}

// TestFoldTakesJSONAndBinaryShards: a fleet upgraded shard by shard
// hands Fold stores of both eras; the folded corpus must not depend on
// which shard was written by whom.
func TestFoldTakesJSONAndBinaryShards(t *testing.T) {
	rows := campaignRows(t)
	even, odd := []engine.SessionRow{rows[0], rows[2]}, []engine.SessionRow{rows[1], rows[3]}
	binaryShard := func(dir string, index int, rows []engine.SessionRow) string {
		s, err := Create(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range rows {
			if err := s.Append(row); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if err := WriteShardMeta(dir, ShardMeta{Index: index, Count: 2}); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	jsonShard := func(dir string, index int, rows []engine.SessionRow) string {
		writeJSONStore(t, dir, rows...)
		if err := WriteShardMeta(dir, ShardMeta{Index: index, Count: 2}); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	fold := func(srcs ...string) (report []byte, files map[string][]byte) {
		dst := filepath.Join(t.TempDir(), "folded")
		if n, err := Fold(dst, Options{}, srcs...); err != nil || n != 4 {
			t.Fatalf("Fold = (%d, %v), want 4 sessions", n, err)
		}
		s, err := Open(dst, Options{ReadOnly: true})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		files = make(map[string][]byte)
		for _, p := range append(segmentPaths(t, dst), sidecarPaths(t, dst)...) {
			b, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			files[filepath.Base(p)] = b
		}
		return partialsReportBytes(t, s, ""), files
	}
	tmp := t.TempDir()
	wantReport, wantFiles := fold(binaryShard(filepath.Join(tmp, "b0"), 0, even), binaryShard(filepath.Join(tmp, "b1"), 1, odd))
	for _, mix := range []struct {
		name string
		srcs []string
	}{
		{"JSON shard 0", []string{jsonShard(filepath.Join(tmp, "j0"), 0, even), filepath.Join(tmp, "b1")}},
		{"JSON shard 1", []string{filepath.Join(tmp, "b0"), jsonShard(filepath.Join(tmp, "j1"), 1, odd)}},
		{"both JSON", []string{filepath.Join(tmp, "j0"), filepath.Join(tmp, "j1")}},
	} {
		gotReport, gotFiles := fold(mix.srcs...)
		if !bytes.Equal(gotReport, wantReport) {
			t.Errorf("%s: folded report differs from the all-binary fold:\n got %s\nwant %s", mix.name, gotReport, wantReport)
		}
		if !reflect.DeepEqual(gotFiles, wantFiles) {
			t.Errorf("%s: the folded store's segments and sidecars differ from the all-binary fold's", mix.name)
		}
	}
}
