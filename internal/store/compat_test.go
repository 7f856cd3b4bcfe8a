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
// segments carry sidecars and partials.vagg covers every row). It must
// open through the fast paths and report what its rows say — and every
// encoder must reproduce its bytes exactly, which is what makes a
// sidecar or snapshot written today readable by that commit. Its rows
// are JSON: this build reads them and no longer writes them, so their
// reproduction goes through the test-only JSON encoder.
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
// 0/1 fixture and pins its report, its fast paths and its bytes;
// appendRow is the row encoder of the fixture's era.
func checkFixtureStore(t *testing.T, name, campaign string, appendRow func([]byte, engine.SessionRow) ([]byte, error)) {
	dir := copyFixture(t, name)
	if n, err := VerifyShard(dir, 0, 1, [][]byte{[]byte(campaign)}); err != nil || n != 5 {
		t.Fatalf("VerifyShard = (%d, %v), want 5 sessions of shard 0/1", n, err)
	}
	s, err := Open(dir, Options{ReadOnly: true, Telemetry: telemetry.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if loaded, scanned := s.SidecarStats(); loaded != 2 || scanned != 0 {
		t.Errorf("SidecarStats = (%d loaded, %d scanned), want both segments from their sidecars", loaded, scanned)
	}
	if got, want := partialsReportBytes(t, s, ""), enginetest.OracleJSON(t, s.Scan, ""); !bytes.Equal(got, want) {
		t.Errorf("report from the restored snapshot differs from the oracle over the rows:\n got %s\nwant %s", got, want)
	}
	if loads, rebuilds := s.met.partialSnapLoads.Value(), s.met.partialRebuilds.Value(); loads != 1 || rebuilds != 0 {
		t.Errorf("snapshot loads = %d, rebuilds = %d; want the partials restored from partials.vagg", loads, rebuilds)
	}

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

	// Envelopes: open, decode the payload, encode and seal it again.
	reseal := func(name, magic string, into any) {
		t.Helper()
		want, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		payload, ok := openEnvelope(magic, want)
		if !ok {
			t.Fatalf("%s: envelope does not verify", name)
		}
		if err := json.Unmarshal(payload, into); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		again, err := json.Marshal(into)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(sealEnvelope(magic, again), want) {
			t.Errorf("%s: re-sealing its decoded payload does not reproduce the file", name)
		}
	}
	reseal(sidecarName(0), sidecarMagic, new(sidecarFile))
	reseal(sidecarName(1), sidecarMagic, new(sidecarFile))
	reseal(partialsName, partialsMagic, new(partialsFile))
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
	if _, err := s.Partials(); err != nil { // restored from the snapshot; the appends fold live
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
