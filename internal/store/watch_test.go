package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"veritas/internal/engine"
	"veritas/internal/engine/enginetest"
)

// frameFor builds the on-disk frame for one row, byte-identical to
// what Append writes — the torn-tail tests feed it in pieces.
func frameFor(t *testing.T, row engine.SessionRow) []byte {
	t.Helper()
	payload, err := json.Marshal(row)
	if err != nil {
		t.Fatal(err)
	}
	frame := make([]byte, frameHdrLen+len(row.ID)+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(row.ID)))
	binary.LittleEndian.PutUint32(frame[4:8], uint32(len(payload)))
	copy(frame[frameHdrLen:], row.ID)
	copy(frame[frameHdrLen+len(row.ID):], payload)
	binary.LittleEndian.PutUint32(frame[8:12], crc32.ChecksumIEEE(frame[frameHdrLen:]))
	return frame
}

// TestWatchTailsLiveWriter is the watch-mode core contract: a watch
// store over a directory another Store is appending to converges to
// the writer's content on Refresh, row by row, and its generation
// moves exactly once per tailed row.
func TestWatchTailsLiveWriter(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	ws, err := OpenWatch(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ws.Close()
	if !ws.IsWatch() {
		t.Fatal("OpenWatch store does not report IsWatch")
	}
	if ws.Len() != 0 {
		t.Fatalf("fresh watch store has %d rows", ws.Len())
	}

	for i := 0; i < 8; i++ {
		if err := w.Append(testRow(i, "fcc")); err != nil {
			t.Fatal(err)
		}
		before := ws.Generation()
		added, err := ws.Refresh()
		if err != nil {
			t.Fatalf("refresh after row %d: %v", i, err)
		}
		if added != 1 {
			t.Fatalf("refresh after row %d tailed %d rows, want 1", i, added)
		}
		if got := ws.Generation(); got != before+1 {
			t.Fatalf("generation moved %d -> %d for one row, want exactly one bump", before, got)
		}
		if ws.Len() != i+1 {
			t.Fatalf("watch store has %d rows after %d appends", ws.Len(), i+1)
		}
	}
	// No new rows: Refresh is a no-op and the generation holds still.
	gen := ws.Generation()
	if added, err := ws.Refresh(); err != nil || added != 0 {
		t.Fatalf("idle refresh: added=%d err=%v", added, err)
	}
	if ws.Generation() != gen {
		t.Fatal("idle refresh moved the generation")
	}
	if got, want := partialsReportBytes(t, ws, ""), enginetest.OracleJSON(t, w.Scan, ""); !bytes.Equal(got, want) {
		t.Fatalf("watch report differs from writer report\nwant: %s\ngot:  %s", want, got)
	}
}

// TestWatchMissingDirAndRotation: the watched directory may not exist
// yet, and once the writer rotates segments the sidecar fast path must
// ingest sealed segments without a frame scan.
func TestWatchMissingDirAndRotation(t *testing.T) {
	parent := t.TempDir()
	dir := filepath.Join(parent, "campaign.store")
	ws, err := OpenWatch(dir, Options{})
	if err != nil {
		t.Fatalf("OpenWatch on a missing dir: %v", err)
	}
	defer ws.Close()
	if added, err := ws.Refresh(); err != nil || added != 0 {
		t.Fatalf("refresh on missing dir: added=%d err=%v", added, err)
	}

	// Tiny segments force rotations (and sidecars on seal).
	w, err := Create(dir, Options{SegmentBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for i := 0; i < 20; i++ {
		if err := w.Append(testRow(i, "wifi")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ws.Refresh(); err != nil {
		t.Fatal(err)
	}
	if ws.Len() != 20 {
		t.Fatalf("watch store has %d rows, want 20", ws.Len())
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.vseg"))
	if len(segs) < 2 {
		t.Fatalf("segment size never forced a rotation (%d segments); the sidecar path went untested", len(segs))
	}
	if got, want := partialsReportBytes(t, ws, ""), enginetest.OracleJSON(t, w.Scan, ""); !bytes.Equal(got, want) {
		t.Fatal("watch report differs from writer report across rotations")
	}
}

// TestWatchTornTailStopsAndRetries: a half-written frame at the tail
// must not error, must not ingest, and must be picked up whole once
// the rest of the bytes land.
func TestWatchTornTailStopsAndRetries(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, segName(0))
	frame := frameFor(t, testRow(1, "fcc"))
	cut := frameHdrLen + 3 // header plus a sliver of the key
	if err := os.WriteFile(seg, append([]byte(segMagic), frame[:cut]...), 0o644); err != nil {
		t.Fatal(err)
	}

	ws, err := OpenWatch(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ws.Close()
	if ws.Len() != 0 {
		t.Fatalf("torn tail ingested %d rows", ws.Len())
	}
	if added, err := ws.Refresh(); err != nil || added != 0 {
		t.Fatalf("refresh over torn tail: added=%d err=%v", added, err)
	}

	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(frame[cut:]); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if added, err := ws.Refresh(); err != nil || added != 1 {
		t.Fatalf("refresh after completing the frame: added=%d err=%v", added, err)
	}
	if _, ok, err := ws.Get("fcc-001"); err != nil || !ok {
		t.Fatalf("completed row not served: ok=%v err=%v", ok, err)
	}
}

// TestWatchResetOnReplace: a store directory replaced wholesale (the
// dispatch fold does exactly this) must reset the watch view to the
// new content and keep the generation moving forward.
func TestWatchResetOnReplace(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fillStore(t, w, 5, "fcc")
	w.Close()

	ws, err := OpenWatch(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ws.Close()
	if ws.Len() != 5 {
		t.Fatalf("watch sees %d rows, want 5", ws.Len())
	}
	genBefore := ws.Generation()

	// Replace the directory with a smaller store: segment zero shrinks,
	// which only a reset can explain.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	w2, err := Create(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fillStore(t, w2, 2, "lte")
	defer w2.Close()

	if _, err := ws.Refresh(); err != nil {
		t.Fatal(err)
	}
	if ws.Len() != 2 {
		t.Fatalf("after replace watch sees %d rows, want 2", ws.Len())
	}
	if ws.Generation() <= genBefore {
		t.Fatalf("generation did not advance across the reset: %d -> %d", genBefore, ws.Generation())
	}
	if got, want := partialsReportBytes(t, ws, ""), enginetest.OracleJSON(t, w2.Scan, ""); !bytes.Equal(got, want) {
		t.Fatal("post-replace watch report differs from the new store's")
	}
}
