package store

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

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

// TestStoreWrittenByPR18 is the on-disk compatibility pin.
// testdata/store_pr18 was written by the commit before the codecs moved
// into frame.go (SegmentBytes 4096, so seg-00000 is sealed; six appends
// of five sessions, lte-001 overwritten; closed cleanly, so both
// segments carry sidecars and partials.vagg covers every row). It must
// open through the fast paths and report what its rows say — and every
// encoder must reproduce its bytes exactly, which is what makes a store
// written today openable by that commit.
func TestStoreWrittenByPR18(t *testing.T) {
	dir := copyFixture(t, "store_pr18")
	if n, err := VerifyShard(dir, 0, 1, [][]byte{[]byte(`{"seed":18, "sessions":5}`)}); err != nil || n != 5 {
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
			again, err := encodeRow(row)
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
