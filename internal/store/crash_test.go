package store

// The crash harness: sidecar-index behavior under clean and torn
// shutdowns, and a seeded fuzz loop that randomly truncates or
// bit-flips segment tails and sidecar files, then proves reopen
// recovers exactly the committed frame prefix — the store's crash
// contract, extended from the single torn-tail case.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"veritas/internal/engine"
)

// segmentPaths returns the store's segment files in segment order.
func segmentPaths(t testing.TB, dir string) []string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, segPrefix+"*"+segSuffix))
	if err != nil {
		t.Fatal(err)
	}
	return segs
}

func sidecarPaths(t *testing.T, dir string) []string {
	t.Helper()
	idx, err := filepath.Glob(filepath.Join(dir, segPrefix+"*"+sidecarSuffix))
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

func TestSidecarFastReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(dir, Options{SegmentBytes: 2 << 10})
	if err != nil {
		t.Fatal(err)
	}
	rows := fillStore(t, s, 40, "lte")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	segs := segmentPaths(t, dir)
	if len(segs) < 3 {
		t.Fatalf("test needs >= 3 segments, got %d", len(segs))
	}
	if got := len(sidecarPaths(t, dir)); got != len(segs) {
		t.Fatalf("clean close left %d sidecars for %d segments", got, len(segs))
	}

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	fromSidecar, scanned := s2.SidecarStats()
	if scanned != 0 || fromSidecar != len(segs) {
		t.Errorf("clean reopen scanned %d segments (sidecar-loaded %d), want a scan-free open", scanned, fromSidecar)
	}
	if s2.Len() != 40 {
		t.Fatalf("sidecar reopen Len = %d, want 40", s2.Len())
	}
	for _, want := range rows {
		got, ok, err := s2.Get(want.ID)
		if err != nil || !ok || !reflect.DeepEqual(got, want) {
			t.Fatalf("sidecar-indexed Get(%s) diverged: ok=%v err=%v", want.ID, ok, err)
		}
	}
}

// TestSidecarFallbackAndHeal: deleting every sidecar degrades Open to
// the full scan (the pre-sidecar path — old stores still open), and a
// writable open heals the sealed segments' sidecars so the open after
// next is scan-free again.
func TestSidecarFallbackAndHeal(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(dir, Options{SegmentBytes: 2 << 10})
	if err != nil {
		t.Fatal(err)
	}
	fillStore(t, s, 40, "lte")
	s.Close()
	if n := len(segmentPaths(t, dir)); n < 3 {
		t.Fatalf("test needs >= 3 segments (sealed ones to heal), got %d", n)
	}
	for _, p := range sidecarPaths(t, dir) {
		if err := os.Remove(p); err != nil {
			t.Fatal(err)
		}
	}

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fromSidecar, scanned := s2.SidecarStats()
	if fromSidecar != 0 || scanned != len(segmentPaths(t, dir)) {
		t.Errorf("sidecar-less open: fromSidecar=%d scanned=%d", fromSidecar, scanned)
	}
	if s2.Len() != 40 {
		t.Fatalf("sidecar-less open Len = %d, want 40", s2.Len())
	}
	s2.Close()

	s3, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if _, scanned := s3.SidecarStats(); scanned != 0 {
		t.Errorf("healed store still scanned %d segments", scanned)
	}
}

// refScanKeys independently parses a segment file the way recovery
// does — intact frames from the start, stopping at the first torn or
// corrupt one — and returns the surviving keys in frame order. It is
// the test's own reader, so the recovery assertions do not depend on
// the code under test.
func refScanKeys(t *testing.T, path string) []string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < len(segMagic) || string(data[:len(segMagic)]) != segMagic {
		return nil
	}
	var keys []string
	off := len(segMagic)
	for off+frameHdrLen <= len(data) {
		keyLen := int(binary.LittleEndian.Uint32(data[off : off+4]))
		payloadLen := int(binary.LittleEndian.Uint32(data[off+4 : off+8]))
		sum := binary.LittleEndian.Uint32(data[off+8 : off+12])
		if keyLen == 0 || keyLen > maxKeyLen || payloadLen > maxPayloadLen {
			break
		}
		start, end := off+frameHdrLen, off+frameHdrLen+keyLen+payloadLen
		if end > len(data) {
			break
		}
		if crc32.ChecksumIEEE(data[start:end]) != sum {
			break
		}
		keys = append(keys, string(data[start:start+keyLen]))
		off = end
	}
	return keys
}

// lastFrameSpan returns the byte range of a segment's final intact
// frame, ok=false when the segment holds no frames.
func lastFrameSpan(t *testing.T, path string) (start, end int64, ok bool) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < len(segMagic) || string(data[:len(segMagic)]) != segMagic {
		return 0, 0, false
	}
	off := len(segMagic)
	for off+frameHdrLen <= len(data) {
		keyLen := int(binary.LittleEndian.Uint32(data[off : off+4]))
		payloadLen := int(binary.LittleEndian.Uint32(data[off+4 : off+8]))
		if keyLen == 0 || keyLen > maxKeyLen || payloadLen > maxPayloadLen {
			break
		}
		frameEnd := off + frameHdrLen + keyLen + payloadLen
		if frameEnd > len(data) {
			break
		}
		start, end, ok = int64(off), int64(frameEnd), true
		off = frameEnd
	}
	return start, end, ok
}

// copyStoreFiles clones a store directory's data files (segments and
// sidecars, not the LOCK) — a crash image taken while the writer still
// holds the directory.
func copyStoreFiles(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, segPrefix) {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

func flipByte(t *testing.T, path string, off int64) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	b := make([]byte, 1)
	if _, err := f.ReadAt(b, off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x41
	if _, err := f.WriteAt(b, off); err != nil {
		t.Fatal(err)
	}
}

// TestStoreCrashFuzz is the randomized crash contract: whatever
// combination of unclean shutdown, torn or bit-flipped segment tail,
// and missing, truncated or bit-flipped sidecar a store suffers,
// reopening recovers exactly the committed frame prefix — every intact
// record readable and byte-identical, every damaged one dropped — and
// the store stays appendable and cleanly reopenable afterwards.
func TestStoreCrashFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 30; iter++ {
		iter := iter
		t.Run(fmt.Sprintf("iter%02d", iter), func(t *testing.T) {
			dir := t.TempDir()
			s, err := Create(dir, Options{SegmentBytes: 1 << 10})
			if err != nil {
				t.Fatal(err)
			}
			n := 4 + rng.Intn(12)
			rows := fillStore(t, s, n, "fcc")
			byID := make(map[string]engine.SessionRow, n)
			for _, r := range rows {
				byID[r.ID] = r
			}
			if err := s.Sync(); err != nil {
				t.Fatal(err)
			}
			// Half the iterations crash (the image is taken before Close,
			// so the active segment has no sidecar); half shut down
			// cleanly and get corrupted at rest.
			target := dir
			if crash := rng.Intn(2) == 0; crash {
				target = copyStoreFiles(t, dir)
			}
			s.Close()

			segs := segmentPaths(t, target)
			if len(segs) < 2 {
				t.Fatalf("%d rows made %d segment(s); the contract covers sealed segments and their sidecars too", n, len(segs))
			}
			last := segs[len(segs)-1]
			switch rng.Intn(6) {
			case 0: // torn tail: truncate the last segment anywhere
				fi, err := os.Stat(last)
				if err != nil {
					t.Fatal(err)
				}
				if fi.Size() > 1 {
					if err := os.Truncate(last, fi.Size()-int64(1+rng.Intn(int(fi.Size()-1)))); err != nil {
						t.Fatal(err)
					}
				}
			case 1: // bit-flip inside the last frame of the last segment
				if start, end, ok := lastFrameSpan(t, last); ok {
					flipByte(t, last, start+rng.Int63n(end-start))
				}
			case 2, 3, 4: // sidecar damage: delete, truncate, or bit-flip
				if idx := sidecarPaths(t, target); len(idx) > 0 {
					victim := idx[rng.Intn(len(idx))]
					switch fi, err := os.Stat(victim); {
					case err != nil:
						t.Fatal(err)
					case rng.Intn(3) == 0:
						if err := os.Remove(victim); err != nil {
							t.Fatal(err)
						}
					case rng.Intn(2) == 0:
						if err := os.Truncate(victim, rng.Int63n(fi.Size())); err != nil {
							t.Fatal(err)
						}
					default:
						flipByte(t, victim, rng.Int63n(fi.Size()))
					}
				}
			case 5: // control: no corruption at all
			}

			// The committed prefix, computed by the test's own reader
			// over the damaged files.
			expect := make(map[string]bool)
			for _, seg := range segs {
				if _, err := os.Stat(seg); err != nil {
					continue
				}
				for _, k := range refScanKeys(t, seg) {
					expect[k] = true
				}
			}

			// Every open mode follows the one rule: before the writable
			// Open below cuts anything, a watcher indexes exactly the keys
			// a read-only Open recovers.
			ro, err := Open(target, Options{ReadOnly: true})
			if err != nil {
				t.Fatalf("read-only reopen after corruption: %v", err)
			}
			ws, err := OpenWatch(target, Options{})
			if err != nil {
				t.Fatalf("watch reopen after corruption: %v", err)
			}
			if got, want := ws.Keys(), ro.Keys(); !reflect.DeepEqual(got, want) {
				t.Fatalf("OpenWatch indexed %v, read-only Open %v", got, want)
			}
			ro.Close()
			ws.Close()

			s2, err := Open(target, Options{})
			if err != nil {
				t.Fatalf("reopen after corruption: %v", err)
			}
			if s2.Len() != len(expect) {
				t.Fatalf("recovered %d sessions, want the %d-frame committed prefix", s2.Len(), len(expect))
			}
			for _, r := range rows {
				got, ok, err := s2.Get(r.ID)
				if err != nil {
					t.Fatalf("Get(%s): %v", r.ID, err)
				}
				if ok != expect[r.ID] {
					t.Fatalf("Get(%s) ok=%v, want %v", r.ID, ok, expect[r.ID])
				}
				if ok && !reflect.DeepEqual(got, byID[r.ID]) {
					t.Fatalf("recovered row %s diverged from what was appended", r.ID)
				}
			}
			// Recovery leaves a working store: appends land and a further
			// reopen is clean.
			extra := testRow(1000+iter, "fcc")
			if err := s2.Append(extra); err != nil {
				t.Fatal(err)
			}
			if err := s2.Close(); err != nil {
				t.Fatal(err)
			}
			s3, err := Open(target, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer s3.Close()
			if s3.Recovered() != 0 {
				t.Errorf("second reopen still recovering %d bytes", s3.Recovered())
			}
			if got, ok, err := s3.Get(extra.ID); err != nil || !ok || !reflect.DeepEqual(got, extra) {
				t.Errorf("row appended after recovery lost: ok=%v err=%v", ok, err)
			}
		})
	}
}

// TestCorruptSealedSegmentIsOneError: a byte flipped inside a sealed
// segment whose sidecar is gone is corruption, not a torn tail, and
// every way of opening the store refuses it with the same error —
// writable and read-only Open, OpenWatch, VerifyShard — and leaves the
// segment as it found it. A watcher must not serve the frames before
// the flip as if they were the whole corpus.
func TestCorruptSealedSegmentIsOneError(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(dir, Options{SegmentBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	fillStore(t, s, 60, "fcc")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := WriteShardMeta(dir, ShardMeta{Index: 0, Count: 1}); err != nil {
		t.Fatal(err)
	}
	segs := segmentPaths(t, dir)
	if len(segs) < 2 {
		t.Fatalf("60 rows made %d segment(s); the case needs a sealed one", len(segs))
	}
	fi, err := os.Stat(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	flipByte(t, segs[0], fi.Size()/2)
	if err := os.Remove(filepath.Join(dir, sidecarName(0))); err != nil {
		t.Fatal(err)
	}
	damaged, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}

	_, want := Open(dir, Options{ReadOnly: true})
	if want == nil || !strings.Contains(want.Error(), "only the newest segment may be torn") {
		t.Fatalf("read-only Open = %v, want the sealed-segment corruption refused", want)
	}
	refused := func(what string, err error) {
		t.Helper()
		if err == nil || err.Error() != want.Error() {
			t.Errorf("%s = %v, want %v", what, err, want)
		}
	}
	ws, err := OpenWatch(dir, Options{})
	if err == nil {
		t.Errorf("OpenWatch serves %d of 60 sessions", ws.Len())
		_, err = ws.Refresh()
		ws.Close()
	}
	refused("OpenWatch", err)
	_, err = VerifyShard(dir, 0, 1, nil)
	refused("VerifyShard", err)
	w, err := Open(dir, Options{})
	if err == nil {
		w.Close()
	}
	refused("writable Open", err)
	if after, err := os.ReadFile(segs[0]); err != nil || !reflect.DeepEqual(after, damaged) {
		t.Errorf("a refusing open modified the corrupt segment (err %v)", err)
	}
	if _, err := os.Stat(filepath.Join(dir, sidecarName(0))); !os.IsNotExist(err) {
		t.Errorf("a refusing open wrote a sidecar for the corrupt segment (stat err %v)", err)
	}
}
