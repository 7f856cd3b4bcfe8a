package store

// Segment sidecar indexes. Reopening a store used to mean re-scanning
// every frame of every segment to rebuild the resident key index —
// O(total bytes), painful for a folded million-session corpus. A
// sidecar ("seg-00000.vidx" next to "seg-00000.vseg") persists one
// segment's slice of the index, so Open rebuilds the index in
// O(segments): read each sidecar, spot-check the final frame, done.
//
// Sidecars are strictly an optimization, never a source of truth:
//
//   - A sidecar is trusted only if its own checksum verifies, its
//     recorded segment size matches the file on disk, and the final
//     frame it points at parses, passes the frame CRC and holds a row
//     format this build knows (so a store from a newer build is refused
//     by the walk at Open, not at the first Get). Anything else —
//     missing, truncated, bit-flipped, stale — falls back to the full
//     frame walk of that segment (indexSegment), so stores written
//     before sidecars existed, or whose sidecars were lost, open
//     unchanged.
//   - Frame CRCs are still verified on every read, so a sidecar can
//     misdirect a lookup at worst into a loud checksum error, never
//     into silently wrong data.
//   - Only the last frame is spot-checked, so a sidecar stands in for
//     the walk only on the machine that wrote the segment, where the
//     crash model is a torn or flipped tail. Sidecars never travel:
//     Ship leaves them behind and Receive refuses them, so a store that
//     crossed machines is walked frame by frame when it is verified.
//
// Sidecars are written when a segment seals (append rotation), when
// the store closes (covering the active segment), and re-written to
// heal after a writable Open had to walk a sealed segment. All writes
// are write-then-rename and best-effort: a failed sidecar write
// degrades the next Open to a walk, it never fails the append path.
//
// On-disk format: the checksummed envelope of frame.go under the magic
// "VSIDX1\n\x00", whose payload is the JSON
// {SegmentSize, Entries:[{Key,Scenario,Index,Off}]}.
//
// Entries are in frame (append) order, so folding them into the key
// index reproduces the walk's last-write-wins semantics exactly.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

const (
	sidecarMagic  = "VSIDX1\n\x00"
	sidecarSuffix = ".vidx"
)

func sidecarName(n int) string { return fmt.Sprintf("%s%05d%s", segPrefix, n, sidecarSuffix) }

// sidecarEntry is one frame's slot in a serialized sidecar.
type sidecarEntry struct {
	Key      string
	Scenario string
	Index    int
	Off      int64
}

// sidecarFile is the JSON payload of a sidecar.
type sidecarFile struct {
	// SegmentSize is the segment's byte size when the sidecar was
	// written; a mismatch on disk marks the sidecar stale.
	SegmentSize int64
	Entries     []sidecarEntry
}

// writeSidecar persists the index slice for segment num. Errors are
// returned for tests but callers treat them as best-effort.
func (s *Store) writeSidecar(num int, segSize int64, entries []entry) error {
	sf := sidecarFile{SegmentSize: segSize, Entries: make([]sidecarEntry, len(entries))}
	for i, e := range entries {
		sf.Entries[i] = sidecarEntry{Key: e.key, Scenario: e.scenario, Index: e.index, Off: e.off}
	}
	payload, err := json.Marshal(sf)
	if err != nil {
		return fmt.Errorf("store: sidecar: %w", err)
	}
	if err := writeFileAtomic(filepath.Join(s.dir, sidecarName(num)), sealEnvelope(sidecarMagic, payload)); err != nil {
		return fmt.Errorf("store: sidecar: %w", err)
	}
	return nil
}

// tryLoadSidecar loads segment num's index slice from its sidecar,
// returning ok=false (fall back to the frame walk) on any doubt: missing
// or unreadable file, bad magic, bad checksum, a recorded size other
// than size, the segment's (read through seg), or a final frame that
// does not verify.
func (s *Store) tryLoadSidecar(num int, seg io.ReaderAt, size int64) ([]entry, bool) {
	raw, err := os.ReadFile(filepath.Join(s.dir, sidecarName(num)))
	if err != nil {
		return nil, false
	}
	payload, ok := openEnvelope(sidecarMagic, raw)
	if !ok {
		return nil, false
	}
	var sf sidecarFile
	if json.Unmarshal(payload, &sf) != nil {
		return nil, false
	}
	if sf.SegmentSize != size {
		return nil, false // stale: the segment grew or was truncated since
	}
	if len(sf.Entries) == 0 {
		// An empty segment is exactly its magic header.
		if sf.SegmentSize != int64(len(segMagic)) {
			return nil, false
		}
		return nil, true
	}
	// Spot-check the tail: the final frame must parse, end exactly at
	// the recorded segment size, pass its CRC and hold a row this build
	// reads. This catches the crash-model corruptions (torn or flipped
	// segment tails) without walking the whole segment.
	last := sf.Entries[len(sf.Entries)-1]
	key, tail, _, err := readFrameAt(seg, last.Off, size, nil)
	if err != nil || last.Off+frameHdrLen+int64(len(key)+len(tail)) != size {
		return nil, false
	}
	if _, _, err := peekRow(tail); err != nil {
		return nil, false
	}
	entries := make([]entry, len(sf.Entries))
	for i, e := range sf.Entries {
		if e.Key == "" || e.Off < int64(len(segMagic)) || e.Off >= sf.SegmentSize {
			return nil, false
		}
		entries[i] = entry{key: e.Key, scenario: e.Scenario, index: e.Index, seg: num, off: e.Off}
	}
	return entries, true
}
