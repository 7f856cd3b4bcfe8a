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
// "VSIDX2\n\x00", whose payload is binary (appendSidecar / decodeSidecar
// in frame.go): the segment's size, then per frame its key, scenario,
// index and offset. Sidecars written before that payload was binary
// carry the magic "VSIDX1\n\x00" and a JSON payload; this build fails
// their magic check like any other doubtful sidecar and walks the
// segment; a writable open rewrites the sidecar in the new format (a
// sealed segment's at once, the newest one's at Close). Builds that know
// only the JSON sidecar walk a binary one the same way.
//
// Entries are in frame (append) order, so folding them into the key
// index reproduces the walk's last-write-wins semantics exactly.

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

const (
	sidecarMagic  = "VSIDX2\n\x00"
	sidecarSuffix = ".vidx"
)

func sidecarName(n int) string { return fmt.Sprintf("%s%05d%s", segPrefix, n, sidecarSuffix) }

// writeSidecar persists the index slice for segment num. Errors are
// returned for tests but callers treat them as best-effort.
func (s *Store) writeSidecar(num int, segSize int64, entries []entry) error {
	buf := appendSidecar(envelopeHead(sidecarMagic, 32*len(entries)), segSize, entries)
	if err := writeFileAtomic(filepath.Join(s.dir, sidecarName(num)), sealHead(sidecarMagic, buf)); err != nil {
		return fmt.Errorf("store: sidecar: %w", err)
	}
	return nil
}

// tryLoadSidecar loads segment num's index slice from its sidecar,
// returning ok=false (fall back to the frame walk) on any doubt: missing
// or unreadable file, bad magic, bad checksum, a payload that does not
// decode, a recorded size other than size, the segment's (read through
// seg), or a final frame that does not verify or does not hold the
// entry the sidecar records for it.
func (s *Store) tryLoadSidecar(num int, seg io.ReaderAt, size int64) ([]entry, bool) {
	raw, err := os.ReadFile(filepath.Join(s.dir, sidecarName(num)))
	if err != nil {
		return nil, false
	}
	payload, ok := openEnvelope(sidecarMagic, raw)
	if !ok {
		return nil, false
	}
	segSize, entries, err := decodeSidecar(payload, num)
	if err != nil || segSize != size {
		return nil, false // corrupt, or stale: the segment grew or was truncated since
	}
	if len(entries) == 0 {
		// An empty segment is exactly its magic header.
		return nil, size == int64(len(segMagic))
	}
	// Spot-check the tail: the final frame must parse, end exactly at
	// the recorded segment size, pass its CRC and hold the row the entry
	// names, in a format this build reads. This catches the crash-model
	// corruptions (torn or flipped segment tails) without walking the
	// whole segment.
	last := entries[len(entries)-1]
	key, tail, _, err := readFrameAt(seg, last.off, size, nil)
	if err != nil || last.off+frameHdrLen+int64(len(key)+len(tail)) != size || string(key) != last.key {
		return nil, false
	}
	if scen, idx, err := peekRow(tail); err != nil || scen != last.scenario || idx != last.index {
		return nil, false
	}
	return entries, true
}
