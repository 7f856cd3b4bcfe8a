package store

// Store shipping: the wire format a fleet agent uses to send a
// completed shard store to its dispatcher, and the verification the
// dispatcher runs before accepting it.
//
// A shipped store is a single stream:
//
//	8 bytes  magic "VSHIP1\n\x00"
//	per file (sorted by name, so the stream is deterministic):
//	  u32 nameLen | u64 size | u32 crc32(IEEE, content) | name | content
//	trailer:
//	  u32 0 (end of files) | u32 fileCount
//
// Only the files that *are* the store travel: campaign.json,
// shard.json, segments (seg-*.vseg) and their sidecar indexes
// (seg-*.vidx). The LOCK file is host-local state and never ships;
// stray temporaries are skipped. Receive verifies every frame's CRC
// and refuses path separators in names (an archive must not write
// outside its target directory), and VerifyShard then proves the
// received directory really is shard i of n of the expected campaign
// before the dispatcher accepts it into the fold set.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

const (
	shipMagic = "VSHIP1\n\x00"
	// shipMaxFileSize bounds one shipped file (segments rotate at
	// Options.SegmentBytes, default 1MB, so 1GB is three orders of
	// magnitude of headroom — anything larger is a corrupt length
	// field, not a real segment).
	shipMaxFileSize = 1 << 30
	// shipMaxFiles bounds the archive's file count against corrupt or
	// hostile trailers.
	shipMaxFiles = 1 << 20
	// shipReadAhead is how far ahead of the bytes that have arrived
	// Receive sizes a file's buffer from its header's claim: a
	// default-sized segment costs one regrowth, a lying header half a
	// megabyte.
	shipReadAhead = 512 << 10
)

// ErrShipCorrupt reports a structurally invalid or CRC-failing
// shipped-store stream.
var ErrShipCorrupt = errors.New("store: shipped store corrupt")

// shippable says whether name is part of the store proper. The LOCK
// file is the local writer flock (meaningless on another host);
// anything else unexpected (editor droppings, .tmp leftovers) is
// skipped rather than shipped.
func shippable(name string) bool {
	switch name {
	case CampaignMetaFile, ShardMetaFile:
		return true
	}
	return strings.HasPrefix(name, segPrefix) &&
		(strings.HasSuffix(name, segSuffix) || strings.HasSuffix(name, sidecarSuffix))
}

// Ship writes dir's store files to w in the shipped-store format,
// returning the number of files written. The store must not be open
// for writing elsewhere mid-Ship (agents ship only after their worker
// exited and synced).
func Ship(w io.Writer, dir string) (int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, fmt.Errorf("store: ship: %w", err)
	}
	var names []string
	for _, e := range entries {
		if e.Type().IsRegular() && shippable(e.Name()) {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	if _, err := io.WriteString(w, shipMagic); err != nil {
		return 0, fmt.Errorf("store: ship: %w", err)
	}
	var hdr [16]byte
	for _, name := range names {
		content, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return 0, fmt.Errorf("store: ship: %w", err)
		}
		binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(name)))
		binary.LittleEndian.PutUint64(hdr[4:12], uint64(len(content)))
		binary.LittleEndian.PutUint32(hdr[12:16], crc32.ChecksumIEEE(content))
		if _, err := w.Write(hdr[:]); err != nil {
			return 0, fmt.Errorf("store: ship: %w", err)
		}
		if _, err := io.WriteString(w, name); err != nil {
			return 0, fmt.Errorf("store: ship: %w", err)
		}
		if _, err := w.Write(content); err != nil {
			return 0, fmt.Errorf("store: ship: %w", err)
		}
	}
	var trailer [8]byte
	binary.LittleEndian.PutUint32(trailer[4:8], uint32(len(names)))
	if _, err := w.Write(trailer[:]); err != nil {
		return 0, fmt.Errorf("store: ship: %w", err)
	}
	return len(names), nil
}

// Receive reads a shipped-store stream into dir (created; must not
// already contain files), verifying each file's CRC as it lands and
// the trailer's file count at the end. On any error the partially
// received directory is removed, so a truncated or corrupt upload
// never leaves debris that could later be mistaken for a shard store.
func Receive(r io.Reader, dir string) (n int, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, fmt.Errorf("store: receive: %w", err)
	}
	if entries, err := os.ReadDir(dir); err != nil {
		return 0, fmt.Errorf("store: receive: %w", err)
	} else if len(entries) > 0 {
		return 0, fmt.Errorf("store: receive: %s is not empty", dir)
	}
	defer func() {
		if err != nil {
			os.RemoveAll(dir)
		}
	}()
	var magic [len(shipMagic)]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return 0, fmt.Errorf("%w: short magic: %v", ErrShipCorrupt, err)
	}
	if string(magic[:]) != shipMagic {
		return 0, fmt.Errorf("%w: bad magic %q", ErrShipCorrupt, magic)
	}
	count := 0
	var hdr [16]byte
	for {
		if _, err := io.ReadFull(r, hdr[0:4]); err != nil {
			return 0, fmt.Errorf("%w: short frame header: %v", ErrShipCorrupt, err)
		}
		nameLen := binary.LittleEndian.Uint32(hdr[0:4])
		if nameLen == 0 {
			break // trailer
		}
		if nameLen > 4096 {
			return 0, fmt.Errorf("%w: name length %d", ErrShipCorrupt, nameLen)
		}
		if count >= shipMaxFiles {
			return 0, fmt.Errorf("%w: more than %d files", ErrShipCorrupt, shipMaxFiles)
		}
		if _, err := io.ReadFull(r, hdr[4:16]); err != nil {
			return 0, fmt.Errorf("%w: short frame header: %v", ErrShipCorrupt, err)
		}
		size := binary.LittleEndian.Uint64(hdr[4:12])
		sum := binary.LittleEndian.Uint32(hdr[12:16])
		if size > shipMaxFileSize {
			return 0, fmt.Errorf("%w: file size %d exceeds %d", ErrShipCorrupt, size, shipMaxFileSize)
		}
		nameBuf := make([]byte, nameLen)
		if _, err := io.ReadFull(r, nameBuf); err != nil {
			return 0, fmt.Errorf("%w: short name: %v", ErrShipCorrupt, err)
		}
		name := string(nameBuf)
		if name != filepath.Base(name) || strings.ContainsAny(name, `/\`) || name == "." || name == ".." {
			return 0, fmt.Errorf("%w: unsafe file name %q", ErrShipCorrupt, name)
		}
		if !shippable(name) {
			return 0, fmt.Errorf("%w: unexpected file %q in shipped store", ErrShipCorrupt, name)
		}
		content, err := readContent(r, size)
		if err != nil {
			return 0, fmt.Errorf("%w: short content for %q: %v", ErrShipCorrupt, name, err)
		}
		if got := crc32.ChecksumIEEE(content); got != sum {
			return 0, fmt.Errorf("%w: %q CRC mismatch (frame %08x, content %08x)", ErrShipCorrupt, name, sum, got)
		}
		if err := writeFileAtomic(filepath.Join(dir, name), content); err != nil {
			return 0, fmt.Errorf("store: receive: %w", err)
		}
		count++
	}
	if _, err := io.ReadFull(r, hdr[0:4]); err != nil {
		return 0, fmt.Errorf("%w: short trailer: %v", ErrShipCorrupt, err)
	}
	if want := binary.LittleEndian.Uint32(hdr[0:4]); int(want) != count {
		return 0, fmt.Errorf("%w: trailer says %d files, received %d", ErrShipCorrupt, want, count)
	}
	return count, nil
}

// readContent reads one shipped file's size bytes. A header may claim
// shipMaxFileSize in a stream that ends a few bytes later, so the
// buffer is sized by what has arrived — twice that plus shipReadAhead
// at most — and memory tracks the stream, not the claim. Nothing is
// kept between files: a retained buffer would sit in the live heap the
// collector doubles.
func readContent(r io.Reader, size uint64) ([]byte, error) {
	var content []byte
	for have := uint64(0); have < size; have = uint64(len(content)) {
		grown := make([]byte, min(size, 2*have+shipReadAhead))
		copy(grown, content)
		if _, err := io.ReadFull(r, grown[have:]); err != nil {
			if err == io.EOF && have > 0 {
				err = io.ErrUnexpectedEOF // EOF only when no content arrived at all, as ReadFull has it
			}
			return nil, err
		}
		content = grown
	}
	return content, nil
}

// VerifyShard proves dir holds shard index of count of an acceptable
// campaign: shard.json must record exactly that assignment,
// campaign.json must structurally equal one of the acceptable
// fingerprint forms (when fps is non-empty), and the store itself must
// open read-only — which walks every segment frame, so a corrupt or
// torn upload is caught here, before acceptance, not at fold time.
// Returns the store's session count.
func VerifyShard(dir string, index, count int, fps [][]byte) (int, error) {
	meta, ok, err := ReadShardMeta(dir)
	if err != nil {
		return 0, err
	}
	if !ok {
		return 0, fmt.Errorf("store: %s carries no %s; not a shard store", dir, ShardMetaFile)
	}
	if meta.Index != index || meta.Count != count {
		return 0, fmt.Errorf("store: %s records shard %d/%d, want %d/%d", dir, meta.Index, meta.Count, index, count)
	}
	if len(fps) > 0 {
		meta, raw, err := ReadCampaignMeta(dir)
		if err != nil {
			return 0, err
		}
		if raw == nil {
			return 0, fmt.Errorf("store: %s carries no %s to verify against", dir, CampaignMetaFile)
		}
		if !CampaignMatches(meta, fps...) {
			return 0, fmt.Errorf("store: %s: %w", dir, ErrCampaignMismatch)
		}
	}
	st, err := Open(dir, Options{ReadOnly: true})
	if err != nil {
		return 0, err
	}
	defer st.Close()
	if st.Recovered() > 0 {
		// A read-only open skips a torn tail in memory; an upload with
		// one lost frames in transit (the agent synced before shipping).
		return 0, fmt.Errorf("store: %s: shipped store has a torn tail (%d bytes); refusing it", dir, st.Recovered())
	}
	return st.Len(), nil
}
