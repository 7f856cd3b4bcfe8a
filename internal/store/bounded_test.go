package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// allocatedBy returns the bytes fn allocated (cumulative, so a buffer
// freed again still counts). Tests in this package do not run in
// parallel, so nothing else allocates meanwhile.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// claimHugePayload overwrites the payload-length field of the frame at
// off in path with the largest length a header may plausibly carry.
func claimHugePayload(t *testing.T, path string, off int64) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var huge [4]byte
	binary.LittleEndian.PutUint32(huge[:], maxPayloadLen-1)
	if _, err := f.WriteAt(huge[:], off+4); err != nil {
		t.Fatal(err)
	}
}

// TestCorruptLengthIsCheckedAgainstTheFile: a frame header claiming a
// payload of a gigabyte in a file that ends a few bytes later is answered
// by each of the four frame readers as any other torn frame is — and
// before the claimed length is allocated, not after.
func TestCorruptLengthIsCheckedAgainstTheFile(t *testing.T) {
	const bound = 1 << 20

	// twoRows builds a closed one-segment store holding testRow(0) and
	// testRow(1) and returns the second frame's offset.
	twoRows := func(t *testing.T) (dir string, secondOff int64) {
		dir = t.TempDir()
		s, err := Create(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		fillStore(t, s, 2, "fcc")
		secondOff = s.activeEntries[1].off
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		return dir, secondOff
	}

	t.Run("Open recovers it as a torn tail", func(t *testing.T) {
		// The issue's 20-byte segment: magic, then one header and nothing.
		dir := t.TempDir()
		var hdr [frameHdrLen]byte
		binary.LittleEndian.PutUint32(hdr[0:], 1)
		binary.LittleEndian.PutUint32(hdr[4:], maxPayloadLen-1)
		if err := os.WriteFile(filepath.Join(dir, segName(0)), append([]byte(segMagic), hdr[:]...), 0o644); err != nil {
			t.Fatal(err)
		}
		var s *Store
		var err error
		if got := allocatedBy(func() { s, err = Open(dir, Options{}) }); got > bound {
			t.Errorf("Open allocated %d bytes for a 20-byte segment", got)
		}
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if s.Recovered() != frameHdrLen || s.Len() != 0 {
			t.Errorf("Recovered = %d, Len = %d; want the %d header bytes dropped and no rows", s.Recovered(), s.Len(), frameHdrLen)
		}
	})

	t.Run("Get fails the read", func(t *testing.T) {
		dir, off := twoRows(t)
		s, err := Open(dir, Options{ReadOnly: true})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		claimHugePayload(t, filepath.Join(dir, segName(0)), off)
		if got := allocatedBy(func() { _, _, err = s.Get("fcc-001") }); got > bound {
			t.Errorf("Get allocated %d bytes on a corrupt length", got)
		}
		if err == nil {
			t.Error("Get read a frame whose header claims more bytes than the segment has")
		}
		if _, ok, err := s.Get("fcc-000"); !ok || err != nil {
			t.Errorf("the intact frame before it no longer reads: ok=%v err=%v", ok, err)
		}
	})

	t.Run("Refresh stops and retries", func(t *testing.T) {
		dir, off := twoRows(t)
		os.Remove(filepath.Join(dir, sidecarName(0)))
		claimHugePayload(t, filepath.Join(dir, segName(0)), off)
		var s *Store
		var err error
		if got := allocatedBy(func() { s, err = OpenWatch(dir, Options{}) }); got > bound {
			t.Errorf("OpenWatch allocated %d bytes on a corrupt length", got)
		}
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if s.Len() != 1 || !s.Has("fcc-000") {
			t.Errorf("Len = %d, want the one intact row before the corrupt frame", s.Len())
		}
		var added int
		if got := allocatedBy(func() { added, err = s.Refresh() }); got > bound {
			t.Errorf("Refresh allocated %d bytes retrying the corrupt frame", got)
		}
		if added != 0 || err != nil {
			t.Errorf("Refresh = (%d, %v), want (0, nil): the frame is retried, never an error", added, err)
		}
	})

	t.Run("the sidecar spot-check rejects it", func(t *testing.T) {
		dir, off := twoRows(t)
		claimHugePayload(t, filepath.Join(dir, segName(0)), off)
		var ok bool
		if got := allocatedBy(func() { _, ok = (&Store{dir: dir}).tryLoadSidecar(0) }); got > bound {
			t.Errorf("the spot-check allocated %d bytes on a corrupt length", got)
		}
		if ok {
			t.Error("a sidecar whose final frame is corrupt was trusted")
		}
	})
}

// TestReceiveMemoryTracksTheStream: a file header may claim
// shipMaxFileSize; what Receive allocates must follow the bytes that
// arrive — here none — because the stream is an agent's upload body.
func TestReceiveMemoryTracksTheStream(t *testing.T) {
	name := segName(0)
	stream := []byte(shipMagic)
	stream = binary.LittleEndian.AppendUint32(stream, uint32(len(name)))
	stream = binary.LittleEndian.AppendUint64(stream, shipMaxFileSize)
	stream = binary.LittleEndian.AppendUint32(stream, 0)
	stream = append(stream, name...)
	if len(stream) != 38 {
		t.Fatalf("stream is %d bytes, want the 38-byte reproducer", len(stream))
	}
	dst := filepath.Join(t.TempDir(), "received")
	var err error
	if got := allocatedBy(func() { _, err = Receive(bytes.NewReader(stream), dst) }); got > 1<<20 {
		t.Errorf("Receive allocated %d bytes for a %d-byte stream", got, len(stream))
	}
	if !errors.Is(err, ErrShipCorrupt) {
		t.Fatalf("err = %v, want ErrShipCorrupt (short content)", err)
	}
	if _, err := os.Stat(dst); !os.IsNotExist(err) {
		t.Errorf("refused upload left %s behind", dst)
	}
}
