package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"veritas/internal/engine"
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

// TestUnreadableRowsAreRefusedNotMisfiled: a frame that passes its CRC
// and whose payload this build cannot read is what a future row format
// looks like from here. Every path that meets one must fail and say
// where — never index it under scenario "" (what peekRow's swallowed
// error used to do), and never truncate it away as a torn tail.
func TestUnreadableRowsAreRefusedNotMisfiled(t *testing.T) {
	good, err := encodeRow(nil, testRow(1, "fcc"))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name    string
		payload []byte
		peeks   bool   // the index fields parse; only a full decode fails
		want    string // what the error must mention besides the location
	}{
		{name: "unknown tag", payload: append([]byte{0x02}, good[1:]...), want: "0x02"},
		{name: "tag only", payload: []byte{rowTagBinary}, want: "malformed row"},
		{name: "empty payload", payload: []byte{}, want: "empty row"},
		{name: "JSON cut short", payload: []byte(`{"Index":1,"ID":"fcc-001","Scen`), want: "JSON"},
		{name: "binary cut short", payload: good[:len(good)-9], peeks: true, want: "malformed row"},
		{name: "trailing byte", payload: append(append([]byte(nil), good...), 0), peeks: true, want: "follow the row"},
		{name: "overlong varint", payload: append([]byte{rowTagBinary, 0x82, 0x00}, good[2:]...), want: "varint"},
	} {
		t.Run(c.name, func(t *testing.T) {
			// seg-00000: an intact row, the unreadable frame, an intact row.
			seg := appendFrame([]byte(segMagic), "fcc-000", mustEncode(t, testRow(0, "fcc")))
			badOff := int64(len(seg))
			seg = appendFrame(seg, "fcc-001", c.payload)
			lastOff := int64(len(seg))
			seg = appendFrame(seg, "fcc-002", mustEncode(t, testRow(2, "fcc")))
			dir := t.TempDir()
			path := filepath.Join(dir, segName(0))
			if err := os.WriteFile(path, seg, 0o644); err != nil {
				t.Fatal(err)
			}
			located := func(err error) bool {
				return err != nil && strings.Contains(err.Error(), fmt.Sprintf("%s@%d", segName(0), badOff)) &&
					strings.Contains(err.Error(), c.want)
			}

			if !c.peeks {
				for _, opt := range []Options{{}, {ReadOnly: true}} {
					s, err := Open(dir, opt)
					if err == nil {
						s.Close()
					}
					if !located(err) {
						t.Errorf("Open(ReadOnly=%v) = %v, want an error naming %s@%d and %q", opt.ReadOnly, err, segName(0), badOff, c.want)
					}
				}
				if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, seg) {
					t.Errorf("the refused segment was modified (err %v): a readable-by-someone frame is not a torn tail", err)
				}
				ws, err := OpenWatch(dir, Options{})
				if err == nil {
					ws.Close()
				}
				if !located(err) {
					t.Errorf("OpenWatch = %v, want an error naming %s@%d and %q", err, segName(0), badOff, c.want)
				}

				// A watcher that was already tailing when the frame landed.
				if err := os.WriteFile(path, seg[:badOff], 0o644); err != nil {
					t.Fatal(err)
				}
				ws, err = OpenWatch(dir, Options{})
				if err != nil {
					t.Fatal(err)
				}
				defer ws.Close()
				if err := os.WriteFile(path, seg, 0o644); err != nil {
					t.Fatal(err)
				}
				for round := 0; round < 2; round++ {
					if added, err := ws.Refresh(); added != 0 || !located(err) {
						t.Errorf("Refresh %d = (%d, %v), want the same located error every time", round, added, err)
					}
				}
				if ws.Len() != 1 || ws.Has("fcc-001") || len(ws.Sessions("")) != 1 {
					t.Errorf("the watcher indexed past the unreadable frame: %+v", ws.Sessions(""))
				}

				// Behind a sidecar Open never looks at the frame (it is not the
				// final one, which is spot-checked): the read must refuse it.
				entries := []entry{{key: "fcc-000", scenario: "fcc", off: int64(len(segMagic))},
					{key: "fcc-001", scenario: "fcc", index: 1, off: badOff}, {key: "fcc-002", scenario: "fcc", index: 2, off: lastOff}}
				if err := (&Store{dir: dir}).writeSidecar(0, int64(len(seg)), entries); err != nil {
					t.Fatal(err)
				}
			}
			s, err := Open(dir, Options{ReadOnly: true})
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			defer s.Close()
			if _, ok, err := s.Get("fcc-001"); ok || !located(err) {
				t.Errorf("Get = (ok %v, %v), want an error naming %s@%d and %q", ok, err, segName(0), badOff, c.want)
			}
			if err := s.Scan(func(engine.SessionRow) error { return nil }); !located(err) {
				t.Errorf("Scan = %v, want an error naming %s@%d and %q", err, segName(0), badOff, c.want)
			}
			if _, err := s.Partials(); !located(err) {
				t.Errorf("Partials = %v, want the rebuild to refuse the row", err)
			}
			if row, ok, err := s.Get("fcc-002"); !ok || err != nil || row.Index != 2 {
				t.Errorf("the intact row after it no longer reads: ok=%v err=%v", ok, err)
			}
		})
	}
}

func mustEncode(t *testing.T, row engine.SessionRow) []byte {
	t.Helper()
	payload, err := encodeRow(nil, row)
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

// TestRowCountsAreCheckedAgainstThePayload: a count field is believed
// only up to the bytes that follow it, before anything is allocated.
func TestRowCountsAreCheckedAgainstThePayload(t *testing.T) {
	// tag, Index 0, ID "k", Scenario "", flags "Arms present", a zero
	// SettingA — then an arm count of 2⁶⁰ and nothing behind it.
	payload := []byte{rowTagBinary, 0, 1, 'k', 0, rowHasArms}
	payload = append(payload, make([]byte, minMetricsLen)...)
	payload = binary.AppendUvarint(payload, 1<<60)
	var err error
	if got := allocatedBy(func() { _, err = decodeRow(payload) }); got > 1<<20 {
		t.Errorf("decodeRow allocated %d bytes for a %d-byte payload", got, len(payload))
	}
	if err == nil || !strings.Contains(err.Error(), "count") {
		t.Errorf("err = %v, want the arm count refused", err)
	}
}
