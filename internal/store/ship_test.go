package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// shipShard builds a closed shard store with rows, shard metadata and
// a campaign.json, ready to ship.
func shipShard(t *testing.T, index, count int, rows []int, campaign string) string {
	t.Helper()
	dir := shardStore(t, ShardMeta{Index: index, Count: count}, rows, "fcc")
	if err := os.WriteFile(filepath.Join(dir, CampaignMetaFile), []byte(campaign), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestShipReceiveRoundTrip(t *testing.T) {
	src := shipShard(t, 0, 2, []int{0, 2, 4}, `{"seed": 1, "sessions": 6}`)
	// Host-local and stray files must not travel.
	for _, junk := range []string{"LOCK", "notes.txt"} {
		if err := os.WriteFile(filepath.Join(src, junk), []byte("local"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	var buf bytes.Buffer
	shipped, err := Ship(&buf, src)
	if err != nil {
		t.Fatal(err)
	}
	dst := filepath.Join(t.TempDir(), "received")
	received, err := Receive(bytes.NewReader(buf.Bytes()), dst)
	if err != nil {
		t.Fatal(err)
	}
	if received != shipped {
		t.Errorf("received %d files, shipped %d", received, shipped)
	}
	for _, junk := range []string{"LOCK", "notes.txt"} {
		if _, err := os.Stat(filepath.Join(dst, junk)); !os.IsNotExist(err) {
			t.Errorf("%s travelled with the store", junk)
		}
	}
	if len(sidecarPaths(t, src)) == 0 {
		t.Fatal("the source store has no sidecar: the check below proves nothing")
	}
	if idx := sidecarPaths(t, dst); len(idx) != 0 {
		t.Errorf("sidecars travelled with the store: %v", idx)
	}
	// Everything that did travel arrived byte for byte.
	files, err := os.ReadDir(dst)
	if err != nil || len(files) != received {
		t.Fatalf("received directory holds %d files (err %v), want %d", len(files), err, received)
	}
	for _, f := range files {
		want, _ := os.ReadFile(filepath.Join(src, f.Name()))
		if got, err := os.ReadFile(filepath.Join(dst, f.Name())); err != nil || !bytes.Equal(got, want) {
			t.Errorf("%s differs from the shipped file (err %v)", f.Name(), err)
		}
	}

	// The received directory verifies as the shard it claims to be —
	// against a structurally-equal fingerprint, not a byte-equal one
	// (whitespace differs here).
	n, err := VerifyShard(dst, 0, 2, [][]byte{[]byte(`{"sessions":6,"seed":1}`)})
	if err != nil {
		t.Fatalf("received store fails verification: %v", err)
	}
	if n != 3 {
		t.Errorf("verified store has %d sessions, want 3", n)
	}
	// And carries the same rows.
	st, err := Open(dst, Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for _, key := range []string{"fcc-000", "fcc-002", "fcc-004"} {
		if !st.Has(key) {
			t.Errorf("received store lost %s", key)
		}
	}
}

func TestReceiveRejectsCorruption(t *testing.T) {
	src := shipShard(t, 0, 1, []int{0, 1}, `{"seed":1}`)
	var buf bytes.Buffer
	if _, err := Ship(&buf, src); err != nil {
		t.Fatal(err)
	}
	stream := buf.Bytes()

	cases := []struct {
		name   string
		mangle func([]byte) []byte
	}{
		{"bad magic", func(b []byte) []byte { b[0] ^= 0xff; return b }},
		{"flipped content byte", func(b []byte) []byte { b[len(b)/2] ^= 0x01; return b }},
		{"truncated stream", func(b []byte) []byte { return b[:len(b)-12] }},
		{"wrong trailer count", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[len(b)-4:], 99)
			return b
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dst := filepath.Join(t.TempDir(), "received")
			mangled := tc.mangle(append([]byte(nil), stream...))
			if _, err := Receive(bytes.NewReader(mangled), dst); !errors.Is(err, ErrShipCorrupt) {
				t.Fatalf("corrupt stream accepted (err = %v)", err)
			}
			// A refused upload must leave no debris that could later be
			// mistaken for a shard store.
			if _, err := os.Stat(dst); !os.IsNotExist(err) {
				t.Errorf("partial receive left %s behind", dst)
			}
		})
	}
}

// TestReceiveRejectsUnsafeNames pins the path-traversal guard: a
// hostile frame naming a file outside the target directory (or one
// that is not part of a store at all) is refused.
func TestReceiveRejectsUnsafeNames(t *testing.T) {
	frame := func(name string) []byte {
		var buf bytes.Buffer
		buf.WriteString(shipMagic)
		content := []byte("x")
		var hdr [16]byte
		binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(name)))
		binary.LittleEndian.PutUint64(hdr[4:12], uint64(len(content)))
		binary.LittleEndian.PutUint32(hdr[12:16], crc32.ChecksumIEEE(content))
		buf.Write(hdr[:])
		buf.WriteString(name)
		buf.Write(content)
		var trailer [8]byte
		binary.LittleEndian.PutUint32(trailer[4:8], 1)
		buf.Write(trailer[:])
		return buf.Bytes()
	}
	for _, name := range []string{"../evil", "a/b.vseg", `a\b.vseg`, "..", "LOCK", "random.bin", sidecarName(0)} {
		dst := filepath.Join(t.TempDir(), "received")
		_, err := Receive(bytes.NewReader(frame(name)), dst)
		if !errors.Is(err, ErrShipCorrupt) {
			t.Errorf("frame named %q accepted (err = %v)", name, err)
		}
		if _, serr := os.Stat(dst); !os.IsNotExist(serr) {
			t.Errorf("refused frame %q left %s behind", name, dst)
		}
	}
}

// TestReceiveRefusesShippedSidecars pins the mixed-version refusal: an
// agent built while sidecars still travelled ships each segment's .vidx
// with it, and Receive refuses that stream naming the file.
func TestReceiveRefusesShippedSidecars(t *testing.T) {
	src := shipShard(t, 0, 1, []int{0, 1}, `{"seed":1}`)
	stream := []byte(shipMagic)
	names := []string{CampaignMetaFile, segName(0), sidecarName(0), ShardMetaFile} // sorted, as Ship sends them
	for _, name := range names {
		content, err := os.ReadFile(filepath.Join(src, name))
		if err != nil {
			t.Fatal(err)
		}
		stream = binary.LittleEndian.AppendUint32(stream, uint32(len(name)))
		stream = binary.LittleEndian.AppendUint64(stream, uint64(len(content)))
		stream = binary.LittleEndian.AppendUint32(stream, crc32.ChecksumIEEE(content))
		stream = append(append(stream, name...), content...)
	}
	stream = binary.LittleEndian.AppendUint32(stream, 0)
	stream = binary.LittleEndian.AppendUint32(stream, uint32(len(names)))

	dst := filepath.Join(t.TempDir(), "received")
	_, err := Receive(bytes.NewReader(stream), dst)
	if !errors.Is(err, ErrShipCorrupt) || !strings.Contains(err.Error(), fmt.Sprintf("%q", sidecarName(0))) {
		t.Errorf("Receive of a stream carrying a sidecar = %v, want ErrShipCorrupt naming %s", err, sidecarName(0))
	}
	if _, serr := os.Stat(dst); !os.IsNotExist(serr) {
		t.Errorf("the refused stream left %s behind", dst)
	}
}

func TestReceiveRefusesNonEmptyDir(t *testing.T) {
	src := shipShard(t, 0, 1, []int{0}, `{"seed":1}`)
	var buf bytes.Buffer
	if _, err := Ship(&buf, src); err != nil {
		t.Fatal(err)
	}
	dst := t.TempDir()
	if err := os.WriteFile(filepath.Join(dst, "resident"), []byte("here first"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Receive(&buf, dst); err == nil || !strings.Contains(err.Error(), "not empty") {
		t.Fatalf("receive into a non-empty directory: err = %v", err)
	}
	// The refusal must not destroy what was already there: cleanup is
	// only for directories Receive populated from scratch.
	if _, err := os.Stat(filepath.Join(dst, "resident")); err != nil {
		t.Errorf("refusal destroyed pre-existing contents: %v", err)
	}
}

// TestVerifyShardWalksShippedSegments: a sidecar spot-checks only its
// segment's last frame, so sidecars stay on the machine that wrote them
// and a shipped store is verified by walking every frame. A byte
// flipped inside a sealed segment whose sidecar is intact is refused at
// VerifyShard, before the upload is accepted, not at fold time.
func TestVerifyShardWalksShippedSegments(t *testing.T) {
	src := t.TempDir()
	s, err := Create(src, Options{SegmentBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	fillStore(t, s, 60, "fcc")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := WriteShardMeta(src, ShardMeta{Index: 0, Count: 1}); err != nil {
		t.Fatal(err)
	}
	segs := segmentPaths(t, src)
	if len(segs) < 2 {
		t.Fatalf("60 rows made %d segment(s); the case needs a sealed one", len(segs))
	}
	fi, err := os.Stat(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	flipByte(t, segs[0], fi.Size()/2)

	var buf bytes.Buffer
	if _, err := Ship(&buf, src); err != nil {
		t.Fatal(err)
	}
	dst := filepath.Join(t.TempDir(), "received")
	if _, err := Receive(&buf, dst); err != nil {
		t.Fatalf("the stream itself is intact, Receive refused it: %v", err)
	}
	n, err := VerifyShard(dst, 0, 1, nil)
	if err == nil || !strings.Contains(err.Error(), "only the newest segment may be torn") {
		t.Fatalf("VerifyShard = (%d sessions, %v), want the corrupt sealed segment refused", n, err)
	}
}

func TestVerifyShardRejections(t *testing.T) {
	dir := shipShard(t, 1, 3, []int{1, 4}, `{"seed":1}`)
	if _, err := VerifyShard(dir, 1, 3, nil); err != nil {
		t.Fatalf("valid shard store rejected: %v", err)
	}
	if _, err := VerifyShard(dir, 0, 3, nil); err == nil || !strings.Contains(err.Error(), "records shard") {
		t.Errorf("wrong shard index accepted: %v", err)
	}
	if _, err := VerifyShard(dir, 1, 4, nil); err == nil || !strings.Contains(err.Error(), "records shard") {
		t.Errorf("wrong shard count accepted: %v", err)
	}
	if _, err := VerifyShard(dir, 1, 3, [][]byte{[]byte(`{"seed":2}`)}); !errors.Is(err, ErrCampaignMismatch) {
		t.Errorf("campaign fingerprint mismatch accepted: %v", err)
	}
	// A store directory with no shard.json is not a shard store.
	plain := t.TempDir()
	s, err := Create(plain, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if _, err := VerifyShard(plain, 0, 1, nil); err == nil || !strings.Contains(err.Error(), "not a shard store") {
		t.Errorf("unstamped store accepted as a shard: %v", err)
	}
}
