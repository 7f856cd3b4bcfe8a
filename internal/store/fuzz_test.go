package store

// Fuzz targets over the store's decoders. Each one's contract is
// "error or correct, never panic, never over-allocate"; seeds come from
// a real store built here, crashers live under testdata/fuzz/. As
// ordinary tests they run the seeds; CI's fuzz job loops
// `go test -run '^$' -fuzz '^FuzzX$' -fuzztime 10s` over them.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"veritas/internal/engine"
)

// fuzzStore builds a closed two-segment shard store (five rows, one
// overwritten, three frames to a segment; sidecars, snapshot,
// campaign.json, shard.json).
func fuzzStore(f *testing.F) string {
	f.Helper()
	dir := f.TempDir()
	s, err := OpenCampaign(dir, Options{SegmentBytes: 1200}, []byte(`{"seed":1,"sessions":5}`))
	if err != nil {
		f.Fatal(err)
	}
	if _, err := s.Partials(); err != nil {
		f.Fatal(err)
	}
	for _, i := range []int{0, 1, 2, 3, 4, 1} {
		if err := s.Append(testRow(i, "fcc")); err != nil {
			f.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		f.Fatal(err)
	}
	if err := WriteShardMeta(dir, ShardMeta{Index: 0, Count: 1}); err != nil {
		f.Fatal(err)
	}
	if segs := segmentPaths(f, dir); len(segs) != 2 {
		f.Fatalf("fuzz store has %d segments, the targets read seg-00000 and seg-00001", len(segs))
	}
	return dir
}

func mustRead(f *testing.F, path string) []byte {
	f.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	return b
}

// flipped returns b with one byte changed.
func flipped(b []byte, at int) []byte {
	out := append([]byte(nil), b...)
	out[at] ^= 0x20
	return out
}

// FuzzReadFrame: over any bytes at any offset readFrameAt returns an
// error or a frame that appendFrame encodes back to exactly the bytes
// it was read from, and its buffer never outgrows the input.
func FuzzReadFrame(f *testing.F) {
	seg := mustRead(f, filepath.Join(fuzzStore(f), segName(0)))
	f.Add(seg, int64(len(segMagic)))
	f.Add(seg, int64(0))
	f.Add(seg[:len(seg)-3], int64(len(segMagic)))
	f.Add(flipped(seg, len(segMagic)+5), int64(len(segMagic)))
	f.Add(flipped(seg, len(seg)/2), int64(len(segMagic)))
	f.Add(seg, int64(-1))
	f.Add(seg, int64(1)<<62)
	f.Fuzz(func(t *testing.T, data []byte, off int64) {
		key, payload, scratch, err := readFrameAt(bytes.NewReader(data), off, int64(len(data)), nil)
		if cap(scratch) > len(data)+frameHdrLen {
			t.Fatalf("read buffer grew to %d bytes over a %d-byte input", cap(scratch), len(data))
		}
		if err != nil {
			return
		}
		again := appendFrame(nil, string(key), payload)
		if !bytes.Equal(again, data[off:off+int64(len(again))]) {
			t.Fatalf("frame at %d does not re-encode to the bytes it was read from", off)
		}
	})
}

// FuzzDecodeRow: over any payload decodeRow returns an error or a row
// that re-encodes to exactly the bytes it came from (a JSON payload: to
// a binary one that decodes to the same row), having allocated no more
// than a small multiple of the payload; peekRow agrees with it on the
// index fields whenever both succeed.
func FuzzDecodeRow(f *testing.F) {
	dir := fuzzStore(f)
	for num := 0; num < 2; num++ {
		seg := mustRead(f, filepath.Join(dir, segName(num)))
		walkFrames(bytes.NewReader(seg), int64(len(segMagic)), int64(len(seg)), func(_ int64, _, payload []byte) error {
			row, err := decodeRow(payload)
			if err != nil {
				f.Fatal(err)
			}
			asJSON, err := encodeRowJSON(row)
			if err != nil {
				f.Fatal(err)
			}
			for _, p := range [][]byte{append([]byte(nil), payload...), asJSON} {
				f.Add(p)
				f.Add(p[:len(p)/2])
				f.Add(p[:len(p)-1])
				f.Add(flipped(p, 0))
				f.Add(flipped(p, len(p)/3))
			}
			// The arm count of testRow (a single byte, 1, right behind the
			// 50-byte SettingA) patched to 2⁶³.
			at := bytes.Index(payload, []byte("\x06bba-5s")) - 1
			huge := append(append([]byte(nil), payload[:at]...), binary.AppendUvarint(nil, 1<<63)...)
			f.Add(append(huge, payload[at+1:]...))
			return nil
		})
	}
	f.Add([]byte(nil))
	f.Fuzz(func(t *testing.T, payload []byte) {
		var row engine.SessionRow
		var err error
		// Decoded, a row is wider than its bytes (176 bytes of ArmOutcome
		// for the 103 its shortest encoding takes, 64 of Metrics for 50),
		// and JSON pays for the decoder's own state. The constant is slack
		// for what the fuzz worker's other goroutines allocate meanwhile;
		// a count believed past the payload would cost megabytes.
		bound := uint64(4*len(payload) + 1<<16)
		if len(payload) > 0 && payload[0] == '{' {
			bound = uint64(64*len(payload) + 1<<16)
		}
		if got := allocatedBy(func() { row, err = decodeRow(payload) }); got > bound {
			t.Fatalf("decodeRow allocated %d bytes over a %d-byte payload", got, len(payload))
		}
		scen, idx, peekErr := peekRow(payload)
		if err != nil {
			return
		}
		if peekErr != nil || scen != row.Scenario || idx != row.Index {
			t.Fatalf("peekRow = (%q, %d, %v), decodeRow read (%q, %d)", scen, idx, peekErr, row.Scenario, row.Index)
		}
		again, err := encodeRow(nil, row)
		if err != nil {
			t.Fatalf("a decoded row does not encode: %v", err)
		}
		if payload[0] == rowTagBinary {
			if !bytes.Equal(again, payload) {
				t.Fatalf("row re-encodes to\n%x\nfrom\n%x", again, payload)
			}
			return
		}
		if back, err := decodeRow(again); err != nil || !reflect.DeepEqual(back, row) {
			t.Fatalf("JSON row %+v came back from the binary codec as %+v (err %v)", row, back, err)
		}
	})
}

// FuzzOpenEnvelope drives the envelope decoder through its one reader:
// a fuzzed sidecar is rejected or yields exactly the frame walk's index.
// The seeds include the store's partials snapshot, the other envelope
// it writes, which a sidecar read must refuse by its magic.
func FuzzOpenEnvelope(f *testing.F) {
	dir := fuzzStore(f)
	sidecarPath := filepath.Join(dir, sidecarName(0))
	s := &Store{dir: dir, opt: Options{ReadOnly: true}}
	seg0 := mustRead(f, filepath.Join(dir, segName(0)))
	var scanned []entry
	walkFrames(bytes.NewReader(seg0), int64(len(segMagic)), int64(len(seg0)), func(off int64, key, payload []byte) error {
		scen, idx, err := peekRow(payload)
		if err != nil {
			f.Fatal(err)
		}
		scanned = append(scanned, entry{key: string(key), scenario: scen, index: idx, off: off})
		return nil
	})

	// The JSON-era sidecar of the same layout's fixture: its magic is
	// refused before its payload is read.
	f.Add(mustRead(f, filepath.Join("testdata", "store_pr21", sidecarName(0))))
	for _, raw := range [][]byte{mustRead(f, sidecarPath), mustRead(f, filepath.Join(dir, partialsName))} {
		f.Add(raw)
		f.Add(raw[:len(raw)-1])
		f.Add(raw[:len(sidecarMagic)+envelopeHdrLen])
		f.Add(flipped(raw, len(sidecarMagic)+2))
		f.Add(flipped(raw, len(raw)-2))
		f.Add(append(append([]byte(nil), raw...), '\n'))
	}
	f.Add([]byte(nil))
	f.Fuzz(func(t *testing.T, raw []byte) {
		if err := os.WriteFile(sidecarPath, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		if entries, ok := s.tryLoadSidecar(0, bytes.NewReader(seg0), int64(len(seg0))); ok {
			if len(entries) != len(scanned) {
				t.Fatalf("sidecar accepted with %d entries, the scan finds %d", len(entries), len(scanned))
			}
			for i := range entries {
				if entries[i] != scanned[i] {
					t.Fatalf("sidecar accepted with entry %d = %+v, the scan finds %+v", i, entries[i], scanned[i])
				}
			}
		}
	})
}

// FuzzDecodeSidecar: over any payload decodeSidecar returns an error or
// entries that appendSidecar encodes back to exactly the payload, all
// in the segment it was told, having allocated no more than a small
// multiple of the payload.
func FuzzDecodeSidecar(f *testing.F) {
	dir := fuzzStore(f)
	for num := 0; num < 2; num++ {
		payload, ok := openEnvelope(sidecarMagic, mustRead(f, filepath.Join(dir, sidecarName(num))))
		if !ok {
			f.Fatalf("%s does not open", sidecarName(num))
		}
		f.Add(payload)
		f.Add(payload[:len(payload)/2])
		f.Add(payload[:len(payload)-1])
		f.Add(flipped(payload, 1))
		f.Add(flipped(payload, len(payload)/3))
		f.Add(append(append([]byte(nil), payload...), 0))
		// The entry count patched to 2⁶³.
		_, sizeLen := binary.Uvarint(payload)
		_, countLen := binary.Uvarint(payload[sizeLen:])
		huge := append(append([]byte(nil), payload[:sizeLen]...), binary.AppendUvarint(nil, 1<<63)...)
		f.Add(append(huge, payload[sizeLen+countLen:]...))
	}
	f.Add([]byte(nil))
	f.Fuzz(func(t *testing.T, payload []byte) {
		var size int64
		var entries []entry
		var err error
		// A decoded entry is 56 bytes for the 5 its shortest encoding
		// takes, plus one string copy of the payload; the constant is
		// slack for the fuzz worker's other goroutines.
		if got := allocatedBy(func() { size, entries, err = decodeSidecar(payload, 7) }); got > uint64(16*len(payload)+1<<16) {
			t.Fatalf("decodeSidecar allocated %d bytes over a %d-byte payload", got, len(payload))
		}
		if err != nil {
			return
		}
		for i, e := range entries {
			if e.seg != 7 {
				t.Fatalf("entry %d decoded into segment %d, want 7", i, e.seg)
			}
		}
		if again := appendSidecar(nil, size, entries); !bytes.Equal(again, payload) {
			t.Fatalf("sidecar re-encodes to\n%x\nfrom\n%x", again, payload)
		}
	})
}

// FuzzReceive: a fuzzed upload stream is refused leaving nothing
// behind, or lands as regular store files directly inside the target
// directory; VerifyShard — the next step of an upload — then refuses the
// directory or names a store that opens with the sessions it counted.
func FuzzReceive(f *testing.F) {
	var stream bytes.Buffer
	if _, err := Ship(&stream, fuzzStore(f)); err != nil {
		f.Fatal(err)
	}
	good := stream.Bytes()
	f.Add(good)
	f.Add(good[:len(good)-8])
	f.Add(good[:len(shipMagic)+16])
	f.Add(flipped(good, len(shipMagic)+1))
	f.Add(flipped(good, len(shipMagic)+6))
	f.Add(flipped(good, len(good)/2))
	f.Add(append([]byte(shipMagic), 0, 0, 0, 0, 0, 0, 0, 0)) // no files
	evil := append([]byte(shipMagic), 12, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)
	f.Add(append(evil, "../evil.vseg"...))
	f.Fuzz(func(t *testing.T, data []byte) {
		parent := t.TempDir()
		dir := filepath.Join(parent, "received")
		n, err := Receive(bytes.NewReader(data), dir)
		around, rdErr := os.ReadDir(parent)
		if rdErr != nil {
			t.Fatal(rdErr)
		}
		if err != nil {
			if len(around) != 0 {
				t.Fatalf("refused stream (%v) left %v behind", err, around)
			}
			return
		}
		if len(around) != 1 {
			t.Fatalf("receive wrote outside its directory: %v", around)
		}
		files, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(files) > n {
			t.Fatalf("received %d files, directory holds %d", n, len(files))
		}
		for _, fe := range files {
			if !fe.Type().IsRegular() || !shippable(fe.Name()) {
				t.Fatalf("receive wrote %q (%v)", fe.Name(), fe.Type())
			}
		}
		sessions, err := VerifyShard(dir, 0, 1, nil)
		if err != nil {
			return
		}
		st, err := Open(dir, Options{ReadOnly: true})
		if err != nil {
			t.Fatalf("VerifyShard accepted a store that does not open: %v", err)
		}
		defer st.Close()
		if st.Len() != sessions {
			t.Fatalf("VerifyShard counted %d sessions, the store holds %d", sessions, st.Len())
		}
	})
}

// FuzzCampaignMatches: structural equality of campaign documents is
// reflexive, symmetric and blind to formatting, and bytes that are not
// JSON match nothing instead of panicking.
func FuzzCampaignMatches(f *testing.F) {
	doc := mustRead(f, filepath.Join(fuzzStore(f), CampaignMetaFile))
	f.Add(doc, doc)
	f.Add(doc, []byte(`{ "sessions": 5, "seed": 1 }`))
	f.Add(doc, []byte(`{"seed":2,"sessions":5}`))
	f.Add(doc, doc[:len(doc)-1])
	f.Add([]byte(`null`), []byte(`{}`))
	f.Add([]byte(`[1,{"a":[]}]`), []byte(`[1.0,{"a":[]}]`))
	f.Add([]byte{0xff, '{'}, []byte(nil))
	decode := func(b []byte) (v any, ok bool) {
		ok = json.Unmarshal(b, &v) == nil
		return v, ok
	}
	f.Fuzz(func(t *testing.T, a, b []byte) {
		va, okA := decode(a)
		vb, okB := decode(b)
		ab, ba := CampaignMatches(va, b), CampaignMatches(vb, a)
		switch {
		case !okA || !okB:
			if (!okB && ab) || (!okA && ba) {
				t.Fatal("bytes that are not JSON matched a document")
			}
			return
		case ab != ba:
			t.Fatalf("asymmetric: a~b %v, b~a %v", ab, ba)
		case !CampaignMatches(va, a):
			t.Fatal("a document does not match itself")
		}
		var pretty bytes.Buffer
		if err := json.Indent(&pretty, a, " ", "\t"); err != nil {
			t.Fatal(err)
		}
		if !CampaignMatches(va, pretty.Bytes()) || CampaignMatches(vb, pretty.Bytes()) != ab {
			t.Fatal("reformatting a document changed what it matches")
		}
		if !CampaignMatches(va, b, a) {
			t.Fatal("a later acceptable form was not tried")
		}
	})
}
