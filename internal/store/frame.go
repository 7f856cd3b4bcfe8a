package store

// The store's byte formats, one encoder and one decoder each. Every
// other file works in frames, rows and envelope payloads; only this one
// knows how they are laid out, so a format change has one function to
// edit and the fuzz targets have one pure function per format to attack.
//
//   - Segment frame: u32 keyLen | u32 payloadLen | u32 crc32(key‖payload)
//     | key | payload — appendRowFrame / readFrameAt / walkFrames.
//   - Row payload, the engine.SessionRow — encodeRow / decodeRow /
//     peekRow. Its first byte is the format tag:
//     0x01: Index (varint) | ID | Scenario | flags (Simulated, Arms
//     non-nil, Predictions non-nil) | SettingA | arm count (uvarint) |
//     arms | prediction count (uvarint) | predictions (f64 each).
//     An arm is Name | flags (HasTruth, Samples non-nil) | Baseline |
//     sample count (uvarint) | samples | Truth; a player.Metrics is its
//     six float64 fields as IEEE-754 bits, then NumChunks and
//     QualitySwitches as varints; a string is its length (uvarint) and
//     its bytes. Frames stay self-contained — no string table shared
//     across a segment — because Get reads one frame by offset.
//     '{': the row as JSON, which is what every store held before the
//     tag existed. Still decoded, never written.
//     Anything else is a format from a newer build and is refused.
//   - Envelope (sidecars, the partials snapshot): 8-byte magic |
//     u32 crc32(payload) | u32 payloadLen | payload — sealEnvelope /
//     openEnvelope.
//
// All integers are little-endian, all checksums CRC-32 (IEEE). Decoders
// never allocate from a length or count field before checking it against
// the bytes that actually exist: a corrupt header costs an error, not
// memory.
//
// The binary row did not bump segMagic, on purpose: the tag inside the
// payload already tells the formats apart frame by frame (one segment
// can hold both), and builds from before the tag treat an unknown magic
// on the newest segment of a writable store as a torn header and
// truncate the segment. An unreadable payload they merely fail to read.

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"

	"veritas/internal/engine"
	"veritas/internal/player"
)

const (
	frameHdrLen    = 12
	maxKeyLen      = 1 << 16
	maxPayloadLen  = 1 << 30
	envelopeHdrLen = 8 // CRC + payload length, after the magic
)

var (
	errFrameHeader   = errors.New("implausible frame header")
	errFrameChecksum = errors.New("checksum mismatch")
)

// appendRowFrame appends the frame that stores row under its ID,
// encoding the payload straight into the frame.
func appendRowFrame(dst []byte, row engine.SessionRow) ([]byte, error) {
	start := len(dst)
	dst = slices.Grow(dst, frameHdrLen+len(row.ID)+maxRowLen(row))
	dst = append(dst, make([]byte, frameHdrLen)...)
	dst = append(dst, row.ID...)
	dst, err := encodeRow(dst, row)
	if err != nil {
		return dst[:start], err
	}
	sealFrame(dst[start:], len(row.ID))
	return dst, nil
}

// sealFrame fills in the header of f, a frame whose key and payload are
// already in place behind it.
func sealFrame(f []byte, keyLen int) {
	binary.LittleEndian.PutUint32(f[0:], uint32(keyLen))
	binary.LittleEndian.PutUint32(f[4:], uint32(len(f)-frameHdrLen-keyLen))
	binary.LittleEndian.PutUint32(f[8:], crc32.ChecksumIEEE(f[frameHdrLen:]))
}

// readFrameAt decodes the frame starting at off in r, whose trustworthy
// bytes end at limit (the segment's size): a frame that would extend
// past limit is refused with io.ErrUnexpectedEOF before its body is
// allocated. key and payload alias scratch — buf, grown only when the
// frame needs it — which the caller passes back in to read the next
// frame without allocating. The frame ends at
// off + frameHdrLen + len(key) + len(payload).
func readFrameAt(r io.ReaderAt, off, limit int64, buf []byte) (key, payload, scratch []byte, err error) {
	if off < 0 || off > limit-frameHdrLen {
		return nil, nil, buf, io.ErrUnexpectedEOF
	}
	if cap(buf) < frameHdrLen {
		buf = make([]byte, frameHdrLen)
	}
	buf = buf[:frameHdrLen]
	if _, err := r.ReadAt(buf, off); err != nil {
		return nil, nil, buf, err
	}
	keyLen := binary.LittleEndian.Uint32(buf[0:4])
	payloadLen := binary.LittleEndian.Uint32(buf[4:8])
	sum := binary.LittleEndian.Uint32(buf[8:12])
	if keyLen == 0 || keyLen > maxKeyLen || payloadLen > maxPayloadLen {
		return nil, nil, buf, errFrameHeader
	}
	n := int(keyLen) + int(payloadLen)
	if int64(n) > limit-off-frameHdrLen {
		return nil, nil, buf, io.ErrUnexpectedEOF
	}
	if cap(buf) < frameHdrLen+n {
		buf = make([]byte, frameHdrLen+n)
	}
	body := buf[frameHdrLen : frameHdrLen+n]
	if _, err := r.ReadAt(body, off+frameHdrLen); err != nil {
		return nil, nil, buf, err
	}
	if crc32.ChecksumIEEE(body) != sum {
		return nil, nil, buf, errFrameChecksum
	}
	return body[:keyLen], body[keyLen:], buf, nil
}

// walkFrames calls fn for each intact frame of r from off towards
// limit, in order, and returns the first offset it could not account
// for: limit after a clean walk, otherwise the start of the first frame
// that is short, implausible or fails its checksum — a torn tail to the
// recovery scan, a write in flight to the watch tail. key and payload
// are only valid during the call. An error from fn stops the walk at
// that frame's offset and is returned; decoding failures are not errors.
func walkFrames(r io.ReaderAt, off, limit int64, fn func(off int64, key, payload []byte) error) (int64, error) {
	var buf []byte
	for off < limit {
		key, payload, scratch, err := readFrameAt(r, off, limit, buf)
		buf = scratch
		if err != nil {
			break
		}
		if err := fn(off, key, payload); err != nil {
			return off, err
		}
		off += frameHdrLen + int64(len(key)+len(payload))
	}
	return off, nil
}

// Row payload, version 1. No float is reformatted on the way in or out,
// so a decoded row is the exact value the JSON round trip produced
// (strings are kept byte for byte, where JSON replaced invalid UTF-8).
const rowTagBinary = 0x01

const (
	rowSimulated      = 1 << iota // SessionRow.Simulated
	rowHasArms                    // Arms is non-nil (it may still be empty)
	rowHasPredictions             // Predictions is non-nil
	rowFlagsMask      = rowSimulated | rowHasArms | rowHasPredictions
)

const (
	armHasTruth   = 1 << iota // ArmOutcome.HasTruth
	armHasSamples             // Samples is non-nil
	armFlagsMask  = armHasTruth | armHasSamples
)

// The fewest bytes one element of each counted sequence occupies; a
// decoder checks a count against remaining/minimum before it allocates.
const (
	metricFloats  = 6
	minMetricsLen = metricFloats*8 + 2
	minArmLen     = 1 + 1 + minMetricsLen + 1 + minMetricsLen
	maxMetricsLen = metricFloats*8 + 2*binary.MaxVarintLen64
)

// finite reports whether f is neither NaN nor ±Inf.
func finite(f float64) bool { return f-f == 0 }

// encodeRow appends row's payload to dst. It refuses a row holding a NaN
// or an infinity — as the JSON encoder before it did, so none is in any
// store and no report has to render one — and returns dst unextended.
func encodeRow(dst []byte, row engine.SessionRow) ([]byte, error) {
	start, ok := len(dst), true
	b := append(dst, rowTagBinary)
	b = binary.AppendVarint(b, int64(row.Index))
	b = appendString(b, row.ID)
	b = appendString(b, row.Scenario)
	var flags byte
	if row.Simulated {
		flags |= rowSimulated
	}
	if row.Arms != nil {
		flags |= rowHasArms
	}
	if row.Predictions != nil {
		flags |= rowHasPredictions
	}
	b = append(b, flags)
	b = appendMetrics(b, &row.SettingA, &ok)
	b = binary.AppendUvarint(b, uint64(len(row.Arms)))
	for i := range row.Arms {
		arm := &row.Arms[i]
		b = appendString(b, arm.Name)
		flags = 0
		if arm.HasTruth {
			flags |= armHasTruth
		}
		if arm.Samples != nil {
			flags |= armHasSamples
		}
		b = append(b, flags)
		b = appendMetrics(b, &arm.Baseline, &ok)
		b = binary.AppendUvarint(b, uint64(len(arm.Samples)))
		for j := range arm.Samples {
			b = appendMetrics(b, &arm.Samples[j], &ok)
		}
		b = appendMetrics(b, &arm.Truth, &ok)
	}
	b = binary.AppendUvarint(b, uint64(len(row.Predictions)))
	for _, p := range row.Predictions {
		ok = ok && finite(p)
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(p))
	}
	if !ok {
		return b[:start], fmt.Errorf("row %q holds a NaN or infinite value", row.ID)
	}
	return b, nil
}

// maxRowLen bounds the length of row's payload from above, so a frame
// buffer can be sized once.
func maxRowLen(row engine.SessionRow) int {
	n := 1 + 5*binary.MaxVarintLen64 + len(row.ID) + len(row.Scenario) + 1 + maxMetricsLen + 8*len(row.Predictions)
	for i := range row.Arms {
		n += 2*binary.MaxVarintLen64 + len(row.Arms[i].Name) + 1 + (2+len(row.Arms[i].Samples))*maxMetricsLen
	}
	return n
}

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// appendMetrics appends m — six floats bit for bit, two varints — and
// clears *ok when a float is not finite.
func appendMetrics(b []byte, m *player.Metrics, ok *bool) []byte {
	for _, f := range [metricFloats]float64{m.AvgSSIM, m.RebufRatio, m.AvgBitrateMbps, m.RebufSeconds, m.PlaybackSeconds, m.SessionSeconds} {
		*ok = *ok && finite(f)
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
	}
	b = binary.AppendVarint(b, int64(m.NumChunks))
	return binary.AppendVarint(b, int64(m.QualitySwitches))
}

// decodeRow is encodeRow's inverse, and also reads the JSON payload
// stores held before the binary one: the first byte says which. Any
// other first byte is a format this build does not know — refused by
// name, never guessed at.
func decodeRow(payload []byte) (row engine.SessionRow, err error) {
	body, isJSON, err := rowFormat(payload)
	switch {
	case err != nil:
		return row, err
	case isJSON:
		err = json.Unmarshal(payload, &row)
		return row, err
	}
	d := rowDecoder{b: body}
	row.Index = d.int()
	row.ID = d.string()
	row.Scenario = d.string()
	flags := d.flags(rowFlagsMask)
	row.Simulated = flags&rowSimulated != 0
	d.metrics(&row.SettingA)
	if n := d.count(minArmLen, flags&rowHasArms != 0); n >= 0 {
		row.Arms = make([]engine.ArmOutcome, n)
	}
	for i := range row.Arms {
		arm := &row.Arms[i]
		arm.Name = d.string()
		armFlags := d.flags(armFlagsMask)
		arm.HasTruth = armFlags&armHasTruth != 0
		d.metrics(&arm.Baseline)
		if n := d.count(minMetricsLen, armFlags&armHasSamples != 0); n >= 0 {
			arm.Samples = make([]player.Metrics, n)
		}
		for j := range arm.Samples {
			d.metrics(&arm.Samples[j])
		}
		d.metrics(&arm.Truth)
	}
	if n := d.count(8, flags&rowHasPredictions != 0); n >= 0 {
		row.Predictions = make([]float64, n)
	}
	for i := range row.Predictions {
		row.Predictions[i] = d.float()
	}
	if d.err == nil && len(d.b) != 0 {
		d.fail("%d bytes follow the row", len(d.b))
	}
	if d.err != nil {
		return engine.SessionRow{}, d.err
	}
	return row, nil
}

// peekRow extracts the index fields from a row payload without decoding
// the rest of it.
func peekRow(payload []byte) (scenario string, index int, err error) {
	body, isJSON, err := rowFormat(payload)
	switch {
	case err != nil:
		return "", 0, err
	case isJSON:
		var row struct {
			Index    int
			Scenario string
		}
		err = json.Unmarshal(payload, &row)
		return row.Scenario, row.Index, err
	}
	d := rowDecoder{b: body}
	index = d.int()
	d.bytes() // the ID: the frame's key already carries it
	scenario = d.string()
	return scenario, index, d.err
}

// rowFormat reads a payload's format tag: a binary row's bytes behind
// the tag, or isJSON for a whole-payload JSON row.
func rowFormat(payload []byte) (body []byte, isJSON bool, err error) {
	switch {
	case len(payload) == 0:
		return nil, false, errors.New("empty row payload")
	case payload[0] == '{':
		return nil, true, nil
	case payload[0] != rowTagBinary:
		return nil, false, fmt.Errorf("unknown row format tag 0x%02x", payload[0])
	}
	return payload[1:], false, nil
}

// rowDecoder consumes a binary row payload from the front. The first
// failure sticks and empties b, so every later read returns zero at once
// and callers check err when they are done. It accepts only what
// encodeRow writes — minimal varints, known flag bits, finite floats, a
// count only under its flag — so a row that decodes re-encodes to the
// same bytes.
type rowDecoder struct {
	b   []byte
	err error
}

func (d *rowDecoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("malformed row: "+format, args...)
	}
	d.b = nil
}

func (d *rowDecoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.b)
	if n <= 0 || (n > 1 && d.b[n-1] == 0) {
		d.fail("bad varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

// int reads a zig-zag varint that must fit the platform's int.
func (d *rowDecoder) int() int {
	u := d.uvarint()
	v := int64(u >> 1)
	if u&1 != 0 {
		v = ^v
	}
	if int64(int(v)) != v {
		d.fail("integer %d overflows int", v)
		return 0
	}
	return int(v)
}

// count reads an element count and checks it against the bytes that
// remain, at minLen per element, before the caller allocates. It returns
// -1 for a sequence that was nil when encoded (present is false), which
// must count zero elements.
func (d *rowDecoder) count(minLen int, present bool) int {
	n := d.uvarint()
	if n > uint64(len(d.b)/minLen) {
		d.fail("count %d exceeds the %d bytes that remain", n, len(d.b))
		return -1
	}
	if !present {
		if n != 0 {
			d.fail("count %d for an absent sequence", n)
		}
		return -1
	}
	return int(n)
}

func (d *rowDecoder) bytes() []byte {
	n := d.uvarint()
	if n > uint64(len(d.b)) {
		d.fail("string of %d bytes exceeds the %d that remain", n, len(d.b))
		return nil
	}
	s := d.b[:n]
	d.b = d.b[n:]
	return s
}

func (d *rowDecoder) string() string { return string(d.bytes()) }

func (d *rowDecoder) flags(mask byte) byte {
	if len(d.b) == 0 || d.b[0]&^mask != 0 {
		d.fail("bad flags byte")
		return 0
	}
	f := d.b[0]
	d.b = d.b[1:]
	return f
}

func (d *rowDecoder) float() float64 {
	if len(d.b) < 8 {
		d.fail("truncated float")
		return 0
	}
	f := math.Float64frombits(binary.LittleEndian.Uint64(d.b))
	if !finite(f) {
		d.fail("NaN or infinite value")
		return 0
	}
	d.b = d.b[8:]
	return f
}

func (d *rowDecoder) metrics(m *player.Metrics) {
	for _, f := range [metricFloats]*float64{&m.AvgSSIM, &m.RebufRatio, &m.AvgBitrateMbps, &m.RebufSeconds, &m.PlaybackSeconds, &m.SessionSeconds} {
		*f = d.float()
	}
	m.NumChunks = d.int()
	m.QualitySwitches = d.int()
}

// sealEnvelope wraps payload in the checksummed envelope the metadata
// files (sidecars, the partials snapshot) share, under an 8-byte magic.
func sealEnvelope(magic string, payload []byte) []byte {
	buf := make([]byte, 0, len(magic)+envelopeHdrLen+len(payload))
	buf = append(buf, magic...)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	return append(buf, payload...)
}

// openEnvelope returns the payload of an envelope sealed under magic,
// ok=false when raw is short, carries another magic, or its length or
// checksum does not verify. The payload aliases raw.
func openEnvelope(magic string, raw []byte) (payload []byte, ok bool) {
	if len(raw) < len(magic)+envelopeHdrLen || string(raw[:len(magic)]) != magic {
		return nil, false
	}
	sum := binary.LittleEndian.Uint32(raw[len(magic):])
	plen := binary.LittleEndian.Uint32(raw[len(magic)+4:])
	payload = raw[len(magic)+envelopeHdrLen:]
	if int64(plen) != int64(len(payload)) || crc32.ChecksumIEEE(payload) != sum {
		return nil, false
	}
	return payload, true
}
