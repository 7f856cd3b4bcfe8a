package store

// The store's byte formats, one encoder and one decoder each. Every
// other file works in frames, rows and envelope payloads; only this one
// knows how they are laid out, so a format change (ROADMAP item 4's
// binary rows, a frame-type byte) has one function to edit and the fuzz
// targets have one pure function per format to attack.
//
//   - Segment frame: u32 keyLen | u32 payloadLen | u32 crc32(key‖payload)
//     | key | payload — appendFrame / readFrameAt / walkFrames.
//   - Row payload: the engine.SessionRow as JSON — encodeRow / decodeRow
//     / peekRow.
//   - Envelope (sidecars, the partials snapshot): 8-byte magic |
//     u32 crc32(payload) | u32 payloadLen | payload — sealEnvelope /
//     openEnvelope.
//
// All integers are little-endian, all checksums CRC-32 (IEEE). Decoders
// never allocate from a length field before checking it against the
// bytes that actually exist: a corrupt header costs an error, not memory.

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"io"

	"veritas/internal/engine"
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

// appendFrame appends the frame for (key, payload) to dst, growing it
// once.
func appendFrame(dst []byte, key string, payload []byte) []byte {
	start := len(dst)
	dst = append(dst, make([]byte, frameHdrLen+len(key)+len(payload))...)
	f := dst[start:]
	binary.LittleEndian.PutUint32(f[0:], uint32(len(key)))
	binary.LittleEndian.PutUint32(f[4:], uint32(len(payload)))
	copy(f[frameHdrLen:], key)
	copy(f[frameHdrLen+len(key):], payload)
	binary.LittleEndian.PutUint32(f[8:], crc32.ChecksumIEEE(f[frameHdrLen:]))
	return dst
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

// encodeRow serializes a row as a frame payload.
func encodeRow(row engine.SessionRow) ([]byte, error) { return json.Marshal(row) }

// decodeRow is encodeRow's inverse.
func decodeRow(payload []byte) (row engine.SessionRow, err error) {
	err = json.Unmarshal(payload, &row)
	return row, err
}

// peekRow extracts the index fields from a row payload without keeping
// the decoded row.
func peekRow(payload []byte) (scenario string, index int) {
	var row struct {
		Index    int
		Scenario string
	}
	if json.Unmarshal(payload, &row) == nil {
		return row.Scenario, row.Index
	}
	return "", 0
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
