package slab

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Sealed-segment codec. A sealed segment is an append-frozen run of packed
// rows lifted out of an arena's hot region: its rows never change again, so
// it can be written to disk once and faulted back in on demand. The encoding
// is header-led ("SQSG" magic, version, row count, per-row byte spans) with
// the raw row payload following and a CRC32 trailer over every preceding
// byte — a torn write, a flipped bit or a truncated file is detected before
// a single row is decoded. Every row is a wire-encoded tuple, which is never
// empty, so a zero-length span is corruption and fails the decode.

const (
	segMagic   = "SQSG"
	segVersion = 1
	segCRCLen  = 4 // little-endian CRC32 (IEEE) trailer
)

// ErrSegmentCorrupt is the sentinel under every segment decode failure;
// match with errors.Is.
var ErrSegmentCorrupt = errors.New("slab: corrupt segment")

// AppendSegment encodes one sealed segment to dst and returns the extended
// slice. offs must hold nrows+1 local byte offsets (offs[i] = start of row i
// in payload, offs[nrows] = len(payload)); payload is the packed row bytes.
func AppendSegment(dst []byte, offs []uint32, payload []byte) []byte {
	base := len(dst)
	dst = append(dst, segMagic...)
	dst = append(dst, segVersion)
	nrows := len(offs) - 1
	dst = binary.AppendUvarint(dst, uint64(nrows))
	for i := 0; i < nrows; i++ {
		dst = binary.AppendUvarint(dst, uint64(offs[i+1]-offs[i]))
	}
	dst = append(dst, payload...)
	crc := crc32.ChecksumIEEE(dst[base:])
	return binary.LittleEndian.AppendUint32(dst, crc)
}

// DecodeSegment decodes one sealed segment with no other knowledge of it —
// the checkpoint-restore path, where no offset table is resident. (Fault-in
// verifies against the segment's seal-time identity instead; see
// segment.verify in tier.go.) It returns the reconstructed
// local offset table (nrows+1 entries, end sentinel included), the row
// payload (aliasing src — callers must not mutate it), and the CRC recorded
// in the trailer. It never panics on malformed input and bounds every
// allocation by len(src): any mutation of an encoded segment fails the CRC.
func DecodeSegment(src []byte) (offs []uint32, payload []byte, crc uint32, err error) {
	if len(src) < len(segMagic)+1+1+segCRCLen {
		return nil, nil, 0, fmt.Errorf("%w: short segment (%d bytes)", ErrSegmentCorrupt, len(src))
	}
	body, tail := src[:len(src)-segCRCLen], src[len(src)-segCRCLen:]
	crc = binary.LittleEndian.Uint32(tail)
	if crc32.ChecksumIEEE(body) != crc {
		return nil, nil, 0, fmt.Errorf("%w: checksum mismatch", ErrSegmentCorrupt)
	}
	if string(body[:len(segMagic)]) != segMagic {
		return nil, nil, 0, fmt.Errorf("%w: bad magic", ErrSegmentCorrupt)
	}
	if body[len(segMagic)] != segVersion {
		return nil, nil, 0, fmt.Errorf("%w: unsupported version %d", ErrSegmentCorrupt, body[len(segMagic)])
	}
	pos := len(segMagic) + 1
	nrows, c := binary.Uvarint(body[pos:])
	if c <= 0 {
		return nil, nil, 0, fmt.Errorf("%w: bad row count", ErrSegmentCorrupt)
	}
	pos += c
	// Each span costs at least one header byte, so nrows is bounded by the
	// remaining body even before spans are read (allocation bound).
	if nrows > uint64(len(body)-pos) {
		return nil, nil, 0, fmt.Errorf("%w: row count %d exceeds body", ErrSegmentCorrupt, nrows)
	}
	offs = make([]uint32, nrows+1)
	var total uint64
	for i := uint64(0); i < nrows; i++ {
		span, c := binary.Uvarint(body[pos:])
		if c <= 0 {
			return nil, nil, 0, fmt.Errorf("%w: bad span %d", ErrSegmentCorrupt, i)
		}
		pos += c
		if span == 0 {
			return nil, nil, 0, fmt.Errorf("%w: empty row span %d", ErrSegmentCorrupt, i)
		}
		total += span
		if total > uint64(len(body)) {
			return nil, nil, 0, fmt.Errorf("%w: spans exceed body", ErrSegmentCorrupt)
		}
		offs[i+1] = uint32(total)
	}
	payload = body[pos:]
	if uint64(len(payload)) != total {
		return nil, nil, 0, fmt.Errorf("%w: payload %dB, spans say %dB", ErrSegmentCorrupt, len(payload), total)
	}
	return offs, payload, crc, nil
}
