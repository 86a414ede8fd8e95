// Package recovery holds the durable half of Squall's live fault tolerance
// (§5): checkpoint manifests, the checkpoint container format, and the
// pluggable stores checkpoints persist to. The live half — failure
// detection, the quiesce barrier, peer refetch and exactly-once replay —
// lives in internal/dataflow (recover.go); this package deliberately depends
// on nothing but the codec conventions shared with internal/wire, so stores
// can be exercised and fuzzed in isolation.
//
// A checkpoint is a per-task snapshot of one component's operator state:
//
//   - a Manifest naming the component and task plus, per input edge
//     (upstream stream name, producer task), the sequence number of the last
//     envelope applied before the snapshot — the cursors exactly-once replay
//     resumes from, and
//   - per relation, the stored tuples as ready-made wire batch frames,
//     blitted from the slab arenas (slab.Arena.EachFrame /
//     dataflow.Repartitioner.ExportStateFrames) without re-materializing
//     tuples.
//
// Rows being byte-identical to the wire encoding is what makes checkpoints
// cheap: a checkpoint write is a memcpy of packed rows plus a small
// manifest, never an O(values) re-encode.
package recovery

import (
	"encoding/binary"
	"fmt"
)

// Cursor records the replay position of one input edge: the sequence number
// of the last envelope from (Stream, FromTask) applied before the snapshot.
type Cursor struct {
	Stream   string
	FromTask int
	Seq      int64
}

// Manifest identifies a checkpoint and carries its replay cursors.
type Manifest struct {
	// Component and Task name the owning joiner task.
	Component string
	Task      int
	// Rels is the number of per-relation frame sets in the checkpoint body.
	Rels int
	// Cursors holds one entry per (input stream, producer task) pair.
	Cursors []Cursor
}

// CursorFor returns the recorded sequence for one input edge (0 when the
// manifest has no entry — nothing had been applied from that producer).
func (m *Manifest) CursorFor(stream string, fromTask int) int64 {
	for _, c := range m.Cursors {
		if c.Stream == stream && c.FromTask == fromTask {
			return c.Seq
		}
	}
	return 0
}

// SegmentRef references one sealed slab segment from an incremental (v2)
// checkpoint: the segment blob was persisted to the segment side of the
// store once, at seal time, under Key; the checkpoint carries only the
// reference. CRC pins the exact blob — a substituted or corrupted segment
// fails verification at restore instead of fabricating rows. Dead is an
// optional per-row skip bitmap the v2 codec keeps: arenas are append-only
// and write none, and restore skips any row it marks.
type SegmentRef struct {
	Key  string
	CRC  uint32
	Rows int64
	Dead []uint64
}

// Checkpoint is one task's full snapshot: the manifest plus, per relation,
// the stored tuples as wire batch frames.
type Checkpoint struct {
	Manifest Manifest
	// Frames[rel] is relation rel's state as encoded wire batch frames. In
	// an incremental (v2) checkpoint these cover only the hot (unsealed)
	// rows; sealed rows are referenced through Segments.
	Frames [][][]byte
	// Segments[rel], when non-nil, lists relation rel's sealed segments by
	// store reference (v2 checkpoints only; nil in v1).
	Segments [][]SegmentRef
	// Tuples counts the stored tuples across relations (metrics only).
	Tuples int64
}

// manifestMagic tags encoded manifests; version byte follows.
const (
	manifestMagic   = "SQMF"
	manifestVersion = 1
	checkpointMagic = "SQCK"
	// checkpointVersion 1 is the full-frame format; 2 appends per-relation
	// sealed-segment reference lists (incremental checkpoints). v1 blobs
	// stay decodable forever.
	checkpointVersion   = 1
	checkpointVersionV2 = 2
)

// AppendManifest appends m's encoding to dst and returns the extended slice.
//
//	manifest := "SQMF" ver str(component) uv(task) uv(rels) uv(ncursors) cursor*
//	cursor   := str(stream) uv(fromTask) uv(seq)
//	str      := uv(len) bytes
func AppendManifest(dst []byte, m *Manifest) []byte {
	dst = append(dst, manifestMagic...)
	dst = append(dst, manifestVersion)
	dst = appendString(dst, m.Component)
	dst = binary.AppendUvarint(dst, uint64(m.Task))
	dst = binary.AppendUvarint(dst, uint64(m.Rels))
	dst = binary.AppendUvarint(dst, uint64(len(m.Cursors)))
	for _, c := range m.Cursors {
		dst = appendString(dst, c.Stream)
		dst = binary.AppendUvarint(dst, uint64(c.FromTask))
		dst = binary.AppendUvarint(dst, uint64(c.Seq))
	}
	return dst
}

// DecodeManifest parses one manifest from src, returning it and the bytes
// consumed. It never panics on malformed input (fuzzed contract).
func DecodeManifest(src []byte) (*Manifest, int, error) {
	pos, err := expectHeader(src, manifestMagic, manifestVersion)
	if err != nil {
		return nil, 0, fmt.Errorf("recovery: manifest: %w", err)
	}
	m := &Manifest{}
	if m.Component, pos, err = decodeString(src, pos); err != nil {
		return nil, 0, fmt.Errorf("recovery: manifest component: %w", err)
	}
	var u uint64
	if u, pos, err = decodeUvarint(src, pos); err != nil {
		return nil, 0, fmt.Errorf("recovery: manifest task: %w", err)
	}
	m.Task = int(u)
	if u, pos, err = decodeUvarint(src, pos); err != nil {
		return nil, 0, fmt.Errorf("recovery: manifest rels: %w", err)
	}
	m.Rels = int(u)
	var n uint64
	if n, pos, err = decodeUvarint(src, pos); err != nil {
		return nil, 0, fmt.Errorf("recovery: manifest cursor count: %w", err)
	}
	// Cheap sanity bound (a cursor needs >= 3 bytes), so a corrupt count
	// cannot force a huge allocation.
	if n > uint64(len(src)-pos) {
		return nil, 0, fmt.Errorf("recovery: manifest cursor count %d exceeds buffer", n)
	}
	m.Cursors = make([]Cursor, 0, n)
	for i := uint64(0); i < n; i++ {
		var c Cursor
		if c.Stream, pos, err = decodeString(src, pos); err != nil {
			return nil, 0, fmt.Errorf("recovery: cursor %d stream: %w", i, err)
		}
		if u, pos, err = decodeUvarint(src, pos); err != nil {
			return nil, 0, fmt.Errorf("recovery: cursor %d task: %w", i, err)
		}
		c.FromTask = int(u)
		if u, pos, err = decodeUvarint(src, pos); err != nil {
			return nil, 0, fmt.Errorf("recovery: cursor %d seq: %w", i, err)
		}
		c.Seq = int64(u)
		m.Cursors = append(m.Cursors, c)
	}
	return m, pos, nil
}

// AppendCheckpoint appends ck's encoding to dst: the manifest followed by
// the per-relation frame sets.
//
//	checkpoint := "SQCK" ver manifest uv(tuples) uv(nrels) relFrames* [segs]
//	relFrames  := uv(nframes) { uv(len) frameBytes }*
//	segs       := uv(nrels) relSegs*                        (version 2 only)
//	relSegs    := uv(nsegs) { str(key) uv(crc) uv(rows) uv(nwords) word64le* }*
func AppendCheckpoint(dst []byte, ck *Checkpoint) []byte {
	ver := byte(checkpointVersion)
	if ck.Segments != nil {
		ver = checkpointVersionV2
	}
	dst = append(dst, checkpointMagic...)
	dst = append(dst, ver)
	dst = AppendManifest(dst, &ck.Manifest)
	dst = binary.AppendUvarint(dst, uint64(ck.Tuples))
	dst = binary.AppendUvarint(dst, uint64(len(ck.Frames)))
	for _, frames := range ck.Frames {
		dst = binary.AppendUvarint(dst, uint64(len(frames)))
		for _, f := range frames {
			dst = binary.AppendUvarint(dst, uint64(len(f)))
			dst = append(dst, f...)
		}
	}
	if ck.Segments != nil {
		dst = binary.AppendUvarint(dst, uint64(len(ck.Segments)))
		for _, segs := range ck.Segments {
			dst = binary.AppendUvarint(dst, uint64(len(segs)))
			for _, s := range segs {
				dst = appendString(dst, s.Key)
				dst = binary.AppendUvarint(dst, uint64(s.CRC))
				dst = binary.AppendUvarint(dst, uint64(s.Rows))
				dst = binary.AppendUvarint(dst, uint64(len(s.Dead)))
				for _, w := range s.Dead {
					dst = binary.LittleEndian.AppendUint64(dst, w)
				}
			}
		}
	}
	return dst
}

// DecodeCheckpoint parses one checkpoint blob, returning it and the bytes
// consumed. Frame byte slices are copied out of src.
func DecodeCheckpoint(src []byte) (*Checkpoint, int, error) {
	if len(src) < len(checkpointMagic)+1 {
		return nil, 0, fmt.Errorf("recovery: checkpoint: truncated header")
	}
	if string(src[:len(checkpointMagic)]) != checkpointMagic {
		return nil, 0, fmt.Errorf("recovery: checkpoint: bad magic %q", src[:len(checkpointMagic)])
	}
	ver := src[len(checkpointMagic)]
	if ver != checkpointVersion && ver != checkpointVersionV2 {
		return nil, 0, fmt.Errorf("recovery: checkpoint: unsupported version %d", ver)
	}
	pos := len(checkpointMagic) + 1
	var err error
	m, n, err := DecodeManifest(src[pos:])
	if err != nil {
		return nil, 0, err
	}
	pos += n
	ck := &Checkpoint{Manifest: *m}
	var u uint64
	if u, pos, err = decodeUvarint(src, pos); err != nil {
		return nil, 0, fmt.Errorf("recovery: checkpoint tuples: %w", err)
	}
	ck.Tuples = int64(u)
	var nrels uint64
	if nrels, pos, err = decodeUvarint(src, pos); err != nil {
		return nil, 0, fmt.Errorf("recovery: checkpoint rel count: %w", err)
	}
	if nrels > uint64(len(src)-pos) {
		return nil, 0, fmt.Errorf("recovery: checkpoint rel count %d exceeds buffer", nrels)
	}
	ck.Frames = make([][][]byte, 0, nrels)
	for r := uint64(0); r < nrels; r++ {
		var nframes uint64
		if nframes, pos, err = decodeUvarint(src, pos); err != nil {
			return nil, 0, fmt.Errorf("recovery: rel %d frame count: %w", r, err)
		}
		if nframes > uint64(len(src)-pos) {
			return nil, 0, fmt.Errorf("recovery: rel %d frame count %d exceeds buffer", r, nframes)
		}
		frames := make([][]byte, 0, nframes)
		for f := uint64(0); f < nframes; f++ {
			var l uint64
			if l, pos, err = decodeUvarint(src, pos); err != nil {
				return nil, 0, fmt.Errorf("recovery: rel %d frame %d length: %w", r, f, err)
			}
			if l > uint64(len(src)-pos) {
				return nil, 0, fmt.Errorf("recovery: rel %d frame %d length %d exceeds buffer", r, f, l)
			}
			frames = append(frames, append([]byte(nil), src[pos:pos+int(l)]...))
			pos += int(l)
		}
		ck.Frames = append(ck.Frames, frames)
	}
	if ver == checkpointVersionV2 {
		var nrels2 uint64
		if nrels2, pos, err = decodeUvarint(src, pos); err != nil {
			return nil, 0, fmt.Errorf("recovery: segment rel count: %w", err)
		}
		if nrels2 > uint64(len(src)-pos)+1 {
			return nil, 0, fmt.Errorf("recovery: segment rel count %d exceeds buffer", nrels2)
		}
		ck.Segments = make([][]SegmentRef, 0, nrels2)
		for r := uint64(0); r < nrels2; r++ {
			var nsegs uint64
			if nsegs, pos, err = decodeUvarint(src, pos); err != nil {
				return nil, 0, fmt.Errorf("recovery: rel %d segment count: %w", r, err)
			}
			if nsegs > uint64(len(src)-pos) {
				return nil, 0, fmt.Errorf("recovery: rel %d segment count %d exceeds buffer", r, nsegs)
			}
			segs := make([]SegmentRef, 0, nsegs)
			for i := uint64(0); i < nsegs; i++ {
				var s SegmentRef
				if s.Key, pos, err = decodeString(src, pos); err != nil {
					return nil, 0, fmt.Errorf("recovery: segment %d/%d key: %w", r, i, err)
				}
				var u uint64
				if u, pos, err = decodeUvarint(src, pos); err != nil {
					return nil, 0, fmt.Errorf("recovery: segment %d/%d crc: %w", r, i, err)
				}
				s.CRC = uint32(u)
				if u, pos, err = decodeUvarint(src, pos); err != nil {
					return nil, 0, fmt.Errorf("recovery: segment %d/%d rows: %w", r, i, err)
				}
				s.Rows = int64(u)
				var nwords uint64
				if nwords, pos, err = decodeUvarint(src, pos); err != nil {
					return nil, 0, fmt.Errorf("recovery: segment %d/%d dead words: %w", r, i, err)
				}
				if nwords*8 > uint64(len(src)-pos) {
					return nil, 0, fmt.Errorf("recovery: segment %d/%d dead bitmap exceeds buffer", r, i)
				}
				s.Dead = make([]uint64, nwords)
				for w := uint64(0); w < nwords; w++ {
					s.Dead[w] = binary.LittleEndian.Uint64(src[pos:])
					pos += 8
				}
				segs = append(segs, s)
			}
			ck.Segments = append(ck.Segments, segs)
		}
	}
	return ck, pos, nil
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func expectHeader(src []byte, magic string, version byte) (int, error) {
	if len(src) < len(magic)+1 {
		return 0, fmt.Errorf("truncated header")
	}
	if string(src[:len(magic)]) != magic {
		return 0, fmt.Errorf("bad magic %q", src[:len(magic)])
	}
	if src[len(magic)] != version {
		return 0, fmt.Errorf("unsupported version %d", src[len(magic)])
	}
	return len(magic) + 1, nil
}

func decodeUvarint(src []byte, pos int) (uint64, int, error) {
	if pos >= len(src) {
		return 0, 0, fmt.Errorf("truncated varint")
	}
	v, c := binary.Uvarint(src[pos:])
	if c <= 0 {
		return 0, 0, fmt.Errorf("bad varint")
	}
	return v, pos + c, nil
}

func decodeString(src []byte, pos int) (string, int, error) {
	l, pos, err := decodeUvarint(src, pos)
	if err != nil {
		return "", 0, err
	}
	if l > uint64(len(src)-pos) {
		return "", 0, fmt.Errorf("string length %d exceeds buffer", l)
	}
	return string(src[pos : pos+int(l)]), pos + int(l), nil
}
