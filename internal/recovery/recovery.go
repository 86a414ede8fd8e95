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
//     tuples, plus the sealed segments of tiered state by reference
//     (SegmentRef), whose rows the frames then leave out.
//
// Rows being byte-identical to the wire encoding is what makes checkpoints
// cheap: a checkpoint write is a memcpy of packed rows plus a small
// manifest, never an O(values) re-encode. One encoding carries both kinds
// of state: every relation has a frame list and a segment list, either of
// which may be empty.
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
	// Rels is the number of relations in the checkpoint body.
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

// SegmentRef references one sealed slab segment from an incremental
// checkpoint: the segment blob was persisted to the segment side of the
// store once, at seal time, under Key; the checkpoint carries only the
// reference. CRC pins the exact blob — a substituted or corrupted segment
// fails verification at restore instead of fabricating rows.
type SegmentRef struct {
	Key  string
	CRC  uint32
	Rows int64
	// Deprecated: Dead is never encoded or read; it stays only while
	// bench/replay.go sets it (ROADMAP item 20 deletes both).
	Dead []uint64
}

// Checkpoint is one task's full snapshot: the manifest plus, per relation,
// the stored tuples as wire batch frames and the sealed segments it
// references.
type Checkpoint struct {
	Manifest Manifest
	// Frames[rel] is relation rel's state as encoded wire batch frames. In
	// an incremental checkpoint these cover only the hot (unsealed) rows;
	// sealed rows are referenced through Segments.
	Frames [][][]byte
	// Segments[rel] lists relation rel's sealed segments by store
	// reference; a relation whose state is not tiered lists none. Decoding
	// leaves Segments nil when no relation references a segment.
	Segments [][]SegmentRef
	// Tuples counts the stored tuples across relations (metrics only).
	Tuples int64
}

// checkpointMagic tags encoded checkpoints; the version byte follows. Only
// checkpointVersion is read: a restore reads checkpoints its own run wrote,
// so versions 1 to 3 (full frames without segment lists, a per-row skip
// bitmap after each reference, and segment lists in a second pass behind a
// nested manifest header) are refused as unsupported rather than misparsed.
const (
	checkpointMagic   = "SQCK"
	checkpointVersion = 4
)

// AppendCheckpoint appends ck's encoding to dst and returns the extended
// slice. Every relation carries its frames and its segment-reference list,
// either possibly empty; the relation count is Manifest.Rels, raised to
// the length of Frames or Segments when either is longer.
//
//	checkpoint := "SQCK" ver str(component) uv(task) uv(nrels)
//	              uv(ncursors) cursor* uv(tuples) rel*
//	cursor     := str(stream) uv(fromTask) uv(seq)
//	rel        := uv(nframes) { uv(len) frameBytes }*
//	              uv(nsegs) { str(key) uv(crc) uv(rows) }*
//	str        := uv(len) bytes
func AppendCheckpoint(dst []byte, ck *Checkpoint) []byte {
	m := &ck.Manifest
	rels := max(m.Rels, len(ck.Frames), len(ck.Segments))
	dst = append(dst, checkpointMagic...)
	dst = append(dst, checkpointVersion)
	dst = appendString(dst, m.Component)
	dst = binary.AppendUvarint(dst, uint64(m.Task))
	dst = binary.AppendUvarint(dst, uint64(rels))
	dst = binary.AppendUvarint(dst, uint64(len(m.Cursors)))
	for _, c := range m.Cursors {
		dst = appendString(dst, c.Stream)
		dst = binary.AppendUvarint(dst, uint64(c.FromTask))
		dst = binary.AppendUvarint(dst, uint64(c.Seq))
	}
	dst = binary.AppendUvarint(dst, uint64(ck.Tuples))
	for rel := range rels {
		var frames [][]byte
		var segs []SegmentRef
		if rel < len(ck.Frames) {
			frames = ck.Frames[rel]
		}
		if rel < len(ck.Segments) {
			segs = ck.Segments[rel]
		}
		dst = binary.AppendUvarint(dst, uint64(len(frames)))
		for _, f := range frames {
			dst = binary.AppendUvarint(dst, uint64(len(f)))
			dst = append(dst, f...)
		}
		dst = binary.AppendUvarint(dst, uint64(len(segs)))
		for _, s := range segs {
			dst = appendString(dst, s.Key)
			dst = binary.AppendUvarint(dst, uint64(s.CRC))
			dst = binary.AppendUvarint(dst, uint64(s.Rows))
		}
	}
	return dst
}

// DecodeCheckpoint parses one checkpoint blob, returning it and the bytes
// consumed. Frame byte slices are copied out of src. It never panics on
// malformed input (fuzzed contract).
func DecodeCheckpoint(src []byte) (*Checkpoint, int, error) {
	if len(src) < len(checkpointMagic)+1 {
		return nil, 0, fmt.Errorf("recovery: checkpoint: truncated header")
	}
	if string(src[:len(checkpointMagic)]) != checkpointMagic {
		return nil, 0, fmt.Errorf("recovery: checkpoint: bad magic %q", src[:len(checkpointMagic)])
	}
	if v := src[len(checkpointMagic)]; v != checkpointVersion {
		return nil, 0, fmt.Errorf("recovery: checkpoint: unsupported version %d", v)
	}
	d := decoder{src: src, pos: len(checkpointMagic) + 1}
	ck := &Checkpoint{}
	m := &ck.Manifest
	m.Component = d.str("component")
	m.Task = int(d.uvarint("task"))
	m.Rels = d.count("relation count")
	m.Cursors = make([]Cursor, d.count("cursor count"))
	for i := range m.Cursors {
		c := &m.Cursors[i]
		c.Stream = d.str("cursor stream")
		c.FromTask = int(d.uvarint("cursor task"))
		c.Seq = int64(d.uvarint("cursor seq"))
	}
	ck.Tuples = int64(d.uvarint("tuples"))
	ck.Frames = make([][][]byte, m.Rels)
	segs := make([][]SegmentRef, m.Rels)
	nsegs := 0
	for rel := 0; rel < m.Rels && d.err == nil; rel++ {
		frames := make([][]byte, d.count("frame count"))
		for i := range frames {
			frames[i] = d.bytes("frame")
		}
		ck.Frames[rel] = frames
		for n := d.count("segment count"); n > 0 && d.err == nil; n-- {
			s := SegmentRef{Key: d.str("segment key")}
			s.CRC = uint32(d.uvarint("segment crc"))
			s.Rows = int64(d.uvarint("segment rows"))
			segs[rel] = append(segs[rel], s)
			nsegs++
		}
	}
	if d.err != nil {
		return nil, 0, fmt.Errorf("recovery: checkpoint %w", d.err)
	}
	if nsegs > 0 {
		ck.Segments = segs
	}
	return ck, d.pos, nil
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// decoder reads a checkpoint body. The first failure sticks: every later
// read returns a zero value, so DecodeCheckpoint checks d.err once.
type decoder struct {
	src []byte
	pos int
	err error
}

func (d *decoder) uvarint(what string) uint64 {
	if d.err != nil {
		return 0
	}
	if d.pos >= len(d.src) {
		d.err = fmt.Errorf("%s: truncated varint", what)
		return 0
	}
	v, n := binary.Uvarint(d.src[d.pos:])
	if n <= 0 {
		d.err = fmt.Errorf("%s: bad varint", what)
		return 0
	}
	d.pos += n
	return v
}

// count reads an element count. Every element takes at least one byte, so a
// count past the remaining bytes is corrupt and cannot force a huge
// allocation.
func (d *decoder) count(what string) int {
	n := d.uvarint(what)
	if d.err == nil && n > uint64(len(d.src)-d.pos) {
		d.err = fmt.Errorf("%s %d exceeds buffer", what, n)
		return 0
	}
	return int(n)
}

// bytes reads a length-prefixed byte string into a fresh copy.
func (d *decoder) bytes(what string) []byte {
	n := d.count(what + " length")
	if d.err != nil {
		return nil
	}
	b := append([]byte(nil), d.src[d.pos:d.pos+n]...)
	d.pos += n
	return b
}

func (d *decoder) str(what string) string {
	n := d.count(what + " length")
	if d.err != nil {
		return ""
	}
	s := string(d.src[d.pos : d.pos+n])
	d.pos += n
	return s
}
