// Package slab provides the compact state engine Squall's stateful operators
// store tuples in (§3.3 is explicit that operator state, not transport,
// bounds a main-memory engine at scale). An Arena keeps rows packed
// back-to-back in one byte slab using the wire tuple encoding — varint
// zigzag ints, 8-byte floats, length-prefixed strings inlined next to their
// row — addressed by 32-bit row refs. A million stored tuples are one slice
// of bytes plus one slice of offsets instead of millions of boxed
// []types.Value objects, so the GC scans O(1) pointers and MemSize reports
// the real footprint.
//
// Rows being byte-identical to the wire encoding is load-bearing: state
// migration (internal/dataflow/adapt.go) blits stored rows straight into
// batch frames without ever re-materializing []types.Value tuples.
//
// State is append-only: the reproduction keeps full history (the paper's §2
// windows are not reproduced), so a row is never deleted, refs are dense
// and never reused, and every ref below Rows is a stored row.
package slab

import (
	"encoding/binary"
	"fmt"
	"math"

	"squall/internal/types"
	"squall/internal/wire"
)

// Ref addresses one row of an Arena. Refs are dense row ordinals (not byte
// offsets), so indexes store 4-byte postings and iteration order is arrival
// order.
type Ref uint32

// NoRef is the sentinel for "no row" (e.g. an absent relation in a view
// combo). It is not a valid Ref.
const NoRef Ref = math.MaxUint32

// Arena is an append-only packed row store. The zero value is not ready; use
// New. An Arena is owned by one task (not safe for concurrent use): Decode
// reuses internal scratch.
type Arena struct {
	buf  []byte   // wire-encoded rows, back to back (tiered: the hot region)
	offs []uint32 // offs[i] = start of row i in buf; end = offs[i+1] or len(buf)

	// t, when non-nil, runs the tiered state layer (tier.go): buf/offs hold
	// only the hot tail past the last seal and refs below the hot base
	// resolve through sealed segments. Nil keeps the single-slab behavior
	// bit for bit.
	t *tier

	// Decode scratch: string payloads of the row being decoded and which
	// output values they become, so one string conversion backs every string
	// value of a row (k string columns cost 1 allocation, not k).
	strbuf []byte
	spans  []valSpan
}

// valSpan marks out[val] as the string strbuf[off:end].
type valSpan struct {
	val, off, end int
}

// New returns an empty arena.
func New() *Arena { return &Arena{} }

// checkCapacity guards the 32-bit addressing: offsets and refs silently
// wrapping at 4 GiB / 2^32 rows would corrupt state, so a task whose single
// arena outgrows them fails loudly instead (shard the operator wider).
func (a *Arena) checkCapacity() {
	if uint64(len(a.buf)) > math.MaxUint32 {
		panic("slab: arena exceeds 4 GiB; 32-bit row offsets would wrap")
	}
	if Ref(a.Rows()) >= NoRef {
		panic("slab: arena exceeds 2^32-1 rows; refs would wrap")
	}
}

// AppendEncoded stores an already wire-encoded row (as produced by
// wire.Encode) and returns its ref. The bytes are copied.
func (a *Arena) AppendEncoded(row []byte) Ref {
	a.checkCapacity()
	ref := Ref(a.Rows())
	a.offs = append(a.offs, uint32(len(a.buf)))
	a.buf = append(a.buf, row...)
	if a.t != nil {
		a.t.afterAppend(a)
	}
	return ref
}

// Rows returns the number of stored rows. Valid refs are [0, Rows).
func (a *Arena) Rows() int {
	if a.t != nil {
		return a.t.hotBase() + len(a.offs)
	}
	return len(a.offs)
}

// rowSpan returns the [start, end) byte range of a row.
func (a *Arena) rowSpan(r Ref) (int, int) {
	if int(r) >= len(a.offs) {
		panic(fmt.Sprintf("slab: ref %d out of range (%d rows)", r, len(a.offs)))
	}
	start := int(a.offs[r])
	end := len(a.buf)
	if int(r)+1 < len(a.offs) {
		end = int(a.offs[r+1])
	}
	return start, end
}

// RowBytes returns the wire encoding of one row. The slice aliases the
// arena; callers must not retain it across Appends — nor, on a tiered
// arena, across other RowBytes calls on the same arena: a fault-in may
// evict the segment backing an earlier return and read another segment
// into the same buffer, so a retained slice can hold another segment's
// bytes, not stale-but-valid ones. Reading a spilled row faults its segment
// in from the store; a CRC failure panics *CorruptSegmentError.
//
// The tiered callers keep to this: localjoin's packed join holds one
// candidate cursor per relation, each relation its own arena, and resets a
// cursor before its arena's next RowBytes (arrivals are read through
// cursors over the delivered frame, never over an arena; a combo view's
// candidate sets the cursors of its relations, one arena each);
// framesFrom copies each row into the frame, and DecodeInto copies strings
// out before returning.
func (a *Arena) RowBytes(r Ref) []byte {
	if a.t != nil {
		return a.t.rowBytes(a, r)
	}
	start, end := a.rowSpan(r)
	return a.buf[start:end]
}

// Decode materializes one row as a fresh tuple.
func (a *Arena) Decode(r Ref) types.Tuple {
	return a.DecodeInto(nil, r)
}

// DecodeInto materializes one row into buf (reused when capacity allows) and
// returns it. Int and float values decode without allocating; string values
// are copied out of the slab (a types.Value holds a string, which must not
// alias mutable arena memory), all of a row's strings sharing one backing
// allocation. A malformed row is impossible without memory corruption —
// Append writes the encoding — so decode failures panic. The fast paths for
// 1–2 byte varints are inlined: this loop runs once per value of every
// probe match.
func (a *Arena) DecodeInto(buf types.Tuple, r Ref) types.Tuple {
	src := a.RowBytes(r)
	n, c := binary.Uvarint(src)
	if c <= 0 {
		panic("slab: corrupt row header")
	}
	pos := c
	out := buf[:0]
	if uint64(cap(out)) < n {
		// One exact-size allocation instead of append growth per value.
		out = make(types.Tuple, 0, n)
	}
	a.strbuf = a.strbuf[:0]
	a.spans = a.spans[:0]
	for i := uint64(0); i < n; i++ {
		if pos >= len(src) {
			panic("slab: truncated row")
		}
		kind := types.Kind(src[pos])
		pos++
		switch kind {
		case types.KindNull:
			out = append(out, types.Value{})
		case types.KindInt:
			var x int64
			if b := src[pos]; b < 0x80 {
				x = int64(b >> 1)
				if b&1 != 0 {
					x = ^x
				}
				pos++
			} else if pos+1 < len(src) && src[pos+1] < 0x80 {
				u := uint64(b&0x7f) | uint64(src[pos+1])<<7
				x = int64(u >> 1)
				if u&1 != 0 {
					x = ^x
				}
				pos += 2
			} else {
				var c int
				x, c = binary.Varint(src[pos:])
				if c <= 0 {
					panic("slab: corrupt int")
				}
				pos += c
			}
			out = append(out, types.Value{KindV: types.KindInt, I: x})
		case types.KindFloat:
			if pos+8 > len(src) {
				panic("slab: truncated float")
			}
			f := math.Float64frombits(binary.LittleEndian.Uint64(src[pos:]))
			out = append(out, types.Value{KindV: types.KindFloat, F: f})
			pos += 8
		case types.KindString:
			var l uint64
			if b := src[pos]; b < 0x80 {
				l = uint64(b)
				pos++
			} else {
				var c int
				l, c = binary.Uvarint(src[pos:])
				if c <= 0 {
					panic("slab: corrupt string length")
				}
				pos += c
			}
			if uint64(len(src)-pos) < l {
				panic("slab: truncated string")
			}
			off := len(a.strbuf)
			a.strbuf = append(a.strbuf, src[pos:pos+int(l)]...)
			a.spans = append(a.spans, valSpan{val: len(out), off: off, end: off + int(l)})
			out = append(out, types.Value{KindV: types.KindString})
			pos += int(l)
		default:
			panic(fmt.Sprintf("slab: unknown kind %d", kind))
		}
	}
	if len(a.spans) > 0 {
		s := string(a.strbuf)
		for _, sp := range a.spans {
			out[sp.val].Str = s[sp.off:sp.end]
		}
	}
	return out
}

// MemSize reports the arena's real in-memory footprint in bytes: the byte
// slab and the offset table at their allocated capacities. Unlike
// types.Tuple.MemSize sums, this is the number the Go heap actually pays. On
// a tiered arena this counts only resident bytes — sealed-segment payloads
// currently in RAM plus their offset tables, and a freed fault-in buffer
// awaiting its read — which is what makes MemLimitPerTask a cap on
// residency, not on state.
func (a *Arena) MemSize() int {
	n := cap(a.buf) + 4*cap(a.offs) + 64
	if a.t != nil {
		n += int(a.t.residentBlobBytes) + 4*(a.t.segRows+1)*len(a.t.segs) + cap(a.t.spare)
	}
	return n
}

// EachFrame chunks the rows into wire batch frames of up to batchSize rows
// each — varint(count) followed by the rows' stored bytes, blitted without
// decoding — and passes each frame (and its row count) to visit. Frames
// reuse one internal buffer, valid only during the callback; visit
// returning false stops the scan. scratch, if non-nil, seeds the buffer.
func (a *Arena) EachFrame(batchSize int, scratch []byte, visit func(frame []byte, count int) bool) {
	a.framesFrom(0, batchSize, scratch, visit)
}

// framesFrom is EachFrame over the rows [from, Rows).
func (a *Arena) framesFrom(from, batchSize int, scratch []byte, visit func(frame []byte, count int) bool) {
	if batchSize <= 0 {
		batchSize = 1
	}
	frame := scratch[:0]
	for i, n := from, a.Rows(); i < n; {
		count := min(batchSize, n-i)
		frame = binary.AppendUvarint(frame[:0], uint64(count))
		for end := i + count; i < end; i++ {
			frame = append(frame, a.RowBytes(Ref(i))...)
		}
		if !visit(frame, count) {
			return
		}
	}
}

// EachFooterFrame is EachFrame with a column-offset footer appended to every
// uniform-arity frame (wire.AppendFooter), so vectorized consumers can view
// exported state column-wise without re-scanning row headers. Frames whose
// rows mix arity stay bare — the footer is advisory either way.
func (a *Arena) EachFooterFrame(batchSize int, scratch []byte, visit func(frame []byte, count int) bool) {
	a.EachFrame(batchSize, scratch, func(frame []byte, count int) bool {
		return visit(wire.AppendFooter(frame), count)
	})
}
