// Package wire serializes tuples for inter-component transfer.
//
// Squall runs on Storm, where every tuple crossing a component boundary is
// serialized, shipped over 1 Gbit Ethernet and deserialized. In this
// reproduction a "network hop" is a Go channel, which would otherwise be
// nearly free — so the dataflow engine encodes every tuple on emit and
// decodes it on receive using this package. The per-byte CPU cost plays the
// role of the network: schemes that replicate more tuples genuinely pay more,
// which preserves the paper's performance ordering (see DESIGN.md,
// substitution table).
//
// The format is a compact length-prefixed binary encoding:
//
//	batch  := varint(count) tuple*
//	tuple  := varint(ncols) value*
//	value  := kind(1B) payload
//	payload: INT -> varint(zigzag), FLOAT -> 8B LE, STRING -> varint(len) bytes
//
// Single tuples (Encode/Decode) and batch frames (EncodeBatch/DecodeBatch)
// share the tuple encoding; a batch merely prefixes a tuple count so one
// frame amortizes the per-send framing across the whole batch.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"

	"squall/internal/types"
)

// Encode appends the encoding of t to dst and returns the extended slice.
// The value loop is hand-inlined (zigzag varints written in place, values
// taken by pointer): it runs once per value of every tuple copy crossing
// every edge.
func Encode(dst []byte, t types.Tuple) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(t)))
	for i := range t {
		v := &t[i]
		dst = append(dst, byte(v.KindV))
		switch v.KindV {
		case types.KindNull:
		case types.KindInt:
			u := uint64(v.I>>63) ^ uint64(v.I)<<1 // zigzag, as binary.AppendVarint
			for u >= 0x80 {
				dst = append(dst, byte(u)|0x80)
				u >>= 7
			}
			dst = append(dst, byte(u))
		case types.KindFloat:
			u := math.Float64bits(v.F)
			dst = append(dst, byte(u), byte(u>>8), byte(u>>16), byte(u>>24),
				byte(u>>32), byte(u>>40), byte(u>>48), byte(u>>56))
		case types.KindString:
			if l := len(v.Str); l < 0x80 {
				dst = append(dst, byte(l))
			} else {
				dst = binary.AppendUvarint(dst, uint64(l))
			}
			dst = append(dst, v.Str...)
		}
	}
	return dst
}

// decodeValue parses one value at src[pos:], returning it and the new offset.
func decodeValue(src []byte, pos int) (types.Value, int, error) {
	if pos >= len(src) {
		return types.Value{}, 0, fmt.Errorf("wire: truncated value")
	}
	kind := types.Kind(src[pos])
	pos++
	switch kind {
	case types.KindNull:
		return types.Null(), pos, nil
	case types.KindInt:
		v, c := binary.Varint(src[pos:])
		if c <= 0 {
			return types.Value{}, 0, fmt.Errorf("wire: bad int")
		}
		return types.Int(v), pos + c, nil
	case types.KindFloat:
		if pos+8 > len(src) {
			return types.Value{}, 0, fmt.Errorf("wire: truncated float")
		}
		v := types.Float(math.Float64frombits(binary.LittleEndian.Uint64(src[pos:])))
		return v, pos + 8, nil
	case types.KindString:
		l, c := binary.Uvarint(src[pos:])
		if c <= 0 {
			return types.Value{}, 0, fmt.Errorf("wire: bad string length")
		}
		pos += c
		if uint64(len(src)-pos) < l {
			return types.Value{}, 0, fmt.Errorf("wire: truncated string")
		}
		return types.Str(string(src[pos : pos+int(l)])), pos + int(l), nil
	default:
		return types.Value{}, 0, fmt.Errorf("wire: unknown kind %d", kind)
	}
}

// Decode parses one tuple from src, returning the tuple and the number of
// bytes consumed.
func Decode(src []byte) (types.Tuple, int, error) {
	n, c := binary.Uvarint(src)
	if c <= 0 {
		return nil, 0, fmt.Errorf("wire: bad tuple header")
	}
	pos := c
	if n > uint64(len(src)-pos) { // cheap sanity bound: >=1 byte per value
		return nil, 0, fmt.Errorf("wire: tuple arity %d exceeds buffer", n)
	}
	t := make(types.Tuple, 0, n)
	for i := uint64(0); i < n; i++ {
		v, p, err := decodeValue(src, pos)
		if err != nil {
			return nil, 0, fmt.Errorf("%w at value %d", err, i)
		}
		t = append(t, v)
		pos = p
	}
	return t, pos, nil
}

// EncodeBatch appends a batch frame — varint(count) followed by each tuple's
// encoding — to dst and returns the extended slice. One frame per flush is
// what amortizes the engine's per-hop serialization cost.
func EncodeBatch(dst []byte, batch []types.Tuple) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(batch)))
	for _, t := range batch {
		dst = Encode(dst, t)
	}
	return dst
}

// BatchDecoder decodes batch frames with arena-style allocation: every value
// of a frame lands in one contiguous slab, every tuple header in one slice,
// and every string payload in one shared backing string, so decoding an
// N-tuple frame costs O(1) allocations instead of O(values). The decoder
// never recycles a returned arena or string — consumers (join state, sinks)
// may retain tuples indefinitely — only the internal scratch buffers are
// reused across calls. Ownership is collective per frame: retaining any one
// tuple keeps that frame's whole value slab and string backing reachable, so
// a consumer holding a tiny subset of many frames for a long time should
// Clone what it keeps.
// A BatchDecoder is not safe for concurrent use; the zero value is ready.
type BatchDecoder struct {
	arities []int
	strbuf  []byte // string payloads of the frame being decoded
	spans   []span // which arena values reference strbuf, and where
	// arenaHint tracks the last frame's value count so the next arena is
	// right-sized in one allocation.
	arenaHint int
}

// span marks arena[val] as the string strbuf[off:end].
type span struct {
	val, off, end int
}

// Decode parses one batch frame from src, returning the tuples and the
// number of bytes consumed.
func (d *BatchDecoder) Decode(src []byte) ([]types.Tuple, int, error) {
	count, consumed := binary.Uvarint(src)
	if consumed <= 0 {
		return nil, 0, fmt.Errorf("wire: bad batch header")
	}
	pos := consumed
	if count > uint64(len(src)-pos) { // >= 1 byte (arity header) per tuple
		return nil, 0, fmt.Errorf("wire: batch count %d exceeds buffer", count)
	}
	d.arities = d.arities[:0]
	d.strbuf = d.strbuf[:0]
	d.spans = d.spans[:0]
	arena := make([]types.Value, 0, d.arenaHint)
	for i := uint64(0); i < count; i++ {
		n, c := binary.Uvarint(src[pos:])
		if c <= 0 {
			return nil, 0, fmt.Errorf("wire: batch tuple %d: bad tuple header", i)
		}
		pos += c
		if n > uint64(len(src)-pos) {
			return nil, 0, fmt.Errorf("wire: batch tuple %d: tuple arity %d exceeds buffer", i, n)
		}
		for j := uint64(0); j < n; j++ {
			// Value decoding is inlined (with 1–2 byte varint fast paths):
			// this loop runs once per value of every batch crossing every
			// edge, and the call-per-value shape dominated decode profiles.
			if pos >= len(src) {
				return nil, 0, fmt.Errorf("wire: batch tuple %d: truncated value %d", i, j)
			}
			kind := types.Kind(src[pos])
			pos++
			switch kind {
			case types.KindNull:
				arena = append(arena, types.Value{})
			case types.KindInt:
				if pos >= len(src) {
					return nil, 0, fmt.Errorf("wire: batch tuple %d: truncated int at value %d", i, j)
				}
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
						return nil, 0, fmt.Errorf("wire: batch tuple %d: bad int at value %d", i, j)
					}
					pos += c
				}
				arena = append(arena, types.Value{KindV: types.KindInt, I: x})
			case types.KindFloat:
				if pos+8 > len(src) {
					return nil, 0, fmt.Errorf("wire: batch tuple %d: truncated float at value %d", i, j)
				}
				f := math.Float64frombits(binary.LittleEndian.Uint64(src[pos:]))
				arena = append(arena, types.Value{KindV: types.KindFloat, F: f})
				pos += 8
			case types.KindString:
				if pos >= len(src) {
					return nil, 0, fmt.Errorf("wire: batch tuple %d: truncated string length at value %d", i, j)
				}
				var l uint64
				if b := src[pos]; b < 0x80 {
					l = uint64(b)
					pos++
				} else {
					var c int
					l, c = binary.Uvarint(src[pos:])
					if c <= 0 {
						return nil, 0, fmt.Errorf("wire: batch tuple %d: bad string length at value %d", i, j)
					}
					pos += c
				}
				if uint64(len(src)-pos) < l {
					return nil, 0, fmt.Errorf("wire: batch tuple %d: truncated string at value %d", i, j)
				}
				off := len(d.strbuf)
				d.strbuf = append(d.strbuf, src[pos:pos+int(l)]...)
				d.spans = append(d.spans, span{val: len(arena), off: off, end: off + int(l)})
				arena = append(arena, types.Value{KindV: types.KindString})
				pos += int(l)
			default:
				return nil, 0, fmt.Errorf("wire: batch tuple %d: unknown kind %d at value %d", i, kind, j)
			}
		}
		d.arities = append(d.arities, int(n))
	}
	d.arenaHint = len(arena)
	// One string conversion backs every string value of the frame.
	if len(d.spans) > 0 {
		s := string(d.strbuf)
		for _, sp := range d.spans {
			arena[sp.val].Str = s[sp.off:sp.end]
		}
	}
	// Slice the tuples out of the final arena only now: append may have
	// relocated it while decoding. Capacity-clamped so a consumer appending
	// to one tuple cannot clobber the next.
	tuples := make([]types.Tuple, count)
	start := 0
	for i, arity := range d.arities {
		tuples[i] = types.Tuple(arena[start : start+arity : start+arity])
		start += arity
	}
	return tuples, pos, nil
}

// DecodeBatch parses one batch frame from src with a throwaway decoder; use
// a long-lived BatchDecoder on hot paths to reuse its scratch.
func DecodeBatch(src []byte) ([]types.Tuple, int, error) {
	var d BatchDecoder
	return d.Decode(src)
}
