package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"strings"

	"squall/internal/types"
)

// Cursor is a zero-copy typed view over one wire-encoded row (the packed
// execution path, PR 5). Reset/Parse scan the row once, recording each
// field's offset; the typed accessors then read values straight out of the
// encoded bytes — no []types.Value materialization, no per-field interface
// dispatch, no string allocation. Hash and AppendKey compute the engine's
// canonical tuple identities (types.Tuple.Hash / types.Tuple.Key) directly
// on the encoding, so packed routing and packed state agree bit-for-bit
// with the boxed pipeline they replace.
//
// A Cursor aliases the row it was Reset on: it stays valid only as long as
// those bytes do, and is not safe for concurrent use. The zero value is
// ready for Reset.
type Cursor struct {
	row     []byte
	offs    []int32 // offs[i] = offset of field i's kind byte; offs[n] = len(row)
	n       int
	headLen int // bytes of the arity varint
}

// Parse scans one encoded row at the head of src and returns the number of
// bytes it occupies. Malformed input returns an error and never panics (the
// fuzz contract); the cursor is unusable after an error.
func (c *Cursor) Parse(src []byte) (int, error) {
	n, hl := binary.Uvarint(src)
	if hl <= 0 {
		c.n = 0
		return 0, fmt.Errorf("wire: cursor: bad row header")
	}
	pos := hl
	if n > uint64(len(src)-pos) { // >= 1 byte per field
		c.n = 0
		return 0, fmt.Errorf("wire: cursor: arity %d exceeds buffer", n)
	}
	c.headLen = hl
	c.n = int(n)
	c.offs = c.offs[:0]
	for i := uint64(0); i < n; i++ {
		c.offs = append(c.offs, int32(pos))
		if pos >= len(src) {
			c.n = 0
			return 0, fmt.Errorf("wire: cursor: truncated field %d", i)
		}
		kind := types.Kind(src[pos])
		pos++
		switch kind {
		case types.KindNull:
		case types.KindInt:
			_, vl := binary.Varint(src[pos:])
			if vl <= 0 {
				c.n = 0
				return 0, fmt.Errorf("wire: cursor: bad int at field %d", i)
			}
			pos += vl
		case types.KindFloat:
			if pos+8 > len(src) {
				c.n = 0
				return 0, fmt.Errorf("wire: cursor: truncated float at field %d", i)
			}
			pos += 8
		case types.KindString:
			l, vl := binary.Uvarint(src[pos:])
			if vl <= 0 {
				c.n = 0
				return 0, fmt.Errorf("wire: cursor: bad string length at field %d", i)
			}
			pos += vl
			if uint64(len(src)-pos) < l {
				c.n = 0
				return 0, fmt.Errorf("wire: cursor: truncated string at field %d", i)
			}
			pos += int(l)
		default:
			c.n = 0
			return 0, fmt.Errorf("wire: cursor: unknown kind %d at field %d", kind, i)
		}
	}
	c.offs = append(c.offs, int32(pos))
	c.row = src[:pos]
	return pos, nil
}

// Reset points the cursor at one complete encoded row (trailing bytes are an
// error — rows coming out of a slab arena or a splice are exact).
func (c *Cursor) Reset(row []byte) error {
	n, err := c.Parse(row)
	if err != nil {
		return err
	}
	if n != len(row) {
		c.n = 0
		return fmt.Errorf("wire: cursor: %d trailing bytes after row", len(row)-n)
	}
	return nil
}

// Arity returns the number of fields.
func (c *Cursor) Arity() int { return c.n }

// Payload returns the row's field bytes without the arity header — the unit
// of row concatenation (join result splicing).
func (c *Cursor) Payload() []byte { return c.row[c.headLen:] }

// Kind returns the runtime kind of field i.
func (c *Cursor) Kind(i int) types.Kind {
	return types.Kind(c.row[c.offs[i]])
}

// FieldBytes returns the raw encoding of field i (kind byte + payload) —
// the unit of projection splicing. The slice aliases the row.
func (c *Cursor) FieldBytes(i int) []byte {
	return c.row[c.offs[i]:c.offs[i+1]]
}

// Int returns field i as an int64; false when the field is not an INT.
func (c *Cursor) Int(i int) (int64, bool) {
	off := c.offs[i]
	if types.Kind(c.row[off]) != types.KindInt {
		return 0, false
	}
	v, _ := binary.Varint(c.row[off+1:])
	return v, true
}

// Float returns field i as a float64; false when the field is not a FLOAT.
func (c *Cursor) Float(i int) (float64, bool) {
	off := c.offs[i]
	if types.Kind(c.row[off]) != types.KindFloat {
		return 0, false
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(c.row[off+1:])), true
}

// Bytes returns field i's string payload without copying; false when the
// field is not a STRING. The slice aliases the row.
func (c *Cursor) Bytes(i int) ([]byte, bool) {
	off := int(c.offs[i])
	if types.Kind(c.row[off]) != types.KindString {
		return nil, false
	}
	l, vl := binary.Uvarint(c.row[off+1:])
	start := off + 1 + vl
	return c.row[start : start+int(l)], true
}

// Str returns field i as an owned string copy; false when not a STRING.
func (c *Cursor) Str(i int) (string, bool) {
	b, ok := c.Bytes(i)
	if !ok {
		return "", false
	}
	return string(b), true
}

// Value materializes field i as a types.Value (strings are copied out).
func (c *Cursor) Value(i int) types.Value {
	switch c.Kind(i) {
	case types.KindInt:
		v, _ := c.Int(i)
		return types.Int(v)
	case types.KindFloat:
		v, _ := c.Float(i)
		return types.Float(v)
	case types.KindString:
		s, _ := c.Str(i)
		return types.Str(s)
	default:
		return types.Null()
	}
}

// FieldInt reads field i under types.Value.AsInt coercion semantics
// (floats truncate, numeric strings parse).
func (c *Cursor) FieldInt(i int) (int64, bool) {
	switch c.Kind(i) {
	case types.KindInt:
		return c.Int(i)
	case types.KindFloat:
		f, _ := c.Float(i)
		return int64(f), true
	case types.KindString:
		b, _ := c.Bytes(i)
		v, err := strconv.ParseInt(strings.TrimSpace(string(b)), 10, 64)
		if err != nil {
			return 0, false
		}
		return v, true
	default:
		return 0, false
	}
}

// FieldFloat reads field i under types.Value.AsFloat coercion semantics.
func (c *Cursor) FieldFloat(i int) (float64, bool) {
	switch c.Kind(i) {
	case types.KindInt:
		v, _ := c.Int(i)
		return float64(v), true
	case types.KindFloat:
		return c.Float(i)
	case types.KindString:
		b, _ := c.Bytes(i)
		v, err := strconv.ParseFloat(strings.TrimSpace(string(b)), 64)
		if err != nil {
			return 0, false
		}
		return v, true
	default:
		return 0, false
	}
}

// Tuple materializes the whole row into buf (reused when capacity allows).
func (c *Cursor) Tuple(buf types.Tuple) types.Tuple {
	out := buf[:0]
	if cap(out) < c.n {
		out = make(types.Tuple, 0, c.n)
	}
	for i := 0; i < c.n; i++ {
		out = append(out, c.Value(i))
	}
	return out
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvByte folds one byte into an FNV-1a state.
func fnvByte(h uint64, b byte) uint64 {
	return (h ^ uint64(b)) * fnvPrime64
}

func fnvInt(i int64) uint64 {
	h := uint64(fnvOffset64)
	u := uint64(i)
	for k := 0; k < 8; k++ {
		h = fnvByte(h, byte(u>>(8*k)))
	}
	return h
}

// ValueHash computes types.Value.Hash of field i directly on the encoding:
// integral floats hash as ints, exactly like the boxed path, so packed and
// boxed inserts can share one index.
func (c *Cursor) ValueHash(i int) uint64 {
	switch c.Kind(i) {
	case types.KindInt:
		v, _ := c.Int(i)
		return fnvInt(v)
	case types.KindFloat:
		f, _ := c.Float(i)
		if f == math.Trunc(f) && !math.IsInf(f, 0) &&
			f >= math.MinInt64 && f <= math.MaxInt64 {
			return fnvInt(int64(f))
		}
		h := uint64(fnvOffset64)
		u := math.Float64bits(f)
		for k := 0; k < 8; k++ {
			h = fnvByte(h, byte(u>>(8*k)))
		}
		return h
	case types.KindString:
		b, _ := c.Bytes(i)
		h := uint64(fnvOffset64)
		for k := 0; k < len(b); k++ {
			h = fnvByte(h, b[k])
		}
		return h
	default:
		return fnvByte(fnvOffset64, 0)
	}
}

// Hash combines the field hashes at cols (all fields when empty), matching
// types.Tuple.Hash so packed routing (Fields grouping, hypercube schemes)
// lands every row on the same task the boxed pipeline would pick.
func (c *Cursor) Hash(cols ...int) uint64 {
	h := uint64(fnvOffset64)
	if len(cols) == 0 {
		for i := 0; i < c.n; i++ {
			h = (h ^ c.ValueHash(i)) * fnvPrime64
		}
		return h
	}
	for _, i := range cols {
		h = (h ^ c.ValueHash(i)) * fnvPrime64
	}
	return h
}

// AppendKey appends the canonical key bytes of the fields at cols (all
// fields when empty) to buf, matching types.Tuple.AppendKey byte-for-byte.
func (c *Cursor) AppendKey(buf []byte, cols ...int) []byte {
	if len(cols) == 0 {
		for i := 0; i < c.n; i++ {
			buf = c.appendFieldKey(buf, i)
		}
		return buf
	}
	for _, i := range cols {
		buf = c.appendFieldKey(buf, i)
	}
	return buf
}

func (c *Cursor) appendFieldKey(buf []byte, i int) []byte {
	switch c.Kind(i) {
	case types.KindInt:
		v, _ := c.Int(i)
		buf = append(buf, 'i')
		buf = strconv.AppendInt(buf, v, 10)
	case types.KindFloat:
		v, _ := c.Float(i)
		buf = append(buf, 'f')
		buf = strconv.AppendFloat(buf, v, 'g', -1, 64)
	case types.KindString:
		b, _ := c.Bytes(i)
		buf = append(buf, 's')
		buf = append(buf, b...)
	default:
		buf = append(buf, 'n')
	}
	return append(buf, 0x1f)
}

// CompareValue orders field i against v under types.Value.Compare semantics
// (NULL first, cross-kind numeric comparison, kind-ordered otherwise).
// anyNull reports whether either side is NULL, so predicate callers can
// collapse to false the way expr.CmpOp.Apply does, while equality-index
// verification keeps Compare's null==null identity.
func (c *Cursor) CompareValue(i int, v types.Value) (cmp int, anyNull bool) {
	ak := c.Kind(i)
	bk := v.Kind()
	anyNull = ak == types.KindNull || bk == types.KindNull
	aNum := ak == types.KindInt || ak == types.KindFloat
	bNum := bk == types.KindInt || bk == types.KindFloat
	if aNum && bNum {
		if ak == types.KindInt && bk == types.KindInt {
			av, _ := c.Int(i)
			return cmpOrder(av, v.I), false
		}
		af, _ := c.FieldFloat(i)
		bf, _ := v.AsFloat()
		return cmpOrder(af, bf), false
	}
	if ak != bk {
		return cmpOrder(ak, bk), anyNull
	}
	if ak == types.KindString {
		ab, _ := c.Bytes(i)
		return compareBytesString(ab, v.Str), false
	}
	return 0, anyNull // both NULL
}

// CompareFields orders field i of a against field j of b under
// types.Value.Compare semantics; see CompareValue for anyNull.
func CompareFields(a *Cursor, i int, b *Cursor, j int) (cmp int, anyNull bool) {
	ak, bk := a.Kind(i), b.Kind(j)
	anyNull = ak == types.KindNull || bk == types.KindNull
	aNum := ak == types.KindInt || ak == types.KindFloat
	bNum := bk == types.KindInt || bk == types.KindFloat
	if aNum && bNum {
		if ak == types.KindInt && bk == types.KindInt {
			av, _ := a.Int(i)
			bv, _ := b.Int(j)
			return cmpOrder(av, bv), false
		}
		af, _ := a.FieldFloat(i)
		bf, _ := b.FieldFloat(j)
		return cmpOrder(af, bf), false
	}
	if ak != bk {
		return cmpOrder(ak, bk), anyNull
	}
	if ak == types.KindString {
		ab, _ := a.Bytes(i)
		bb, _ := b.Bytes(j)
		return bytes.Compare(ab, bb), false
	}
	return 0, anyNull // both NULL
}

// cmpOrder three-way compares two ordered values.
func cmpOrder[T int64 | float64 | types.Kind](a, b T) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// compareBytesString is strings.Compare(string(b), s) without the
// conversion allocation.
func compareBytesString(b []byte, s string) int {
	n := len(b)
	if len(s) < n {
		n = len(s)
	}
	for i := 0; i < n; i++ {
		if b[i] != s[i] {
			if b[i] < s[i] {
				return -1
			}
			return 1
		}
	}
	return cmpOrder(int64(len(b)), int64(len(s)))
}

// SpliceRow appends a new encoded row holding cur's fields at cols, in
// order, to dst: the packed projection — pure byte copies, byte-identical
// to encoding the projected tuple.
func SpliceRow(dst []byte, cur *Cursor, cols []int) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(cols)))
	for _, i := range cols {
		dst = append(dst, cur.FieldBytes(i)...)
	}
	return dst
}

// EachRow iterates the rows of one wire batch frame, resetting cur onto
// each row and passing its encoded bytes to fn. It returns the frame's row
// count and the bytes consumed; malformed frames error without panicking.
func EachRow(frame []byte, cur *Cursor, fn func(row []byte) error) (count, consumed int, err error) {
	n, hl := binary.Uvarint(frame)
	if hl <= 0 {
		return 0, 0, fmt.Errorf("wire: bad batch header")
	}
	pos := hl
	if n > uint64(len(frame)-pos) {
		return 0, 0, fmt.Errorf("wire: batch count %d exceeds buffer", n)
	}
	for i := uint64(0); i < n; i++ {
		rl, err := cur.Parse(frame[pos:])
		if err != nil {
			return 0, 0, fmt.Errorf("wire: batch row %d: %w", i, err)
		}
		if err := fn(frame[pos : pos+rl]); err != nil {
			return int(n), pos + rl, err
		}
		pos += rl
	}
	return int(n), pos, nil
}
