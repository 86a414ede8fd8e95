package wire

import "encoding/binary"

// Frame column-offset footer (PR 6).
//
// A producer that flushes a uniform-arity batch frame may append a compact
// footer recording, for every column, the byte offset of that column's field
// in every row, plus a one-byte kind summary per column. Consumers can then
// view the frame as column slices — gather a column's values in one tight
// loop — without re-scanning row headers with a Cursor.
//
//	frame   := varint(count) row* [footer]
//	footer  := body trailer
//	body    := varint(ncols)
//	           kind[ncols]              // uniform types.Kind, or KindMixed
//	           varint(blockLen_c)*ncols // column directory
//	           block_c*ncols
//	block_c := varint(off_c0) varint(off_c1 - off_c0) ...  (count entries)
//	trailer := u32le(len(body)) version(1B) magic(2B)
//
// Offsets inside a block point at the field's kind byte and are relative to
// the rows region (the byte after the count varint); delta coding keeps them
// 1–2 bytes each. The fixed-size trailer makes the footer parseable from the
// end of the frame, so the rows region needs no re-scan to find it.
//
// The footer is strictly advisory: every batch consumer (EachRow,
// BatchDecoder, DecodeBatch) parses exactly count rows from the front and
// ignores trailing bytes, so footered frames decode identically to bare ones
// on every legacy path. ParseFooter validates structure (magic, version,
// directory sums, offset monotonicity and bounds) and reports !ok on
// anything suspect — a consumer then falls back to the row walk.
const (
	footerVersion    = 1
	footerMagic0     = 0xF7
	footerMagic1     = 'Q'
	footerTrailerLen = 7 // u32 body length + version byte + 2 magic bytes
)

// KindMixed is the kind-summary byte of a column whose rows disagree on the
// value kind; vectorized lowerings treat such columns as non-gatherable and
// fall back to the row path.
const KindMixed byte = 0xFF

// Footer is a parsed view of one frame's column-offset footer. The slices
// alias the frame; a Footer stays valid only as long as those bytes do. The
// zero value is ready for ParseFooter, which reuses its scratch across
// frames.
type Footer struct {
	Count   int // rows in the frame
	NCols   int // uniform arity of every row
	RowsOff int // byte offset of row 0 in the frame
	RowsEnd int // byte offset one past the last row (= footer body start)

	kinds  []byte  // per-column kind summary, aliasing the frame
	blocks []byte  // concatenated offset blocks, aliasing the frame
	colEnd []int32 // colEnd[c] = end of block c within blocks
}

// KindByte returns column c's kind summary: a types.Kind byte when every row
// agrees, KindMixed otherwise.
func (f *Footer) KindByte(c int) byte { return f.kinds[c] }

// ParseFooter parses a column-offset footer off the end of frame into f,
// reporting whether a structurally valid footer is present. It never panics
// on garbage: any inconsistency (bad magic, directory not summing to the
// body length, rows region too small for the row count) reports false.
func ParseFooter(frame []byte, f *Footer) bool {
	n := len(frame)
	if n < footerTrailerLen+2 {
		return false
	}
	if frame[n-1] != footerMagic1 || frame[n-2] != footerMagic0 || frame[n-3] != footerVersion {
		return false
	}
	bodyLen := int(binary.LittleEndian.Uint32(frame[n-footerTrailerLen:]))
	count, hl := binary.Uvarint(frame)
	if hl <= 0 {
		return false
	}
	bodyStart := n - footerTrailerLen - bodyLen
	if bodyLen < 2 || bodyStart < hl {
		return false
	}
	body := frame[bodyStart : n-footerTrailerLen]
	nc, p := binary.Uvarint(body)
	if p <= 0 || nc == 0 || nc > uint64(len(body)-p) {
		return false
	}
	pos := p + int(nc)
	kinds := body[p:pos]
	// Column directory: block lengths must sum to exactly the rest of the
	// body — the strongest cheap structural check against a row byte
	// sequence masquerading as a footer.
	f.colEnd = f.colEnd[:0]
	total := 0
	for c := 0; c < int(nc); c++ {
		bl, l := binary.Uvarint(body[pos:])
		if l <= 0 || bl > uint64(len(body)) {
			return false
		}
		total += int(bl)
		if total > len(body) {
			return false
		}
		f.colEnd = append(f.colEnd, int32(total))
		pos += l
	}
	if pos+total != len(body) {
		return false
	}
	if uint64(bodyStart-hl) < count { // every row is at least 1 byte
		return false
	}
	f.Count = int(count)
	f.NCols = int(nc)
	f.RowsOff = hl
	f.RowsEnd = bodyStart
	f.kinds = kinds
	f.blocks = body[pos:]
	return true
}

// ColOffsets decodes column c's offset block into dst (reused when capacity
// allows): dst[r] is the byte offset of row r's field c within the frame,
// pointing at the field's kind byte. Offsets are validated strictly
// increasing and inside the rows region; any violation reports false.
func (f *Footer) ColOffsets(c int, dst []int32) ([]int32, bool) {
	if c < 0 || c >= f.NCols {
		return nil, false
	}
	start := 0
	if c > 0 {
		start = int(f.colEnd[c-1])
	}
	blk := f.blocks[start:f.colEnd[c]]
	dst = dst[:0]
	prev := int64(0)
	pos := 0
	for r := 0; r < f.Count; r++ {
		d, l := binary.Uvarint(blk[pos:])
		if l <= 0 || d > uint64(f.RowsEnd) {
			return nil, false
		}
		pos += l
		var off int64
		if r == 0 {
			off = int64(f.RowsOff) + int64(d)
		} else {
			if d == 0 {
				return nil, false
			}
			off = prev + int64(d)
		}
		if off >= int64(f.RowsEnd) {
			return nil, false
		}
		dst = append(dst, int32(off))
		prev = off
	}
	if pos != len(blk) {
		return nil, false
	}
	return dst, true
}

// StripFooter returns frame without its column-offset footer when a valid
// one is present, and frame unchanged otherwise.
func StripFooter(frame []byte) []byte {
	var f Footer
	if !ParseFooter(frame, &f) {
		return frame
	}
	return frame[:f.RowsEnd]
}

// FooterBuilder accumulates per-row field offsets while rows are appended
// to a frame buffer, then appends the encoded footer in one call, so a
// frame is never re-scanned (AppendFooter drives it over a finished frame).
// The zero value is empty and ready; Reset recycles the scratch for the
// next frame.
type FooterBuilder struct {
	ncols int
	rows  int
	bad   bool    // mixed arity or zero-column row: frame not footerable
	kinds []byte  // per-column summary being accumulated
	offs  []int32 // row-major field offsets relative to the rows region
	lens  []int32 // per-column block lengths (Append scratch)
	blk   []byte  // concatenated blocks (Append scratch)
}

// Reset clears the builder for a new frame, keeping its scratch.
func (b *FooterBuilder) Reset() {
	b.ncols = 0
	b.rows = 0
	b.bad = false
	b.kinds = b.kinds[:0]
	b.offs = b.offs[:0]
}

// AddRow records one row from its parsed cursor. rowOff is the row's start
// offset relative to the rows region (0 for the first row). Rows of
// differing arity mark the frame unfooterable; AddRow stays cheap either
// way.
func (b *FooterBuilder) AddRow(rowOff int, cur *Cursor) {
	if b.bad {
		return
	}
	switch {
	case b.rows == 0:
		if cur.n == 0 {
			b.bad = true
			return
		}
		b.ncols = cur.n
		for i := 0; i < cur.n; i++ {
			b.kinds = append(b.kinds, cur.row[cur.offs[i]])
		}
	case cur.n != b.ncols:
		b.bad = true
		return
	default:
		for i := 0; i < cur.n; i++ {
			if b.kinds[i] != cur.row[cur.offs[i]] {
				b.kinds[i] = KindMixed
			}
		}
	}
	for i := 0; i < cur.n; i++ {
		b.offs = append(b.offs, int32(rowOff)+cur.offs[i])
	}
	b.rows++
}

// Rows returns the number of rows recorded since the last Reset.
func (b *FooterBuilder) Rows() int { return b.rows }

// Valid reports whether the recorded rows admit a footer (at least one row,
// all rows the same nonzero arity).
func (b *FooterBuilder) Valid() bool { return !b.bad && b.rows > 0 }

// Append appends the footer (body + trailer) for the recorded rows to dst
// and returns the extended slice; when the rows were not footerable, dst is
// returned unchanged. dst must be the frame the offsets were recorded
// against (rows region already complete).
func (b *FooterBuilder) Append(dst []byte) []byte {
	if !b.Valid() {
		return dst
	}
	bodyStart := len(dst)
	dst = binary.AppendUvarint(dst, uint64(b.ncols))
	dst = append(dst, b.kinds...)
	// Delta-encode each column's block into scratch first: the directory of
	// block lengths precedes the blocks in the body.
	blk := b.blk[:0]
	b.lens = b.lens[:0]
	for c := 0; c < b.ncols; c++ {
		blkStart := len(blk)
		prev := int32(0)
		for r := 0; r < b.rows; r++ {
			off := b.offs[r*b.ncols+c]
			blk = binary.AppendUvarint(blk, uint64(off-prev))
			prev = off
		}
		b.lens = append(b.lens, int32(len(blk)-blkStart))
	}
	for _, l := range b.lens {
		dst = binary.AppendUvarint(dst, uint64(l))
	}
	dst = append(dst, blk...)
	b.blk = blk
	bodyLen := len(dst) - bodyStart
	var tr [footerTrailerLen]byte
	binary.LittleEndian.PutUint32(tr[:4], uint32(bodyLen))
	tr[4] = footerVersion
	tr[5] = footerMagic0
	tr[6] = footerMagic1
	return append(dst, tr[:]...)
}

// AppendFooter parses the rows of a complete wire batch frame and appends a
// column-offset footer, returning the extended frame — the one-shot form for
// exports whose rows were blitted rather than cursor-parsed (slab frame
// export). Frames that are malformed, non-uniform, empty, or already carry
// trailing bytes come back unchanged.
func AppendFooter(frame []byte) []byte {
	var b FooterBuilder
	var cur Cursor
	n, hl := binary.Uvarint(frame)
	if hl <= 0 {
		return frame
	}
	if n > uint64(len(frame)-hl) {
		return frame
	}
	pos := hl
	for i := uint64(0); i < n; i++ {
		rl, err := cur.Parse(frame[pos:])
		if err != nil {
			return frame
		}
		b.AddRow(pos-hl, &cur)
		pos += rl
	}
	if pos != len(frame) {
		return frame
	}
	return b.Append(frame)
}
