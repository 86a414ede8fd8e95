package wire

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"squall/internal/types"
)

// footFrame encodes batch and appends a footer, failing the test if the
// footer was not written.
func footFrame(t *testing.T, batch []types.Tuple) []byte {
	t.Helper()
	bare := EncodeBatch(nil, batch)
	footed := AppendFooter(bare)
	if len(footed) <= len(bare) {
		t.Fatalf("AppendFooter added no footer to a uniform %d-row frame", len(batch))
	}
	return footed
}

func TestFooterRoundTrip(t *testing.T) {
	batch := sampleBatch(17)
	frame := footFrame(t, batch)

	var f Footer
	if !ParseFooter(frame, &f) {
		t.Fatal("ParseFooter rejected a frame AppendFooter produced")
	}
	if f.Count != len(batch) || f.NCols != len(batch[0]) {
		t.Fatalf("footer says %d rows x %d cols, want %d x %d", f.Count, f.NCols, len(batch), len(batch[0]))
	}
	wantKinds := []byte{byte(types.KindInt), byte(types.KindString), byte(types.KindFloat), byte(types.KindString)}
	for c, k := range wantKinds {
		if f.KindByte(c) != k {
			t.Fatalf("col %d kind summary = %#x, want %#x", c, f.KindByte(c), k)
		}
	}

	// Every column's offsets must point at exactly the field starts a Cursor
	// walk finds.
	var cur Cursor
	rowOffs := make([]int32, 0, f.Count)
	fieldOffs := make([][]int32, f.NCols)
	pos := f.RowsOff
	for r := 0; r < f.Count; r++ {
		rl, err := cur.Parse(frame[pos:])
		if err != nil {
			t.Fatalf("row %d: %v", r, err)
		}
		rowOffs = append(rowOffs, int32(pos))
		for c := 0; c < f.NCols; c++ {
			fieldOffs[c] = append(fieldOffs[c], int32(pos)+cur.offs[c])
		}
		pos += rl
	}
	if pos != f.RowsEnd {
		t.Fatalf("rows end at %d, footer says %d", pos, f.RowsEnd)
	}
	var offs []int32
	for c := 0; c < f.NCols; c++ {
		var ok bool
		offs, ok = f.ColOffsets(c, offs)
		if !ok {
			t.Fatalf("ColOffsets(%d) failed", c)
		}
		for r := range offs {
			if offs[r] != fieldOffs[c][r] {
				t.Fatalf("col %d row %d: footer offset %d, cursor found %d", c, r, offs[r], fieldOffs[c][r])
			}
		}
	}
	_ = rowOffs
}

func TestFooterBuilderMatchesOneShot(t *testing.T) {
	batch := sampleBatch(9)
	bare := EncodeBatch(nil, batch)

	var b FooterBuilder
	var cur Cursor
	_, hl := binary.Uvarint(bare)
	pos := hl
	for range batch {
		rl, err := cur.Parse(bare[pos:])
		if err != nil {
			t.Fatal(err)
		}
		b.AddRow(pos-hl, &cur)
		pos += rl
	}
	incremental := b.Append(append([]byte(nil), bare...))
	oneShot := AppendFooter(append([]byte(nil), bare...))
	if !bytes.Equal(incremental, oneShot) {
		t.Fatalf("incremental footer differs from one-shot:\n%x\n%x", incremental, oneShot)
	}

	// Reset and rebuild a different frame on the same builder: scratch reuse
	// must not leak state.
	b.Reset()
	batch2 := sampleBatch(3)
	bare2 := EncodeBatch(nil, batch2)
	_, hl = binary.Uvarint(bare2)
	pos = hl
	for range batch2 {
		rl, err := cur.Parse(bare2[pos:])
		if err != nil {
			t.Fatal(err)
		}
		b.AddRow(pos-hl, &cur)
		pos += rl
	}
	if got, want := b.Append(append([]byte(nil), bare2...)), AppendFooter(append([]byte(nil), bare2...)); !bytes.Equal(got, want) {
		t.Fatalf("reused builder footer differs from one-shot")
	}
}

func TestFooteredFrameDecodesLikeBare(t *testing.T) {
	batch := sampleBatch(11)
	bare := EncodeBatch(nil, batch)
	footed := footFrame(t, batch)

	// EachRow yields identical rows and never sees the footer.
	var cb, cf Cursor
	var rowsB, rowsF [][]byte
	nb, consB, err := EachRow(bare, &cb, func(row []byte) error {
		rowsB = append(rowsB, append([]byte(nil), row...))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	nf, consF, err := EachRow(footed, &cf, func(row []byte) error {
		rowsF = append(rowsF, append([]byte(nil), row...))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if nb != nf || consB != consF {
		t.Fatalf("EachRow bare (%d rows, %d bytes) vs footered (%d rows, %d bytes)", nb, consB, nf, consF)
	}
	if len(rowsB) != len(rowsF) {
		t.Fatalf("row counts differ: %d vs %d", len(rowsB), len(rowsF))
	}
	for i := range rowsB {
		if !bytes.Equal(rowsB[i], rowsF[i]) {
			t.Fatalf("row %d differs:\n%x\n%x", i, rowsB[i], rowsF[i])
		}
	}

	// The arena batch decoder ignores the footer too.
	got, consumed, err := DecodeBatch(footed)
	if err != nil {
		t.Fatal(err)
	}
	if consumed != len(bare) {
		t.Fatalf("DecodeBatch consumed %d, rows end at %d", consumed, len(bare))
	}
	for i := range batch {
		if got[i].Compare(batch[i]) != 0 {
			t.Fatalf("tuple %d: %v != %v", i, got[i], batch[i])
		}
	}

	// StripFooter recovers the bare frame exactly; stripping a bare frame is
	// the identity.
	if !bytes.Equal(StripFooter(footed), bare) {
		t.Fatal("StripFooter(footed) != bare frame")
	}
	if got := StripFooter(bare); &got[0] != &bare[0] || len(got) != len(bare) {
		t.Fatal("StripFooter on a bare frame should return it unchanged")
	}
}

func TestFooterSkipsNonUniformFrames(t *testing.T) {
	mixedArity := EncodeBatch(nil, []types.Tuple{
		{types.Int(1), types.Int(2)},
		{types.Int(3)},
	})
	if got := AppendFooter(append([]byte(nil), mixedArity...)); len(got) != len(mixedArity) {
		t.Fatalf("mixed-arity frame grew a footer (%d -> %d bytes)", len(mixedArity), len(got))
	}
	empty := EncodeBatch(nil, nil)
	if got := AppendFooter(append([]byte(nil), empty...)); len(got) != len(empty) {
		t.Fatal("empty frame grew a footer")
	}
	zeroCol := EncodeBatch(nil, []types.Tuple{{}, {}})
	if got := AppendFooter(append([]byte(nil), zeroCol...)); len(got) != len(zeroCol) {
		t.Fatal("zero-column frame grew a footer")
	}
}

func TestFooterMixedKindSummary(t *testing.T) {
	frame := footFrame(t, []types.Tuple{
		{types.Int(1), types.Str("a")},
		{types.Float(2.5), types.Str("b")},
		{types.Int(3), types.Str("c")},
	})
	var f Footer
	if !ParseFooter(frame, &f) {
		t.Fatal("ParseFooter failed")
	}
	if f.KindByte(0) != KindMixed {
		t.Fatalf("col 0 summary = %#x, want KindMixed", f.KindByte(0))
	}
	if f.KindByte(1) != byte(types.KindString) {
		t.Fatalf("col 1 summary = %#x, want string", f.KindByte(1))
	}
}

func TestFooterRejectsTamperedFrames(t *testing.T) {
	frame := footFrame(t, sampleBatch(6))
	var f Footer

	truncated := frame[:len(frame)-1]
	if ParseFooter(truncated, &f) {
		t.Fatal("ParseFooter accepted a truncated footer")
	}
	wrongVersion := append([]byte(nil), frame...)
	wrongVersion[len(wrongVersion)-3] = 99
	if ParseFooter(wrongVersion, &f) {
		t.Fatal("ParseFooter accepted an unknown version")
	}
	wrongLen := append([]byte(nil), frame...)
	binary.LittleEndian.PutUint32(wrongLen[len(wrongLen)-footerTrailerLen:], 1<<30)
	if ParseFooter(wrongLen, &f) {
		t.Fatal("ParseFooter accepted an oversized body length")
	}
	if ParseFooter(EncodeBatch(nil, sampleBatch(4)), &f) {
		t.Fatal("ParseFooter claimed a footer on a bare frame")
	}
}

// FuzzFrameFooter: ParseFooter and ColOffsets must never panic on arbitrary
// bytes; whatever ParseFooter accepts must stay inside the rows region; and
// a frame that decodes as a batch must decode identically after AppendFooter
// (the footer is invisible to row consumers).
func FuzzFrameFooter(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add(EncodeBatch(nil, sampleBatch(3)))
	f.Add(footFrameSeed(sampleBatch(3)))
	f.Add(footFrameSeed([]types.Tuple{{types.Null(), types.Int(-1)}, {types.Str("x"), types.Int(7)}}))
	r := rand.New(rand.NewSource(99))
	mut := append([]byte(nil), footFrameSeed(sampleBatch(5))...)
	mut[r.Intn(len(mut))] ^= 0xA5
	f.Add(mut)
	f.Fuzz(func(t *testing.T, data []byte) {
		var ft Footer
		if ParseFooter(data, &ft) {
			if ft.RowsOff <= 0 || ft.RowsEnd > len(data) || ft.RowsOff > ft.RowsEnd {
				t.Fatalf("footer rows region [%d, %d) outside frame of %d bytes", ft.RowsOff, ft.RowsEnd, len(data))
			}
			var offs []int32
			for c := 0; c < ft.NCols; c++ {
				var ok bool
				offs, ok = ft.ColOffsets(c, offs)
				if !ok {
					continue
				}
				for _, o := range offs {
					if int(o) < ft.RowsOff || int(o) >= ft.RowsEnd {
						t.Fatalf("col %d offset %d outside rows region [%d, %d)", c, o, ft.RowsOff, ft.RowsEnd)
					}
				}
			}
		}
		batch, _, err := DecodeBatch(data)
		if err != nil {
			return
		}
		footed := AppendFooter(append([]byte(nil), data...))
		batch2, _, err := DecodeBatch(footed)
		if err != nil {
			t.Fatalf("footered frame failed to decode: %v", err)
		}
		if len(batch) != len(batch2) {
			t.Fatalf("footer changed row count: %d -> %d", len(batch), len(batch2))
		}
		for i := range batch {
			if !tupleEq(batch[i], batch2[i]) {
				t.Fatalf("footer changed row %d: %v -> %v", i, batch[i], batch2[i])
			}
		}
	})
}

// footFrameSeed is footFrame without the testing.T, for fuzz corpus seeds.
func footFrameSeed(batch []types.Tuple) []byte {
	return AppendFooter(EncodeBatch(nil, batch))
}
