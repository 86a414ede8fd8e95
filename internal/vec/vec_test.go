package vec

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"squall/internal/types"
	"squall/internal/wire"
)

func ops() []Op { return []Op{Eq, Ne, Lt, Le, Gt, Ge} }

// holds is the boxed reference: three-way cmpOrder then CmpHolds, the shape
// types.Value.Compare feeds expr.CmpHolds.
func holds[T int64 | float64](op Op, a, c T) bool {
	cmp := 0
	if a < c {
		cmp = -1
	} else if a > c {
		cmp = 1
	}
	return cmpHolds(op, cmp)
}

func TestSelKernelsMatchReference(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	ints := make([]int64, 200)
	floats := make([]float64, 200)
	for i := range ints {
		ints[i] = int64(r.Intn(20) - 10)
		switch r.Intn(10) {
		case 0:
			floats[i] = math.NaN()
		case 1:
			floats[i] = math.Inf(1 - 2*r.Intn(2))
		default:
			floats[i] = float64(r.Intn(20)-10) / 2
		}
	}
	in := All(len(ints), nil)
	dst := make(Sel, 0, len(in))
	for _, op := range ops() {
		got := SelInt64(ints, op, 3, in, Grow(dst, len(in)))
		var want Sel
		for _, i := range in {
			if holds(op, ints[i], 3) {
				want = append(want, i)
			}
		}
		if !equalSel(got, want) {
			t.Fatalf("SelInt64 op=%d: got %v want %v", op, got, want)
		}
		gotF := SelFloat64(floats, op, 1.5, in, Grow(dst, len(in)))
		var wantF Sel
		for _, i := range in {
			if holds(op, floats[i], 1.5) {
				wantF = append(wantF, i)
			}
		}
		if !equalSel(gotF, wantF) {
			t.Fatalf("SelFloat64 op=%d: got %d rows want %d", op, len(gotF), len(wantF))
		}
		// NaN constant: cmp==0 against everything, so Eq/Le/Ge keep all rows.
		gotN := SelFloat64(floats, op, math.NaN(), in, Grow(dst, len(in)))
		var wantN Sel
		for _, i := range in {
			if holds(op, floats[i], math.NaN()) {
				wantN = append(wantN, i)
			}
		}
		if !equalSel(gotN, wantN) {
			t.Fatalf("SelFloat64 NaN op=%d: got %d rows want %d", op, len(gotN), len(wantN))
		}
		gotC := SelInt64Cols(ints, ints[10:], op, All(100, nil), Grow(dst, 100))
		var wantC Sel
		for i := int32(0); i < 100; i++ {
			if holds(op, ints[i], ints[i+10]) {
				wantC = append(wantC, i)
			}
		}
		if !equalSel(gotC, wantC) {
			t.Fatalf("SelInt64Cols op=%d mismatch", op)
		}
		gotFC := SelFloat64Cols(floats, floats[10:], op, All(100, nil), Grow(dst, 100))
		var wantFC Sel
		for i := int32(0); i < 100; i++ {
			if holds(op, floats[i], floats[i+10]) {
				wantFC = append(wantFC, i)
			}
		}
		if !equalSel(gotFC, wantFC) {
			t.Fatalf("SelFloat64Cols op=%d mismatch", op)
		}
	}
}

func TestSelKernelInPlaceNarrowing(t *testing.T) {
	vals := []int64{5, 1, 7, 2, 9}
	sel := All(5, nil)
	sel = SelInt64(vals, Gt, 3, sel, sel)
	if !equalSel(sel, Sel{0, 2, 4}) {
		t.Fatalf("in-place narrow: %v", sel)
	}
	sel = SelInt64(vals, Lt, 9, sel, sel)
	if !equalSel(sel, Sel{0, 2}) {
		t.Fatalf("second narrow: %v", sel)
	}
}

func TestSetKernels(t *testing.T) {
	a := Sel{0, 2, 4, 6, 8}
	b := Sel{1, 2, 3, 6, 9}
	if got := Or(a, b, make(Sel, 0, 10)); !equalSel(got, Sel{0, 1, 2, 3, 4, 6, 8, 9}) {
		t.Fatalf("Or: %v", got)
	}
	if got := Diff(a, b, make(Sel, 0, 5)); !equalSel(got, Sel{0, 4, 8}) {
		t.Fatalf("Diff: %v", got)
	}
	if got := Diff(a, nil, make(Sel, 0, 5)); !equalSel(got, a) {
		t.Fatalf("Diff vs empty: %v", got)
	}
}

func testBatch(n int) []types.Tuple {
	batch := make([]types.Tuple, n)
	for i := range batch {
		batch[i] = types.Tuple{
			types.Int(int64(i*7 - 3)),
			types.Str("1996-01-02"),
			types.Float(float64(i) + 0.25),
			types.Str([]string{"BUILDING", "MACHINERY"}[i%2]),
		}
	}
	return batch
}

func newView(t *testing.T, batch []types.Tuple) *FrameView {
	t.Helper()
	frame := wire.AppendFooter(wire.EncodeBatch(nil, batch))
	v := &FrameView{}
	if !v.Reset(frame) {
		t.Fatal("FrameView.Reset rejected a footered frame")
	}
	return v
}

func TestFrameViewGathers(t *testing.T) {
	batch := testBatch(23)
	v := newView(t, batch)
	if v.Count() != len(batch) || v.NCols() != 4 {
		t.Fatalf("view %dx%d", v.Count(), v.NCols())
	}
	ints, ok := v.Int64s(0)
	if !ok {
		t.Fatal("Int64s(0) failed")
	}
	for i := range batch {
		if ints[i] != batch[i][0].I {
			t.Fatalf("row %d int: %d != %d", i, ints[i], batch[i][0].I)
		}
	}
	floats, ok := v.Float64s(2)
	if !ok {
		t.Fatal("Float64s(2) failed")
	}
	for i := range batch {
		if floats[i] != batch[i][2].F {
			t.Fatalf("row %d float: %g != %g", i, floats[i], batch[i][2].F)
		}
	}
	nums, ok := v.NumsAsFloat64(0)
	if !ok {
		t.Fatal("NumsAsFloat64(0) failed")
	}
	for i := range batch {
		if nums[i] != float64(batch[i][0].I) {
			t.Fatalf("row %d coerced: %g", i, nums[i])
		}
	}
	if _, ok := v.Int64s(1); ok {
		t.Fatal("Int64s on a string column should fail")
	}
	if _, ok := v.Float64s(0); ok {
		t.Fatal("Float64s on an int column should fail")
	}
	for i := range batch {
		sb, ok := v.StrBytes(3, int32(i))
		if !ok || string(sb) != batch[i][3].Str {
			t.Fatalf("row %d str: %q", i, sb)
		}
	}
}

func TestFrameViewRowsAndSplice(t *testing.T) {
	batch := testBatch(9)
	frame := wire.AppendFooter(wire.EncodeBatch(nil, batch))
	v := &FrameView{}
	if !v.Reset(frame) {
		t.Fatal("Reset failed")
	}
	var cur wire.Cursor
	r := 0
	_, _, err := wire.EachRow(frame, &cur, func(row []byte) error {
		got, ok := v.RowBytes(int32(r))
		if !ok || !bytes.Equal(got, row) {
			t.Fatalf("RowBytes(%d) = %x, want %x", r, got, row)
		}
		want := wire.SpliceRow(nil, &cur, []int{2, 0})
		spliced, ok := v.AppendRow(nil, []int{2, 0}, int32(r))
		if !ok || !bytes.Equal(spliced, want) {
			t.Fatalf("AppendRow(%d) = %x, want %x", r, spliced, want)
		}
		r++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := v.RowBytes(int32(len(batch))); ok {
		t.Fatal("RowBytes past the end should fail")
	}
}

func TestFrameViewBytesKernels(t *testing.T) {
	batch := testBatch(16)
	v := newView(t, batch)
	in := v.All()
	got, ok := v.SelBytesEq(3, []byte("BUILDING"), true, in, make(Sel, 0, len(in)))
	if !ok {
		t.Fatal("SelBytesEq failed")
	}
	var want Sel
	for i := range batch {
		if batch[i][3].Str == "BUILDING" {
			want = append(want, int32(i))
		}
	}
	if !equalSel(got, want) {
		t.Fatalf("SelBytesEq: %v want %v", got, want)
	}
	gotNe, ok := v.SelBytesEq(3, []byte("BUILDING"), false, in, make(Sel, 0, len(in)))
	if !ok || len(gotNe)+len(got) != len(batch) {
		t.Fatalf("SelBytesEq neq: %d + %d != %d", len(gotNe), len(got), len(batch))
	}
	gotLt, ok := v.SelBytesCmp(3, Lt, []byte("C"), in, make(Sel, 0, len(in)))
	if !ok || len(gotLt) != len(want) {
		t.Fatalf("SelBytesCmp Lt C: %v", gotLt)
	}
	if _, ok := v.SelBytesEq(0, []byte("x"), true, in, nil); ok {
		t.Fatal("SelBytesEq on int column should fail")
	}
}

func TestFrameViewRejectsBareFrame(t *testing.T) {
	v := &FrameView{}
	if v.Reset(wire.EncodeBatch(nil, testBatch(4))) {
		t.Fatal("Reset accepted a bare frame")
	}
	if v.Reset(nil) {
		t.Fatal("Reset accepted nil")
	}
	// Reuse after rejection must still work.
	if !v.Reset(wire.AppendFooter(wire.EncodeBatch(nil, testBatch(4)))) {
		t.Fatal("Reset failed after a rejected frame")
	}
	if _, ok := v.Int64s(0); !ok {
		t.Fatal("gather failed after view reuse")
	}
}

func TestFrameViewMixedKindColumn(t *testing.T) {
	batch := []types.Tuple{
		{types.Int(1), types.Int(10)},
		{types.Float(2.5), types.Int(20)},
	}
	v := newView(t, batch)
	if _, ok := v.Int64s(0); ok {
		t.Fatal("Int64s on a mixed column should fail")
	}
	if _, ok := v.NumsAsFloat64(0); ok {
		t.Fatal("NumsAsFloat64 on a mixed column should fail")
	}
	if ints, ok := v.Int64s(1); !ok || ints[0] != 10 || ints[1] != 20 {
		t.Fatalf("Int64s on the uniform column: %v %v", ints, ok)
	}
}

func equalSel(a, b Sel) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
