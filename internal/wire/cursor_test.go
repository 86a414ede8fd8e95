package wire

import (
	"bytes"
	"math"
	"testing"

	"squall/internal/types"
)

// cursorCases is a spread of tuples exercising every kind, cross-kind
// hashing identities and empty/long strings.
func cursorCases() []types.Tuple {
	return []types.Tuple{
		{},
		{types.Int(0)},
		{types.Int(-1), types.Int(1), types.Int(math.MaxInt64), types.Int(math.MinInt64)},
		{types.Float(2.0), types.Int(2)}, // integral float hashes like the int
		{types.Float(3.25), types.Float(math.Inf(1)), types.Float(-0.0)},
		{types.Str(""), types.Str("a"), types.Str("the quick brown fox")},
		{types.Null(), types.Int(7), types.Null()},
		{types.Int(42), types.Str("1996-01-02"), types.Float(1.5), types.Str("BUILDING")},
	}
}

func TestCursorAccessorsAgreeWithDecode(t *testing.T) {
	var cur Cursor
	for _, tu := range cursorCases() {
		row := Encode(nil, tu)
		if err := cur.Reset(row); err != nil {
			t.Fatalf("Reset(%v): %v", tu, err)
		}
		if cur.Arity() != len(tu) {
			t.Fatalf("arity %d, want %d", cur.Arity(), len(tu))
		}
		got := cur.Tuple(nil)
		if got.Compare(tu) != 0 {
			t.Fatalf("Tuple() = %v, want %v", got, tu)
		}
		for i, v := range tu {
			if cur.Kind(i) != v.Kind() {
				t.Fatalf("Kind(%d) = %v, want %v", i, cur.Kind(i), v.Kind())
			}
			if !cur.Value(i).Equal(v) {
				t.Fatalf("Value(%d) = %v, want %v", i, cur.Value(i), v)
			}
			if cur.ValueHash(i) != v.Hash() {
				t.Fatalf("ValueHash(%d) = %d, want %d for %v", i, cur.ValueHash(i), v.Hash(), v)
			}
			// Field splicing must reproduce the field's encoding exactly.
			if want := Encode(nil, types.Tuple{v}); !bytes.Equal(cur.FieldBytes(i), want[1:]) {
				t.Fatalf("FieldBytes(%d) = %x, want %x", i, cur.FieldBytes(i), want[1:])
			}
		}
		if cur.Hash() != tu.Hash() {
			t.Fatalf("Hash() = %d, want %d for %v", cur.Hash(), tu.Hash(), tu)
		}
		if got, want := string(cur.AppendKey(nil)), tu.Key(); got != want {
			t.Fatalf("AppendKey = %q, want %q", got, want)
		}
		if len(tu) >= 2 {
			if cur.Hash(1, 0) != tu.Hash(1, 0) {
				t.Fatalf("Hash(1,0) mismatch for %v", tu)
			}
			if got, want := string(cur.AppendKey(nil, 1)), tu.Key(1); got != want {
				t.Fatalf("AppendKey(1) = %q, want %q", got, want)
			}
		}
	}
}

func TestCursorCompare(t *testing.T) {
	vals := []types.Value{
		types.Null(), types.Int(-3), types.Int(2), types.Float(2.0),
		types.Float(2.5), types.Str(""), types.Str("abc"), types.Str("abd"),
	}
	var ca, cb Cursor
	for _, a := range vals {
		rowA := Encode(nil, types.Tuple{a})
		if err := ca.Reset(rowA); err != nil {
			t.Fatal(err)
		}
		for _, b := range vals {
			rowB := Encode(nil, types.Tuple{b})
			if err := cb.Reset(rowB); err != nil {
				t.Fatal(err)
			}
			wantCmp := a.Compare(b)
			wantNull := a.IsNull() || b.IsNull()
			if cmp, anyNull := ca.CompareValue(0, b); cmp != wantCmp || anyNull != wantNull {
				t.Fatalf("CompareValue(%v, %v) = (%d, %v), want (%d, %v)", a, b, cmp, anyNull, wantCmp, wantNull)
			}
			if cmp, anyNull := CompareFields(&ca, 0, &cb, 0); cmp != wantCmp || anyNull != wantNull {
				t.Fatalf("CompareFields(%v, %v) = (%d, %v), want (%d, %v)", a, b, cmp, anyNull, wantCmp, wantNull)
			}
		}
	}
}

func TestSpliceRow(t *testing.T) {
	tu := types.Tuple{types.Int(1), types.Str("x"), types.Float(2.5), types.Null()}
	var cur Cursor
	if err := cur.Reset(Encode(nil, tu)); err != nil {
		t.Fatal(err)
	}
	cols := []int{3, 1, 1, 0}
	got := SpliceRow(nil, &cur, cols)
	want := Encode(nil, types.Tuple{tu[3], tu[1], tu[1], tu[0]})
	if !bytes.Equal(got, want) {
		t.Fatalf("SpliceRow = %x, want %x", got, want)
	}
}

func TestEachRow(t *testing.T) {
	batch := []types.Tuple{
		{types.Int(1), types.Str("a")},
		{types.Int(2)},
		{},
	}
	frame := EncodeBatch(nil, batch)
	var cur Cursor
	var rows []types.Tuple
	count, consumed, err := EachRow(frame, &cur, func(row []byte) error {
		rows = append(rows, cur.Tuple(nil))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != len(batch) || consumed != len(frame) {
		t.Fatalf("count=%d consumed=%d, want %d, %d", count, consumed, len(batch), len(frame))
	}
	for i := range batch {
		if rows[i].Compare(batch[i]) != 0 {
			t.Fatalf("row %d = %v, want %v", i, rows[i], batch[i])
		}
	}
}

// FuzzCursor is the PR 5 packed-view fuzz contract: on any input that
// wire.Decode accepts, every Cursor accessor must agree exactly with the
// decoded tuple's Hash/Key/values; on malformed input nothing may panic.
func FuzzCursor(f *testing.F) {
	for _, tu := range cursorCases() {
		f.Add(Encode(nil, tu))
	}
	f.Add([]byte{})
	f.Add([]byte{0x03, 0x01})
	f.Add([]byte{0x01, 0x03, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, src []byte) {
		var cur Cursor
		n, err := cur.Parse(src)
		tu, dn, derr := Decode(src)
		if derr != nil {
			// The cursor scan may be stricter or looser on garbage, but it
			// must never panic; nothing more to check.
			return
		}
		if err != nil {
			t.Fatalf("Decode accepted %x but Parse rejected it: %v", src, err)
		}
		if n != dn {
			t.Fatalf("Parse consumed %d, Decode consumed %d", n, dn)
		}
		if cur.Arity() != len(tu) {
			t.Fatalf("arity %d, want %d", cur.Arity(), len(tu))
		}
		if cur.Tuple(nil).Compare(tu) != 0 {
			t.Fatalf("Tuple() = %v, want %v", cur.Tuple(nil), tu)
		}
		if cur.Hash() != tu.Hash() {
			t.Fatalf("Hash mismatch for %v", tu)
		}
		if string(cur.AppendKey(nil)) != tu.Key() {
			t.Fatalf("key mismatch for %v", tu)
		}
		for i, v := range tu {
			if cur.ValueHash(i) != v.Hash() {
				t.Fatalf("ValueHash(%d) mismatch for %v", i, v)
			}
			if !cur.Value(i).Equal(v) {
				t.Fatalf("Value(%d) mismatch", i)
			}
			if got, want := string(cur.AppendKey(nil, i)), tu.Key(i); got != want {
				t.Fatalf("AppendKey(%d) = %q, want %q", i, got, want)
			}
			iv, iok := cur.FieldInt(i)
			wiv, wiok := v.AsInt()
			if iok != wiok || (iok && iv != wiv) {
				t.Fatalf("FieldInt(%d) = (%d,%v), want (%d,%v)", i, iv, iok, wiv, wiok)
			}
			fv, fok := cur.FieldFloat(i)
			wfv, wfok := v.AsFloat()
			if fok != wfok || (fok && fv != wfv && !(math.IsNaN(fv) && math.IsNaN(wfv))) {
				t.Fatalf("FieldFloat(%d) = (%g,%v), want (%g,%v)", i, fv, fok, wfv, wfok)
			}
		}
	})
}
