package wire

import (
	"testing"

	"squall/internal/types"
)

// TestCursorHashAppendKeyNoAlloc audits the variadic `cols ...int` call
// shapes on the routing/grouping hot path: spreading a preallocated slice
// and passing literal column indexes must both stay off the heap, for Hash
// and AppendKey alike.
func TestCursorHashAppendKeyNoAlloc(t *testing.T) {
	row := Encode(nil, types.Tuple{
		types.Int(42), types.Str("BUILDING"), types.Float(3.5), types.Int(-7),
	})
	var cur Cursor
	if err := cur.Reset(row); err != nil {
		t.Fatal(err)
	}
	cols := []int{0, 2}
	buf := make([]byte, 0, 64)
	var sink uint64

	allocs := testing.AllocsPerRun(1000, func() {
		sink ^= cur.Hash(cols...)
	})
	if allocs != 0 {
		t.Errorf("Cursor.Hash(cols...) allocates %.1f per call, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(1000, func() {
		sink ^= cur.Hash(0)
	})
	if allocs != 0 {
		t.Errorf("Cursor.Hash(0) allocates %.1f per call, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(1000, func() {
		sink ^= cur.Hash()
	})
	if allocs != 0 {
		t.Errorf("Cursor.Hash() allocates %.1f per call, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(1000, func() {
		buf = cur.AppendKey(buf[:0], cols...)
	})
	if allocs != 0 {
		t.Errorf("Cursor.AppendKey(buf, cols...) allocates %.1f per call, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(1000, func() {
		buf = cur.AppendKey(buf[:0], 1, 3)
	})
	if allocs != 0 {
		t.Errorf("Cursor.AppendKey(buf, 1, 3) allocates %.1f per call, want 0", allocs)
	}
	_ = sink
}

// TestTupleHashAppendKeyNoAlloc pins the boxed twins the packed forms must
// match: the same variadic shapes over types.Tuple.
func TestTupleHashAppendKeyNoAlloc(t *testing.T) {
	tu := types.Tuple{
		types.Int(42), types.Str("BUILDING"), types.Float(3.5), types.Int(-7),
	}
	cols := []int{0, 2}
	buf := make([]byte, 0, 64)
	var sink uint64

	allocs := testing.AllocsPerRun(1000, func() {
		sink ^= tu.Hash(cols...)
	})
	if allocs != 0 {
		t.Errorf("Tuple.Hash(cols...) allocates %.1f per call, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(1000, func() {
		sink ^= tu.Hash(0)
	})
	if allocs != 0 {
		t.Errorf("Tuple.Hash(0) allocates %.1f per call, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(1000, func() {
		buf = tu.AppendKey(buf[:0], cols...)
	})
	if allocs != 0 {
		t.Errorf("Tuple.AppendKey(buf, cols...) allocates %.1f per call, want 0", allocs)
	}
	_ = sink
}
