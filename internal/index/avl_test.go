package index

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"squall/internal/types"
)

func it(v int64) Item { return Item{T: types.Tuple{types.Int(v)}, W: float64(v)} }

func TestTreeInsertAndOrderedRange(t *testing.T) {
	tr := NewTree()
	for _, v := range []int64{5, 1, 9, 3, 7, 3} {
		tr.Insert(types.Int(v), it(v))
	}
	var got []int64
	tr.Range(Unbounded(), Unbounded(), func(k types.Value, _ Item) bool {
		got = append(got, k.I)
		return true
	})
	want := []int64{1, 3, 3, 5, 7, 9}
	if len(got) != len(want) {
		t.Fatalf("range visited %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("range order %v, want %v", got, want)
		}
	}
	if cnt(tr.root) != 6 {
		t.Errorf("Len = %d", cnt(tr.root))
	}
}

func TestTreeRangeBounds(t *testing.T) {
	tr := NewTree()
	for v := int64(1); v <= 10; v++ {
		tr.Insert(types.Int(v), it(v))
	}
	cases := []struct {
		lo, hi Bound
		want   int64
	}{
		{Incl(types.Int(3)), Incl(types.Int(7)), 5},
		{Excl(types.Int(3)), Incl(types.Int(7)), 4},
		{Incl(types.Int(3)), Excl(types.Int(7)), 4},
		{Excl(types.Int(3)), Excl(types.Int(7)), 3},
		{Unbounded(), Incl(types.Int(4)), 4},
		{Incl(types.Int(8)), Unbounded(), 3},
		{Unbounded(), Unbounded(), 10},
		{Incl(types.Int(11)), Unbounded(), 0},
		{Incl(types.Int(5)), Incl(types.Int(4)), 0},
	}
	for _, c := range cases {
		cnt, _ := tr.RangeAgg(c.lo, c.hi)
		if cnt != c.want {
			t.Errorf("RangeAgg(%v,%v) count = %d, want %d", c.lo, c.hi, cnt, c.want)
		}
		var visited int64
		tr.Range(c.lo, c.hi, func(types.Value, Item) bool { visited++; return true })
		if visited != c.want {
			t.Errorf("Range(%v,%v) visited %d, want %d", c.lo, c.hi, visited, c.want)
		}
	}
}

func TestTreeRangeAggSum(t *testing.T) {
	tr := NewTree()
	for v := int64(1); v <= 100; v++ {
		tr.Insert(types.Int(v), it(v))
	}
	_, s := tr.RangeAgg(Incl(types.Int(10)), Incl(types.Int(20)))
	want := 0.0
	for v := 10; v <= 20; v++ {
		want += float64(v)
	}
	if math.Abs(s-want) > 1e-9 {
		t.Errorf("sum = %g, want %g", s, want)
	}
}

func TestTreeBalancedHeight(t *testing.T) {
	tr := NewTree()
	const n = 1 << 12
	for v := int64(0); v < n; v++ { // sorted insertion is the adversarial case
		tr.Insert(types.Int(v), it(v))
	}
	// AVL height bound: 1.44*log2(n+2). For n=4096 that is ~17.4.
	if h := height(tr.root); h > 18 {
		t.Errorf("height %d exceeds AVL bound for %d keys", h, n)
	}
}

func TestTreeAgainstReferenceModel(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	tr := NewTree()
	type entry struct {
		k int64
		t types.Tuple
		w float64
	}
	var ref []entry
	for op := 0; op < 4000; op++ {
		k := r.Int63n(60)
		tup := types.Tuple{types.Int(k), types.Int(int64(op))}
		w := float64(r.Intn(10))
		tr.Insert(types.Int(k), Item{T: tup, W: w})
		ref = append(ref, entry{k, tup, w})
		if op%97 == 0 {
			lo, hi := r.Int63n(60), r.Int63n(60)
			if lo > hi {
				lo, hi = hi, lo
			}
			var wantC int64
			var wantS float64
			for _, e := range ref {
				if e.k >= lo && e.k <= hi {
					wantC++
					wantS += e.w
				}
			}
			gotC, gotS := tr.RangeAgg(Incl(types.Int(lo)), Incl(types.Int(hi)))
			if gotC != wantC || math.Abs(gotS-wantS) > 1e-6 {
				t.Fatalf("op %d: RangeAgg[%d,%d] = (%d,%g), want (%d,%g)", op, lo, hi, gotC, gotS, wantC, wantS)
			}
			var visited int64
			tr.Range(Incl(types.Int(lo)), Incl(types.Int(hi)), func(types.Value, Item) bool { visited++; return true })
			if visited != wantC {
				t.Fatalf("op %d: Range[%d,%d] visited %d, want %d", op, lo, hi, visited, wantC)
			}
		}
	}
	if cnt(tr.root) != int64(len(ref)) {
		t.Errorf("Len = %d, model %d", cnt(tr.root), len(ref))
	}
	// Final full-order check.
	keys := make([]int64, 0, len(ref))
	for _, e := range ref {
		keys = append(keys, e.k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	var got []int64
	tr.Range(Unbounded(), Unbounded(), func(k types.Value, _ Item) bool {
		got = append(got, k.I)
		return true
	})
	if len(got) != len(keys) {
		t.Fatalf("in-order visit count %d, want %d", len(got), len(keys))
	}
	for i := range keys {
		if got[i] != keys[i] {
			t.Fatalf("in-order mismatch at %d: %d vs %d", i, got[i], keys[i])
		}
	}
}

func TestTreeEarlyStop(t *testing.T) {
	tr := NewTree()
	for v := int64(0); v < 100; v++ {
		tr.Insert(types.Int(v), it(v))
	}
	n := 0
	tr.Range(Unbounded(), Unbounded(), func(types.Value, Item) bool {
		n++
		return n < 5
	})
	if n != 5 {
		t.Errorf("early stop visited %d", n)
	}
}

func TestTreeMemSize(t *testing.T) {
	tr := NewTree()
	base := tr.MemSize()
	tup := types.Tuple{types.Str("payload")}
	tr.Insert(types.Int(1), Item{T: tup, W: 1})
	if got, want := tr.MemSize(), base+tup.MemSize()+types.Int(1).MemSize(); got != want {
		t.Errorf("MemSize = %d after one insert, want %d", got, want)
	}
}
