package localjoin

import (
	"fmt"
	"math/rand"
	"testing"

	"squall/internal/expr"
	"squall/internal/types"
	"squall/internal/wire"
)

// packedDiffRow synthesizes a (key, payload, seq) row with occasional
// string and float keys so cross-kind hashing and verification run.
func packedDiffRow(rng *rand.Rand, rel, i, domain int) types.Tuple {
	k := int64(rng.Intn(domain))
	var key types.Value
	switch rng.Intn(4) {
	case 0:
		key = types.Float(float64(k)) // integral float: joins with int keys
	case 1:
		key = types.Str(fmt.Sprintf("k%d", k))
	default:
		key = types.Int(k)
	}
	return types.Tuple{key, types.Int(int64(rng.Intn(40))), types.Int(int64(rel*1_000_000 + i))}
}

// TestOnRowAgreesWithOnTuple feeds identical interleaved streams through a
// boxed and a packed operator and requires bag-identical delta output — the
// packed join's differential oracle, covering equi chains and theta
// conjuncts (tree probes).
func TestOnRowAgreesWithOnTuple(t *testing.T) {
	cases := []struct {
		name  string
		rels  int
		theta bool
	}{
		{"2way-equi", 2, false},
		{"2way-theta", 2, true},
		{"3way-chain", 3, false},
		{"3way-theta", 3, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var conj []expr.JoinConjunct
			for rel := 0; rel+1 < c.rels; rel++ {
				conj = append(conj, expr.EquiCol(rel, 0, rel+1, 0))
			}
			if c.theta {
				conj = append(conj, expr.ThetaCol(0, 1, expr.Lt, 1, 1))
			}
			g := expr.MustJoinGraph(c.rels, conj...)
			boxed := NewTraditional(g)
			packed := NewTraditional(g)
			if !packed.PackedCapable() {
				t.Fatal("column-ref graph must be packed-capable")
			}

			rng := rand.New(rand.NewSource(77))
			var cur wire.Cursor
			var row []byte
			for i := 0; i < 600; i++ {
				rel := rng.Intn(c.rels)
				tu := packedDiffRow(rng, rel, i, 12)

				wantBag := map[string]int{}
				deltas, err := boxed.OnTuple(rel, tu)
				if err != nil {
					t.Fatal(err)
				}
				for _, d := range deltas {
					wantBag[d.Concat().Key()]++
				}

				row = wire.Encode(row[:0], tu)
				if err := cur.Reset(row); err != nil {
					t.Fatal(err)
				}
				gotBag := map[string]int{}
				err = packed.OnRow(rel, row, &cur, func(out []byte) error {
					got, _, err := wire.Decode(out)
					if err != nil {
						return err
					}
					gotBag[got.Key()]++
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				if len(gotBag) != len(wantBag) {
					t.Fatalf("arrival %d: packed %v, boxed %v", i, gotBag, wantBag)
				}
				for k, n := range wantBag {
					if gotBag[k] != n {
						t.Fatalf("arrival %d: delta %q packed %d, boxed %d", i, k, gotBag[k], n)
					}
				}
			}
			if boxed.StoredTuples() != packed.StoredTuples() {
				t.Fatalf("stored %d vs %d", packed.StoredTuples(), boxed.StoredTuples())
			}
			// The two operators' states must be interchangeable: boxed
			// exports equal packed exports as bags.
			for rel := 0; rel < c.rels; rel++ {
				wb, pb := map[string]int{}, map[string]int{}
				for _, tu := range frameTuples(t, boxed, rel, 16) {
					wb[tu.Key()]++
				}
				for _, tu := range frameTuples(t, packed, rel, 16) {
					pb[tu.Key()]++
				}
				for k, n := range wb {
					if pb[k] != n {
						t.Fatalf("rel %d state diverges on %q", rel, k)
					}
				}
			}
		})
	}
}

// TestOnRowMixedWithTupleInserts interleaves packed arrivals with boxed
// Insert calls (the migration / recovery import path) on one operator: the
// shared indexes must agree regardless of which path stored a row.
func TestOnRowMixedWithTupleInserts(t *testing.T) {
	g := expr.MustJoinGraph(2, expr.EquiCol(0, 0, 1, 0))
	mixed := NewTraditional(g)
	boxed := NewTraditional(g)
	rng := rand.New(rand.NewSource(99))
	var cur wire.Cursor
	var row []byte
	for i := 0; i < 400; i++ {
		rel := rng.Intn(2)
		tu := packedDiffRow(rng, rel, i, 10)
		deltas, err := boxed.OnTuple(rel, tu)
		if err != nil {
			t.Fatal(err)
		}
		want := len(deltas)
		got := 0
		if i%3 == 0 {
			// Boxed probe on the mixed operator: count via OnTuple... but
			// OnTuple also inserts; emulate by alternating full paths.
			deltas, err := mixed.OnTuple(rel, tu)
			if err != nil {
				t.Fatal(err)
			}
			got = len(deltas)
		} else {
			row = wire.Encode(row[:0], tu)
			if err := cur.Reset(row); err != nil {
				t.Fatal(err)
			}
			if err := mixed.OnRow(rel, row, &cur, func([]byte) error { got++; return nil }); err != nil {
				t.Fatal(err)
			}
		}
		if got != want {
			t.Fatalf("arrival %d (%v): mixed produced %d deltas, boxed %d", i, tu, got, want)
		}
	}
}

func TestPackedCapableFallback(t *testing.T) {
	// A non-column side expression must disable the packed path.
	g := expr.MustJoinGraph(2, expr.JoinConjunct{
		LRel: 0, RRel: 1, Op: expr.Eq,
		Left:  expr.Arith{Op: expr.Mul, L: expr.C(0), R: expr.I(2)},
		Right: expr.C(0),
	})
	if NewTraditional(g).PackedCapable() {
		t.Fatal("arith conjunct must not be packed-capable")
	}
	// Column-ref conjuncts keep it on.
	eg := expr.MustJoinGraph(2, expr.EquiCol(0, 0, 1, 0))
	if !NewTraditional(eg).PackedCapable() {
		t.Fatal("column equi conjunct must be packed-capable")
	}
}
