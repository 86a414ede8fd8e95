package core

import (
	"math/rand"
	"slices"
	"testing"

	"squall/internal/expr"
	"squall/internal/types"
	"squall/internal/wire"
)

// TestRowTargetsAgreeWithTargets is the packed-routing differential for the
// hypercube schemes: for every scheme kind and relation, RowTargets on the
// encoded row must pick exactly the machines Targets picks on the tuple —
// including identical rng consumption on random dimensions, which the
// replicated-pair-meets-once property depends on.
func TestRowTargetsAgreeWithTargets(t *testing.T) {
	spec := chainSpec(1000)
	for _, kind := range []SchemeKind{HashHypercube, RandomHypercube, HybridHypercube} {
		hc, err := BuildScheme(kind, spec, 16)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		for rel := 0; rel < 3; rel++ {
			g := hc.GroupingFor(rel)
			// The engine's dataflow.RowGrouping face.
			rg, ok := g.(interface {
				RowTargets(*wire.Cursor, int, *rand.Rand, []int) []int
			})
			if !ok {
				t.Fatalf("%v rel %d: column-ref scheme must be row-capable", kind, rel)
			}
			// Identical seeds: random dims must draw the same coordinates.
			rngA := rand.New(rand.NewSource(9))
			rngB := rand.New(rand.NewSource(9))
			rows := rand.New(rand.NewSource(10))
			var cur wire.Cursor
			var enc []byte
			for i := 0; i < 500; i++ {
				tu := types.Tuple{
					types.Int(int64(rows.Intn(64))),
					types.Int(int64(rows.Intn(64))),
					types.Str(string(rune('a' + rows.Intn(26)))),
				}
				want := g.Targets(tu, hc.Machines(), rngA, nil)
				enc = wire.Encode(enc[:0], tu)
				if err := cur.Reset(enc); err != nil {
					t.Fatal(err)
				}
				got := rg.RowTargets(&cur, hc.Machines(), rngB, nil)
				if len(got) != len(want) {
					t.Fatalf("%v rel %d row %v: packed %v, boxed %v", kind, rel, tu, got, want)
				}
				for k := range got {
					if got[k] != want[k] {
						t.Fatalf("%v rel %d row %v: packed %v, boxed %v", kind, rel, tu, got, want)
					}
				}
			}
		}
	}
}

// TestRowTargetsComputedKeys: on Hash and Hybrid cubes whose dimensions
// hash computed keys, RowTargets over the encoded row picks exactly the
// machines Targets picks over the tuple, drawing the same random
// coordinates, on random rows with NULL, int and integral-float keys.
func TestRowTargetsComputedKeys(t *testing.T) {
	plus1 := func(c int) expr.Expr { return expr.Arith{Op: expr.Add, L: expr.C(c), R: expr.I(1)} }
	spec := JoinSpec{
		Graph: expr.MustJoinGraph(3,
			expr.JoinConjunct{LRel: 0, RRel: 1, Op: expr.Eq, Left: plus1(1), Right: expr.C(0)}, // R.y+1 = S.y
			expr.JoinConjunct{LRel: 1, RRel: 2, Op: expr.Eq, Left: expr.C(1), Right: plus1(0)}, // S.z = T.z+1
		),
		Names:  []string{"R", "S", "T"},
		Sizes:  []int64{1000, 1000, 1000},
		Skewed: map[KeySlot]bool{{Rel: 2, Expr: plus1(0).String()}: true},
	}
	key := func(rng *rand.Rand) types.Value {
		switch rng.Intn(6) {
		case 0:
			return types.Null()
		case 1:
			return types.Float(float64(rng.Intn(64)))
		default:
			return types.Int(int64(rng.Intn(64)))
		}
	}
	for _, kind := range []SchemeKind{HashHypercube, HybridHypercube} {
		hc, err := BuildScheme(kind, spec, 16)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		computed := 0
		for rel := 0; rel < 3; rel++ {
			g := hc.GroupingFor(rel)
			if g.(hcGrouping).cols == nil {
				computed++
			}
			rg := g.(interface {
				RowTargets(*wire.Cursor, int, *rand.Rand, []int) []int
			})
			rngA, rngB := rand.New(rand.NewSource(9)), rand.New(rand.NewSource(9))
			rows := rand.New(rand.NewSource(int64(10 + rel)))
			var cur wire.Cursor
			var enc []byte
			for i := 0; i < 500; i++ {
				tu := types.Tuple{key(rows), key(rows), types.Str("p")}
				want := g.Targets(tu, hc.Machines(), rngA, nil)
				enc = wire.Encode(enc[:0], tu)
				if err := cur.Reset(enc); err != nil {
					t.Fatal(err)
				}
				if got := rg.RowTargets(&cur, hc.Machines(), rngB, nil); !slices.Equal(got, want) {
					t.Fatalf("%v %s rel %d row %v: RowTargets %v, Targets %v", kind, hc, rel, tu, got, want)
				}
			}
		}
		if computed == 0 {
			t.Fatalf("%v %s: no relation hashes a computed key", kind, hc)
		}
		t.Logf("%v: %s, %d relations with computed keys", kind, hc, computed)
	}
}
