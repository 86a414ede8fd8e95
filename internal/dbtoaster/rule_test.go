package dbtoaster

import (
	"fmt"
	"math/rand"
	"testing"

	"squall/internal/expr"
	"squall/internal/localjoin"
	"squall/internal/slab"
	"squall/internal/types"
	"squall/internal/wire"
)

// ruleRow synthesizes a (key, band, seq) row whose key is an int, an
// integral float (joins with int keys), a string or NULL, so cross-kind
// hashing, string verification and NULL semantics all run.
func ruleRow(rng *rand.Rand, rel, i int) types.Tuple {
	k := int64(rng.Intn(6))
	var key types.Value
	switch rng.Intn(6) {
	case 0:
		key = types.Float(float64(k))
	case 1:
		key = types.Str(fmt.Sprintf("k%d", k))
	case 2:
		key = types.Null()
	default:
		key = types.Int(k)
	}
	band := types.Int(int64(rng.Intn(12)))
	if rng.Intn(10) == 0 {
		band = types.Null()
	}
	return types.Tuple{key, band, types.Int(int64(rel*1_000_000 + i))}
}

// nestedLoopDelta is the oracle: the arrival joined with every stored tuple
// of the other relation, the graph's conjuncts checked directly.
func nestedLoopDelta(t *testing.T, g *expr.JoinGraph, stored [2][]types.Tuple, rel int, tu types.Tuple) map[string]int {
	t.Helper()
	bag := map[string]int{}
	pair := make([]types.Tuple, 2)
	pair[rel] = tu
	for _, o := range stored[1-rel] {
		pair[1-rel] = o
		ok, err := g.HoldsAll(0b11, pair)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			bag[localjoin.Delta(pair).Concat().Key()]++
		}
	}
	return bag
}

func sameBag(t *testing.T, label string, i int, got, want map[string]int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("arrival %d: %s emitted %v, oracle %v", i, label, got, want)
	}
	for k, n := range want {
		if got[k] != n {
			t.Fatalf("arrival %d: %s emitted delta %q x%d, oracle x%d", i, label, k, got[k], n)
		}
	}
}

// TestViewLessRuleEquivalence: on 2-relation graphs what NewTupleJoin hands
// back — the base-relation core — emits through OnRow, arrival by arrival,
// the delta bag of the view operator it stands in for and of the
// nested-loop oracle, on column and computed join keys alike.
func TestViewLessRuleEquivalence(t *testing.T) {
	cases := []struct {
		name string
		g    *expr.JoinGraph
	}{
		{"equi", expr.MustJoinGraph(2, expr.EquiCol(0, 0, 1, 0))},
		{"theta", expr.MustJoinGraph(2, expr.ThetaCol(0, 1, expr.Lt, 1, 1))},
		{"theta-ge", expr.MustJoinGraph(2, expr.ThetaCol(0, 1, expr.Ge, 1, 1))},
		{"ne-only", expr.MustJoinGraph(2, expr.ThetaCol(0, 1, expr.Ne, 1, 1))},
		{"equi+filter", expr.MustJoinGraph(2, expr.EquiCol(0, 0, 1, 0), expr.ThetaCol(0, 1, expr.Le, 1, 1))},
		// 2·R.band = S.band: a side that is not a plain column, evaluated
		// where the core reads it.
		{"expr-side", expr.MustJoinGraph(2, expr.JoinConjunct{
			LRel: 0, RRel: 1, Op: expr.Eq,
			Left:  expr.Arith{Op: expr.Mul, L: expr.C(1), R: expr.I(2)},
			Right: expr.C(1),
		})},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			core := NewTupleJoin(c.g)
			if _, ok := core.(*localjoin.Traditional); !ok {
				t.Fatalf("NewTupleJoin on a 2-relation graph returned %T, want the base-relation core", core)
			}
			if !core.PackedCapable() {
				t.Fatal("PackedCapable = false, want true")
			}
			views, viewsPacked := newTupleJoin(c.g), newTupleJoin(c.g)

			onTuple := func(j *TupleJoin, rel int, tu types.Tuple) map[string]int {
				deltas, err := j.OnTuple(rel, tu)
				if err != nil {
					t.Fatal(err)
				}
				bag := map[string]int{}
				for _, d := range deltas {
					bag[d.Concat().Key()]++
				}
				return bag
			}
			var cur wire.Cursor
			var row []byte
			onRow := func(j localjoin.PackedJoin, rel int, tu types.Tuple) map[string]int {
				row = wire.Encode(row[:0], tu)
				if err := cur.Reset(row); err != nil {
					t.Fatal(err)
				}
				bag := map[string]int{}
				if err := j.OnRow(rel, row, &cur, func(out []byte) error {
					got, _, err := wire.Decode(out)
					if err != nil {
						return err
					}
					bag[got.Key()]++
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				return bag
			}

			rng := rand.New(rand.NewSource(41))
			var stored [2][]types.Tuple
			total := 0
			for i := 0; i < 500; i++ {
				rel := rng.Intn(2)
				tu := ruleRow(rng, rel, i)
				want := nestedLoopDelta(t, c.g, stored, rel, tu)
				for _, n := range want {
					total += n
				}
				sameBag(t, "view operator OnTuple", i, onTuple(views, rel, tu), want)
				sameBag(t, "view operator OnRow", i, onRow(viewsPacked, rel, tu), want)
				sameBag(t, "core OnRow", i, onRow(core, rel, tu), want)
				stored[rel] = append(stored[rel], tu)
			}
			if total == 0 {
				t.Fatal("workload produced no deltas")
			}
		})
	}
}

// TestViewLessRuleCoversEveryLayout: the resident and tiered constructors
// apply the rule alike, and leave graphs with intermediate views to the
// view operator.
func TestViewLessRuleCoversEveryLayout(t *testing.T) {
	two := expr.MustJoinGraph(2, expr.EquiCol(0, 0, 1, 0))
	tc := slab.TierConfig{SegmentRows: 64, KeyPrefix: "rule"}
	for name, j := range map[string]Join{
		"slab":   NewTupleJoin(two),
		"tiered": NewTupleJoinTiered(two, tc),
	} {
		if _, ok := j.(*localjoin.Traditional); !ok {
			t.Errorf("%s: 2-relation graph got %T", name, j)
		}
	}
	for name, j := range map[string]Join{
		"slab":   NewTupleJoin(chain3()),
		"tiered": NewTupleJoinTiered(chain3(), tc),
	} {
		if _, ok := j.(*TupleJoin); !ok {
			t.Errorf("%s: 3-relation graph got %T", name, j)
		}
		if !j.PackedCapable() {
			t.Errorf("%s: the view operator must take packed rows", name)
		}
	}
	// A side expression that is not a plain column keeps the base-relation
	// core on the row path: it is evaluated where it is read.
	exprSide := expr.MustJoinGraph(2, expr.JoinConjunct{
		LRel: 0, RRel: 1, Op: expr.Eq,
		Left:  expr.Arith{Op: expr.Mul, L: expr.C(0), R: expr.I(2)},
		Right: expr.C(0),
	})
	for name, j := range map[string]Join{
		"slab":   NewTupleJoin(exprSide),
		"tiered": NewTupleJoinTiered(exprSide, tc),
	} {
		if _, ok := j.(*localjoin.Traditional); !ok || !j.PackedCapable() {
			t.Errorf("%s: non-column conjunct got %T, PackedCapable %v", name, j, j.PackedCapable())
		}
	}
}
