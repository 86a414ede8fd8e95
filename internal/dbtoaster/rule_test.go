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

// nestedLoopDelta is the oracle: the arrival joined with every combination
// of stored tuples of the other relations, the graph's conjuncts checked
// directly, each as soon as both its relations are assigned.
func nestedLoopDelta(t *testing.T, g *expr.JoinGraph, stored [][]types.Tuple, rel int, tu types.Tuple) map[string]int {
	t.Helper()
	bag := map[string]int{}
	cur := make(delta, g.NumRels)
	cur[rel] = tu
	var rec func(r int, mask uint64)
	rec = func(r int, mask uint64) {
		if r == g.NumRels {
			bag[cur.concat().Key()]++
			return
		}
		if r == rel {
			rec(r+1, mask)
			return
		}
	rows:
		for _, o := range stored[r] {
			cur[r] = o
			for _, c := range g.Between(mask, 1<<uint(r)) {
				ok, err := c.Holds(cur)
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					continue rows
				}
			}
			rec(r+1, mask|1<<uint(r))
		}
	}
	rec(0, 1<<uint(rel))
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
// back — the core under the Traditional policy — emits through OnRow,
// arrival by arrival, the delta bag of the Views policy it stands in for
// and of the nested-loop oracle, on column and computed join keys alike.
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
			if len(viewSizes(t, core)) != 2 {
				t.Fatalf("NewTupleJoin on a 2-relation graph materializes views %v, want the base relations alone", viewSizes(t, core))
			}
			if !core.PackedCapable() {
				t.Fatal("PackedCapable = false, want true")
			}
			views := localjoin.NewViews(c.g)

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
			stored := make([][]types.Tuple, 2)
			total := 0
			for i := 0; i < 500; i++ {
				rel := rng.Intn(2)
				tu := ruleRow(rng, rel, i)
				want := nestedLoopDelta(t, c.g, stored, rel, tu)
				for _, n := range want {
					total += n
				}
				sameBag(t, "Views policy OnRow", i, onRow(views, rel, tu), want)
				sameBag(t, "core OnRow", i, onRow(core, rel, tu), want)
				stored[rel] = append(stored[rel], tu)
			}
			if total == 0 {
				t.Fatal("workload produced no deltas")
			}
		})
	}
}

// TestTupleJoinOnRowsAgreesWithOracle: the view operator fed one stream
// twice — a row at a time through OnRow, and in frames of up to nine rows
// through OnRows — emits the nested-loop oracle's delta bag for every
// arrival (summed over each frame), and both copies end with the same
// views. Keys mix ints, integral floats, strings and NULLs; the graphs put
// an equality, a range and no probe at all (Ne only) on the first step.
func TestTupleJoinOnRowsAgreesWithOracle(t *testing.T) {
	cases := []struct {
		name string
		g    *expr.JoinGraph
	}{
		{"3way-chain", expr.MustJoinGraph(3, expr.EquiCol(0, 0, 1, 0), expr.EquiCol(1, 0, 2, 0))},
		{"3way-theta", expr.MustJoinGraph(3, expr.EquiCol(0, 0, 1, 0), expr.EquiCol(1, 0, 2, 0), expr.ThetaCol(0, 1, expr.Lt, 1, 1))},
		{"3way-band-first", expr.MustJoinGraph(3, expr.ThetaCol(0, 1, expr.Lt, 1, 1), expr.EquiCol(1, 0, 2, 0))},
		{"3way-ne", expr.MustJoinGraph(3, expr.ThetaCol(0, 1, expr.Ne, 1, 1), expr.EquiCol(1, 0, 2, 0))},
		{"4way-star", expr.MustJoinGraph(4, expr.EquiCol(0, 0, 1, 0), expr.EquiCol(0, 0, 2, 0), expr.ThetaCol(0, 1, expr.Ge, 3, 1))},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			byRow, bySet := NewTupleJoin(c.g), NewTupleJoin(c.g)
			rng := rand.New(rand.NewSource(31))
			stored := make([][]types.Tuple, c.g.NumRels)
			var cur wire.Cursor
			emit := func(bag map[string]int) func([]byte) error {
				return func(out []byte) error {
					got, _, err := wire.Decode(out)
					if err != nil {
						return err
					}
					bag[got.Key()]++
					return nil
				}
			}
			total := 0
			for i, f := 0, 0; i < 240; f++ {
				rel := rng.Intn(c.g.NumRels)
				frame := make([][]byte, 1+rng.Intn(9))
				want, gotRow, gotSet := map[string]int{}, map[string]int{}, map[string]int{}
				for k := range frame {
					tu := ruleRow(rng, rel, i)
					i++
					for key, n := range nestedLoopDelta(t, c.g, stored, rel, tu) {
						want[key] += n
						total += n
					}
					frame[k] = wire.Encode(nil, tu)
					if err := cur.Reset(frame[k]); err != nil {
						t.Fatal(err)
					}
					if err := byRow.OnRow(rel, frame[k], &cur, emit(gotRow)); err != nil {
						t.Fatal(err)
					}
				}
				for _, row := range frame {
					tu, _, err := wire.Decode(row)
					if err != nil {
						t.Fatal(err)
					}
					stored[rel] = append(stored[rel], tu)
				}
				if err := bySet.OnRows(rel, frame, emit(gotSet)); err != nil {
					t.Fatal(err)
				}
				sameBag(t, "OnRow", f, gotRow, want)
				sameBag(t, "OnRows", f, gotSet, want)
			}
			if total == 0 {
				t.Fatal("workload produced no deltas")
			}
			rowViews, setViews := viewSizes(t, byRow), viewSizes(t, bySet)
			if len(rowViews) <= c.g.NumRels {
				t.Fatalf("views %v: no combo view materialized", rowViews)
			}
			for mask, n := range rowViews {
				if setViews[mask] != n {
					t.Fatalf("view %b: OnRows left %d combos, OnRow %d", mask, setViews[mask], n)
				}
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
		if sizes := viewSizes(t, j); len(sizes) != 5 {
			t.Errorf("%s: 3-relation chain materializes views %v, want its 3 base relations and 2 connected pairs", name, sizes)
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
