package dbtoaster

import (
	"fmt"
	"math/rand"
	"testing"

	"squall/internal/expr"
	"squall/internal/types"
	"squall/internal/wire"
)

// mixedValue draws an int, an integral float (equal to the int under
// expr.CmpOp.Apply), a string or NULL over a small domain.
func mixedValue(rng *rand.Rand) types.Value {
	k := int64(rng.Intn(4))
	switch rng.Intn(6) {
	case 0:
		return types.Float(float64(k))
	case 1:
		return types.Str(fmt.Sprintf("k%d", k))
	case 2:
		return types.Null()
	default:
		return types.Int(k)
	}
}

// mixedRel synthesizes (key, key, num) rows: both key columns mix kinds and
// NULLs, the numeric column is an int, a float or NULL.
func mixedRel(rng *rand.Rand, n int) []types.Tuple {
	rows := make([]types.Tuple, n)
	for i := range rows {
		num := types.Int(int64(rng.Intn(9)))
		switch rng.Intn(5) {
		case 0:
			num = types.Float(float64(rng.Intn(9)) + 0.5)
		case 1:
			num = types.Null()
		}
		rows[i] = types.Tuple{mixedValue(rng), mixedValue(rng), num}
	}
	return rows
}

// TestAggJoinKeySemanticsMatchOracle: arrival by arrival and in Result, the
// aggregate views equal the traditional join's deltas aggregated in plain Go
// over keys mixing NULL, int, integral float and string values. Join keys
// follow expr.CmpOp.Apply (NULL joins nothing, Int(k) joins Float(k));
// group-by values keep encoding identity, so NULL groups form one group.
func TestAggJoinKeySemanticsMatchOracle(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *expr.JoinGraph
		spec AggSpec
	}{
		{"2way", expr.MustJoinGraph(2, expr.EquiCol(0, 0, 1, 0)), AggSpec{
			GroupBy: []ColRef{{Rel: 0, E: expr.C(1)}, {Rel: 1, E: expr.C(1)}},
			Kind:    AggSum, Sum: &ColRef{Rel: 1, E: expr.C(2)},
		}},
		{"3way-chain", chain3(), AggSpec{
			GroupBy: []ColRef{{Rel: 0, E: expr.C(0)}, {Rel: 2, E: expr.C(1)}},
			Kind:    AggSum, Sum: &ColRef{Rel: 1, E: expr.C(2)},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(29))
			rels := make([][]types.Tuple, tc.g.NumRels)
			for i := range rels {
				rels[i] = mixedRel(rng, 40)
			}
			trad := newTradRef(tc.g)
			agg, err := NewAggJoin(tc.g, tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			total := newAggReference()
			for _, e := range shuffled(rng, rels) {
				dt, err := trad.OnTuple(e.rel, e.t)
				if err != nil {
					t.Fatal(err)
				}
				arrival := newAggReference()
				for _, d := range dt {
					total.add(t, d, tc.spec.GroupBy, tc.spec.Sum)
					arrival.add(t, d, tc.spec.GroupBy, tc.spec.Sum)
				}
				da, err := agg.OnTuple(e.rel, e.t)
				if err != nil {
					t.Fatal(err)
				}
				checkAggEqual(t, arrival, da)
			}
			res := agg.Result()
			checkAggEqual(t, total, res)
			nullGroups := 0
			for _, d := range res {
				if d.Group[0].IsNull() {
					nullGroups++
				}
			}
			if len(res) < 8 || nullGroups == 0 {
				t.Fatalf("workload too thin: %d groups, %d with a NULL group value", len(res), nullGroups)
			}
		})
	}
}

// TestAggJoinNullAndCrossKindKeys pins the two key cases directly: NULL =
// NULL joins nothing, Int(5) = Float(5) joins.
func TestAggJoinNullAndCrossKindKeys(t *testing.T) {
	a, err := NewAggJoin(expr.MustJoinGraph(2, expr.EquiCol(0, 0, 1, 0)), AggSpec{Kind: AggCount})
	if err != nil {
		t.Fatal(err)
	}
	feed := func(rel int, tu types.Tuple) []AggDelta {
		t.Helper()
		ds, err := a.OnTuple(rel, tu)
		if err != nil {
			t.Fatal(err)
		}
		return ds
	}
	feed(0, types.Tuple{types.Null(), types.Int(1)})
	if ds := feed(1, types.Tuple{types.Null(), types.Int(2)}); len(ds) != 0 {
		t.Fatalf("NULL = NULL joined: %v", ds)
	}
	feed(0, types.Tuple{types.Int(5), types.Int(1)})
	if ds := feed(1, types.Tuple{types.Float(5), types.Int(2)}); len(ds) != 1 || ds[0].Cnt != 1 {
		t.Fatalf("Int(5) = Float(5) deltas %v, want one of count 1", ds)
	}
	if res := a.Result(); len(res) != 1 || res[0].Cnt != 1 {
		t.Fatalf("Result = %v, want one group of count 1", res)
	}
}

// TestAggJoinExpressionFallback: relations whose conjuncts, group-by or SUM
// are not plain column refs are evaluated over the arrival into the same
// state, agreeing with the traditional join aggregated in plain Go.
func TestAggJoinExpressionFallback(t *testing.T) {
	g := expr.MustJoinGraph(2, expr.JoinConjunct{
		LRel: 0, RRel: 1, Op: expr.Eq,
		Left: expr.Arith{Op: expr.Add, L: expr.C(0), R: expr.I(1)}, Right: expr.C(0),
	})
	spec := AggSpec{
		GroupBy: []ColRef{{Rel: 1, E: expr.C(1)}},
		Kind:    AggSum, Sum: &ColRef{Rel: 0, E: expr.Arith{Op: expr.Mul, L: expr.C(1), R: expr.I(2)}},
	}
	r := rand.New(rand.NewSource(3))
	rels := [][]types.Tuple{genRel(r, 30, 2, 5), genRel(r, 30, 2, 5)}
	trad := newTradRef(g)
	agg, err := NewAggJoin(g, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !agg.rels[0].computed || agg.rels[1].computed {
		t.Fatal("relation 0 must evaluate its expressions, relation 1 read columns directly")
	}
	ref := newAggReference()
	for _, e := range shuffled(r, rels) {
		dt, err := trad.OnTuple(e.rel, e.t)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range dt {
			ref.add(t, d, spec.GroupBy, spec.Sum)
		}
		if _, err := agg.OnTuple(e.rel, e.t); err != nil {
			t.Fatal(err)
		}
	}
	checkAggEqual(t, ref, agg.Result())
	if _, err := agg.OnTuple(0, types.Tuple{types.Str("x"), types.Int(1)}); err == nil {
		t.Error("a non-numeric operand of an evaluated key must surface Eval's error")
	}
	if _, err := agg.OnTuple(1, types.Tuple{types.Int(1)}); err == nil {
		t.Error("a column past the arrival's arity must be rejected")
	}
}

// TestAggJoinEachResultRow: the packed result rows are byte-identical to
// encoding Result's (group..., cnt, sum) tuples.
func TestAggJoinEachResultRow(t *testing.T) {
	g := chain3()
	spec := AggSpec{GroupBy: []ColRef{{Rel: 0, E: expr.C(0)}}, Kind: AggSum, Sum: &ColRef{Rel: 2, E: expr.C(1)}}
	agg, err := NewAggJoin(g, spec)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(8))
	for _, e := range shuffled(r, [][]types.Tuple{genRel(r, 20, 2, 4), genRel(r, 20, 2, 4), genRel(r, 20, 2, 4)}) {
		if _, err := agg.OnTuple(e.rel, e.t); err != nil {
			t.Fatal(err)
		}
	}
	var want, got []types.Tuple
	for _, d := range agg.Result() {
		want = append(want, append(d.Group, types.Int(d.Cnt), types.Float(d.Sum)))
	}
	if err := agg.EachResultRow(func(row []byte) error {
		tu, n, err := wire.Decode(row)
		if err != nil || n != len(row) {
			return fmt.Errorf("row %x: %v (%d of %d bytes)", row, err, n, len(row))
		}
		got = append(got, tu)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("workload produced no groups")
	}
	sameTuples(t, "result rows", got, want)
}

// TestAggJoinOnRowNoAllocSteadyState pins the packed arrival path — probes,
// verification, delta splicing and the merge into every target view — at
// zero heap objects per arrival once every signature exists, on a Q3-shaped
// 3-way chain (a middle relation probing two components) and a 2-way graph.
func TestAggJoinOnRowNoAllocSteadyState(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *expr.JoinGraph
		spec AggSpec
		row  func(rel, k int) types.Tuple
	}{
		{"q3-chain", expr.MustJoinGraph(3, expr.EquiCol(0, 0, 1, 0), expr.EquiCol(1, 1, 2, 0)),
			AggSpec{GroupBy: []ColRef{{Rel: 1, E: expr.C(1)}}, Kind: AggSum, Sum: &ColRef{Rel: 2, E: expr.C(1)}},
			func(rel, k int) types.Tuple {
				switch rel {
				case 0: // customer: custkey, segment
					return types.Tuple{types.Int(int64(k % 8)), types.Str("BUILDING")}
				case 1: // orders: custkey, orderkey, date
					return types.Tuple{types.Int(int64(k % 8)), types.Int(int64(k)), types.Str("1995-01-01")}
				}
				// lineitem: orderkey, price
				return types.Tuple{types.Int(int64(k)), types.Float(float64(k) + 0.5)}
			}},
		{"2way", expr.MustJoinGraph(2, expr.EquiCol(0, 0, 1, 0)),
			AggSpec{GroupBy: []ColRef{{Rel: 0, E: expr.C(1)}}, Kind: AggSum, Sum: &ColRef{Rel: 1, E: expr.C(1)}},
			func(rel, k int) types.Tuple {
				if rel == 0 {
					return types.Tuple{types.Int(int64(k % 16)), types.Str(fmt.Sprintf("g%d", k%5))}
				}
				return types.Tuple{types.Int(int64(k % 16)), types.Float(2.5)}
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, err := NewAggJoin(tc.g, tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			const keys = 64
			rows := make([][]wire.Cursor, tc.g.NumRels)
			for rel := range rows {
				rows[rel] = make([]wire.Cursor, keys)
				for k := range rows[rel] {
					if err := rows[rel][k].Reset(wire.Encode(nil, tc.row(rel, k))); err != nil {
						t.Fatal(err)
					}
				}
			}
			i := 0
			arrive := func() {
				rel, k := i%tc.g.NumRels, (i/tc.g.NumRels)%keys
				i++
				if err := a.OnRow(rel, &rows[rel][k]); err != nil {
					t.Fatal(err)
				}
			}
			for w := 0; w < 4*keys*tc.g.NumRels; w++ { // warm: every signature exists from here on
				arrive()
			}
			count := func() (n int64) {
				for _, d := range a.Result() {
					n += d.Cnt
				}
				return n
			}
			before := count()
			allocs := testing.AllocsPerRun(2000, arrive)
			if count() == before {
				t.Fatal("measured arrivals produced no result deltas: the probe path did not run")
			}
			if raceEnabled {
				t.Skip("allocation counts are not meaningful under the race detector")
			}
			if allocs != 0 {
				t.Fatalf("OnRow allocates %v objects per arrival in steady state, want 0", allocs)
			}
		})
	}
}
