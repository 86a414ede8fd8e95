package ops

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"squall/internal/dataflow"
	"squall/internal/dbtoaster"
	"squall/internal/expr"
	"squall/internal/types"
	"squall/internal/wire"
)

func TestSelectAndProject(t *testing.T) {
	sel := Select{P: expr.Cmp{Op: expr.Gt, L: expr.C(0), R: expr.I(3)}}
	if out, keep, err := sel.Apply(types.Tuple{types.Int(5)}); err != nil || !keep {
		t.Errorf("Select(5>3) = %v, %v, %v", out, keep, err)
	}
	if out, keep, err := sel.Apply(types.Tuple{types.Int(1)}); err != nil || keep {
		t.Errorf("Select(1>3) = %v, %v, %v", out, keep, err)
	}
	proj := Project{Es: []expr.Expr{expr.C(1), expr.Arith{Op: expr.Mul, L: expr.C(0), R: expr.I(2)}}}
	out, keep, err := proj.Apply(types.Tuple{types.Int(3), types.Str("x")})
	if err != nil || !keep {
		t.Fatalf("Project = %v, %v, %v", out, keep, err)
	}
	want := types.Tuple{types.Str("x"), types.Int(6)}
	if out.Compare(want) != 0 {
		t.Errorf("Project = %v, want %v", out, want)
	}
}

func TestPipelineShortCircuits(t *testing.T) {
	p := Pipeline{
		Select{P: expr.Cmp{Op: expr.Gt, L: expr.C(0), R: expr.I(0)}},
		Project{Es: []expr.Expr{expr.C(0)}},
	}
	if out, keep, err := p.Apply(types.Tuple{types.Int(-1)}); err != nil || keep || out != nil {
		t.Errorf("filtered tuple = %v, %v, %v", out, keep, err)
	}
	if out, keep, err := p.Apply(types.Tuple{types.Int(2)}); err != nil || !keep || out.Compare(types.Tuple{types.Int(2)}) != 0 {
		t.Errorf("passing tuple = %v, %v, %v", out, keep, err)
	}
}

// foldRows folds rows into a through FoldRow, each encoded as a bolt would
// receive it.
func foldRows(t *testing.T, a *Agg, rows []types.Tuple) {
	t.Helper()
	if !a.PackedCapable() {
		t.Fatal("column-ref agg must be packed-capable")
	}
	for _, r := range rows {
		if err := a.FoldRow(rowInput(t, "", r).Cur); err != nil {
			t.Fatal(err)
		}
	}
}

func TestAggCountSumAvg(t *testing.T) {
	rows := []types.Tuple{
		{types.Str("a"), types.Int(1)},
		{types.Str("a"), types.Int(3)},
		{types.Str("b"), types.Int(10)},
	}
	// Plain-Go reference: per-group count and sum of column 1.
	cnt, sum := map[string]float64{}, map[string]float64{}
	for _, r := range rows {
		cnt[r[0].Str]++
		sum[r[0].Str] += float64(r[1].I)
	}
	avg := map[string]float64{}
	for k := range cnt {
		avg[k] = sum[k] / cnt[k]
	}
	for _, tc := range []struct {
		kind AggKind
		want map[string]float64
	}{
		{Count, cnt},
		{Sum, sum},
		{Avg, avg},
	} {
		a := NewAgg([]expr.Expr{expr.C(0)}, tc.kind, expr.C(1), false)
		foldRows(t, a, rows)
		got := map[string]float64{}
		for _, row := range a.Rows() {
			f, _ := row[1].AsFloat()
			got[row[0].Str] = f
		}
		if len(got) != len(tc.want) {
			t.Errorf("%s: %d groups, reference %d", tc.kind, len(got), len(tc.want))
		}
		for k, want := range tc.want {
			if math.Abs(got[k]-want) > 1e-9 {
				t.Errorf("%s group %s = %g, want %g", tc.kind, k, got[k], want)
			}
		}
	}
}

func TestAggSumRequiresExpr(t *testing.T) {
	a := NewAgg(nil, Sum, nil, false)
	if !a.PackedCapable() {
		t.Fatal("empty group-by without SUM expression must be packed-capable")
	}
	if err := a.FoldRow(rowInput(t, "", types.Tuple{types.Int(1)}).Cur); err == nil {
		t.Error("SUM without expression must error")
	}
}

// runJoinTopology wires 3 spouts through a join bolt under the given index
// policy and returns the sorted result rows.
func runJoinTopology(t *testing.T, views bool) []types.Tuple {
	t.Helper()
	g := expr.MustJoinGraph(3,
		expr.EquiCol(0, 1, 1, 0),
		expr.EquiCol(1, 1, 2, 0),
	)
	mk := func(n int, f func(i int) types.Tuple) []types.Tuple {
		rows := make([]types.Tuple, n)
		for i := range rows {
			rows[i] = f(i)
		}
		return rows
	}
	r := mk(20, func(i int) types.Tuple { return types.Tuple{types.Int(int64(i)), types.Int(int64(i % 4))} })
	s := mk(20, func(i int) types.Tuple { return types.Tuple{types.Int(int64(i % 4)), types.Int(int64(i % 3))} })
	u := mk(20, func(i int) types.Tuple { return types.Tuple{types.Int(int64(i % 3)), types.Int(int64(i))} })
	sink := &gather{}
	topo, err := dataflow.NewBuilder().
		Spout("R", 1, PackedSpout(dataflow.SliceSpout(r), nil)).
		Spout("S", 1, PackedSpout(dataflow.SliceSpout(s), nil)).
		Spout("T", 1, PackedSpout(dataflow.SliceSpout(u), nil)).
		Bolt("join", 1, JoinBolt(g, views, map[string]int{"R": 0, "S": 1, "T": 2}, nil, nil)).
		Bolt("sink", 1, sink.factory()).
		Input("join", "R", dataflow.Global()).
		Input("join", "S", dataflow.Global()).
		Input("join", "T", dataflow.Global()).
		Input("sink", "join", dataflow.Global()).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dataflow.Run(topo, dataflow.Options{Seed: 1}); err != nil {
		t.Fatal(err)
	}
	return sink.sorted()
}

func TestJoinBoltTraditionalAndDBToasterAgree(t *testing.T) {
	trad := runJoinTopology(t, false)
	dbt := runJoinTopology(t, true)
	if len(trad) == 0 {
		t.Fatal("join produced nothing")
	}
	if len(trad) != len(dbt) {
		t.Fatalf("traditional %d rows, dbtoaster %d", len(trad), len(dbt))
	}
	for i := range trad {
		if trad[i].Compare(dbt[i]) != 0 {
			t.Fatalf("row %d: %v vs %v", i, trad[i], dbt[i])
		}
	}
}

// TestAggJoinBoltWithMerge runs the aggregate-view joiner under tuple
// sources (encoded once, at the source) and checks the merger's answer
// after the joiners hand it spliced partial rows on Finish.
func TestAggJoinBoltWithMerge(t *testing.T) {
	// COUNT(*) GROUP BY R.y over R ⋈ S on y, parallel joiners + one merger.
	g := expr.MustJoinGraph(2, expr.EquiCol(0, 0, 1, 0))
	spec := dbtoaster.AggSpec{
		GroupBy: []dbtoaster.ColRef{{Rel: 0, E: expr.C(0)}},
		Kind:    dbtoaster.AggCount,
	}
	var r, s []types.Tuple
	for i := 0; i < 40; i++ {
		r = append(r, types.Tuple{types.Int(int64(i % 5))})
		s = append(s, types.Tuple{types.Int(int64(i % 5))})
	}
	sink := &gather{}
	topo, err := dataflow.NewBuilder().
		Spout("R", 2, PackedSpout(dataflow.SliceSpout(r), nil)).
		Spout("S", 2, PackedSpout(dataflow.SliceSpout(s), nil)).
		Bolt("join", 4, AggJoinBolt(g, spec, map[string]int{"R": 0, "S": 1})).
		Bolt("merge", 1, MergeBolt(1, Count)).
		Bolt("sink", 1, sink.factory()).
		Input("join", "R", dataflow.Fields(0)).
		Input("join", "S", dataflow.Fields(0)).
		Input("merge", "join", dataflow.Global()).
		Input("sink", "merge", dataflow.Global()).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dataflow.Run(topo, dataflow.Options{Seed: 4}); err != nil {
		t.Fatal(err)
	}
	rows := sink.sorted()
	if len(rows) != 5 {
		t.Fatalf("groups = %v", rows)
	}
	for _, row := range rows {
		// Each key appears 8x in R and 8x in S: count 64.
		if row[1].I != 64 {
			t.Errorf("group %v count = %v, want 64", row[0], row[1])
		}
	}
}

// gather collects the rows reaching a one-task sink component, decoded.
type gather struct{ rows []types.Tuple }

func (g *gather) factory() dataflow.BoltFactory {
	return func(int, int) dataflow.Bolt { return g }
}

func (g *gather) ExecuteRow(in dataflow.RowInput, _ *dataflow.Collector) error {
	g.rows = append(g.rows, in.Cur.Tuple(nil))
	return nil
}

func (g *gather) Finish(*dataflow.Collector) error { return nil }

// sorted returns the collected rows in lexicographic order.
func (g *gather) sorted() []types.Tuple {
	slices.SortFunc(g.rows, types.Tuple.Compare)
	return g.rows
}

// rowInput encodes t as the RowInput a bolt would be handed.
func rowInput(t *testing.T, stream string, tu types.Tuple) dataflow.RowInput {
	t.Helper()
	row := wire.Encode(nil, tu)
	cur := &wire.Cursor{}
	if err := cur.Reset(row); err != nil {
		t.Fatal(err)
	}
	return dataflow.RowInput{Stream: stream, Row: row, Cur: cur}
}

// TestMergeBoltRejectsBadArity: a partial row without cnt and sum errors.
func TestMergeBoltRejectsBadArity(t *testing.T) {
	short := types.Tuple{types.Int(1)}
	if err := MergeBolt(1, Count)(0, 1).ExecuteRow(rowInput(t, "", short), nil); err == nil {
		t.Error("short merge row must error")
	}
}

// TestMergeBoltFacesAgree feeds partial rows to the merge bolt and checks
// its AVG rows against a plain-Go reference under the tuple coercions (cnt
// by AsInt, sum by AsFloat): cnt and sum read off the encoded row must
// follow them, float counts truncating like AsInt.
func TestMergeBoltFacesAgree(t *testing.T) {
	partials := make([]types.Tuple, 0, 60)
	for i := 0; i < 60; i++ {
		partials = append(partials, types.Tuple{
			types.Int(int64(i % 7)), types.Int(int64(1 + i%3)), types.Float(float64(i) / 2),
		})
	}
	floatCnt := make([]types.Tuple, len(partials))
	for i, tu := range partials {
		floatCnt[i] = types.Tuple{tu[0], types.Float(float64(tu[1].I) + 0.5), tu[2]}
	}
	for name, input := range map[string][]types.Tuple{"int-cnt": partials, "float-cnt": floatCnt} {
		t.Run(name, func(t *testing.T) {
			rows := MergeBolt(1, Avg)(0, 1).(mergeBolt)
			refCnt, refSum := map[int64]int64{}, map[int64]float64{}
			for _, tu := range input {
				if err := rows.ExecuteRow(rowInput(t, "", tu), nil); err != nil {
					t.Fatal(err)
				}
				cnt, ok := tu[1].AsInt()
				if !ok {
					t.Fatalf("cnt %v not integer", tu[1])
				}
				sum, _ := tu[2].AsFloat()
				refCnt[tu[0].I] += cnt
				refSum[tu[0].I] += sum
			}
			var want []types.Tuple
			for g, cnt := range refCnt {
				want = append(want, types.Tuple{types.Int(g), types.Float(refSum[g] / float64(cnt))})
			}
			got := rows.a.Rows()
			sortRows(got)
			sortRows(want)
			if len(got) != len(want) {
				t.Fatalf("merge bolt %d groups, reference %d", len(got), len(want))
			}
			for i := range got {
				if got[i].Compare(want[i]) != 0 {
					t.Fatalf("group %d: merge bolt %v, reference %v", i, got[i], want[i])
				}
			}
		})
	}
}

func TestJoinBoltUnknownStream(t *testing.T) {
	g := expr.MustJoinGraph(2, expr.EquiCol(0, 0, 1, 0))
	b := JoinBolt(g, false, map[string]int{"R": 0}, nil, nil)(0, 1)
	if err := b.ExecuteRow(rowInput(t, "???", types.Tuple{types.Int(1)}), nil); err == nil {
		t.Error("unknown stream must error")
	}
}

func sortRows(rows []types.Tuple) {
	sort.Slice(rows, func(i, j int) bool { return rows[i].Compare(rows[j]) < 0 })
}

// TestAggGroupsMatchReference drives updates through the group table and
// requires the result rows of a plain-Go reference keyed by (kind, value)
// per group column — including the group-identity corners: Int(2) and
// Float(2.0) are distinct groups (their canonical encodings differ), which
// the byte-equality verification must preserve, and NULL group-by values
// form one group.
func TestAggGroupsMatchReference(t *testing.T) {
	a := NewAgg([]expr.Expr{expr.C(0), expr.C(1)}, Sum, expr.C(2), false)
	rows := []types.Tuple{
		{types.Int(2), types.Str("x"), types.Int(1)},
		{types.Float(2.0), types.Str("x"), types.Int(10)}, // distinct group from Int(2)
		{types.Int(2), types.Str("x"), types.Int(100)},
		{types.Null(), types.Str(""), types.Int(7)},
		{types.Null(), types.Str(""), types.Int(5)}, // same NULL group
		{types.Int(-5), types.Str("long payload string"), types.Int(3)},
	}
	for i := 0; i < 200; i++ {
		rows = append(rows, types.Tuple{
			types.Int(int64(i % 17)), types.Str("g"), types.Int(int64(i)),
		})
	}
	groupKey := func(g types.Tuple) string {
		var k string
		for _, v := range g {
			k += fmt.Sprintf("%d:%s|", v.Kind(), v)
		}
		return k
	}
	foldRows(t, a, rows)
	want := map[string]float64{}
	for _, r := range rows {
		want[groupKey(r[:2])] += float64(r[2].I)
	}
	if len(a.states) != len(want) {
		t.Fatalf("groups = %d, reference %d", len(a.states), len(want))
	}
	got := map[string]float64{}
	for _, r := range a.Rows() {
		k := groupKey(r[:2])
		if _, dup := got[k]; dup {
			t.Fatalf("group %q emitted twice", k)
		}
		got[k], _ = r[2].AsFloat()
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("group %q: sum %g, reference %g", k, got[k], v)
		}
	}
	for _, c := range []struct {
		g    types.Tuple
		want float64
	}{
		{types.Tuple{types.Int(2), types.Str("x")}, 101},
		{types.Tuple{types.Float(2.0), types.Str("x")}, 10},
		{types.Tuple{types.Null(), types.Str("")}, 12},
	} {
		if got[groupKey(c.g)] != c.want {
			t.Errorf("group %v: sum %g, want %g", c.g, got[groupKey(c.g)], c.want)
		}
	}
}

// TestAggUpdateAllocFree: steady-state UpdateRow calls (all groups already
// present) must not allocate.
func TestAggUpdateAllocFree(t *testing.T) {
	for _, tc := range []struct {
		name string
		a    *Agg
	}{
		{"count", NewAgg([]expr.Expr{expr.C(0)}, Count, nil, false)},
		{"sum", NewAgg([]expr.Expr{expr.C(0)}, Sum, expr.C(0), false)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if !tc.a.PackedCapable() {
				t.Fatal("column-ref agg must be packed-capable")
			}
			curs := make([]*wire.Cursor, 64)
			for i := range curs {
				curs[i] = rowInput(t, "", types.Tuple{types.Int(int64(i % 8))}).Cur
			}
			for _, c := range curs { // materialize all groups first
				if err := tc.a.UpdateRow(c, 1, 0); err != nil {
					t.Fatal(err)
				}
			}
			allocs := testing.AllocsPerRun(100, func() {
				for _, c := range curs {
					if err := tc.a.UpdateRow(c, 1, 0); err != nil {
						t.Fatal(err)
					}
				}
			})
			if allocs != 0 {
				t.Errorf("steady-state UpdateRow allocates %.1f objects per 64 updates, want 0", allocs)
			}
		})
	}
}
