package dbtoaster

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"squall/internal/expr"
	"squall/internal/localjoin"
	"squall/internal/types"
	"squall/internal/wire"
)

func genRel(r *rand.Rand, n, arity int, domain int64) []types.Tuple {
	rows := make([]types.Tuple, n)
	for i := range rows {
		tu := make(types.Tuple, arity)
		for c := range tu {
			tu[c] = types.Int(r.Int63n(domain))
		}
		rows[i] = tu
	}
	return rows
}

type ev struct {
	rel int
	t   types.Tuple
}

// delta is one output increment split back into its joined tuples, one per
// relation, in relation order.
type delta []types.Tuple

// concat renders the delta as the concatenated row the operators emit.
func (d delta) concat() types.Tuple {
	var out types.Tuple
	for _, t := range d {
		out = append(out, t...)
	}
	return out
}

// rowRef drives a local join as a tuple-level reference: each arrival is
// encoded and joined through OnRow, and every emitted row is split back
// into per-relation tuples by the arity each relation arrived with.
type rowRef struct {
	j     localjoin.PackedJoin
	arity []int
}

func newTradRef(g *expr.JoinGraph) *rowRef { return onRowRef(localjoin.NewTraditional(g), g) }

func onRowRef(j localjoin.PackedJoin, g *expr.JoinGraph) *rowRef {
	return &rowRef{j: j, arity: make([]int, g.NumRels)}
}

func (r *rowRef) OnTuple(rel int, tu types.Tuple) ([]delta, error) {
	r.arity[rel] = len(tu)
	row := wire.Encode(nil, tu)
	var cur wire.Cursor
	if err := cur.Reset(row); err != nil {
		return nil, err
	}
	var out []delta
	err := r.j.OnRow(rel, row, &cur, func(b []byte) error {
		flat, _, err := wire.Decode(b)
		if err != nil {
			return err
		}
		d := make(delta, len(r.arity))
		for i, n := range r.arity {
			d[i], flat = flat[:n:n], flat[n:]
		}
		out = append(out, d)
		return nil
	})
	return out, err
}

func shuffled(r *rand.Rand, rels [][]types.Tuple) []ev {
	var stream []ev
	for rel, rows := range rels {
		for _, row := range rows {
			stream = append(stream, ev{rel, row})
		}
	}
	r.Shuffle(len(stream), func(a, b int) { stream[a], stream[b] = stream[b], stream[a] })
	return stream
}

func concatAll(ds []delta) []types.Tuple {
	out := make([]types.Tuple, len(ds))
	for i, d := range ds {
		out[i] = d.concat()
	}
	return out
}

func sortTuples(ts []types.Tuple) {
	sort.Slice(ts, func(i, j int) bool { return ts[i].Compare(ts[j]) < 0 })
}

func sameTuples(t *testing.T, label string, a, b []types.Tuple) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d vs %d tuples", label, len(a), len(b))
	}
	sortTuples(a)
	sortTuples(b)
	for i := range a {
		if a[i].Compare(b[i]) != 0 {
			t.Fatalf("%s: tuple %d: %v vs %v", label, i, a[i], b[i])
		}
	}
}

func chain3() *expr.JoinGraph {
	return expr.MustJoinGraph(3,
		expr.EquiCol(0, 1, 1, 0),
		expr.EquiCol(1, 1, 2, 0),
	)
}

func chain4() *expr.JoinGraph {
	return expr.MustJoinGraph(4,
		expr.EquiCol(0, 1, 1, 0),
		expr.EquiCol(1, 1, 2, 0),
		expr.EquiCol(2, 1, 3, 0),
	)
}

// TestTupleJoinMatchesTraditionalPerDelta: on every arrival, DBToaster's
// views and the traditional join must emit identical deltas through OnRow
// (invariant 3 of DESIGN.md) — middle-relation arrivals exercise
// multi-component complements.
func TestTupleJoinMatchesTraditionalPerDelta(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *expr.JoinGraph
		rels int
	}{
		{"chain3", chain3(), 3},
		{"chain4", chain4(), 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(5))
			rels := make([][]types.Tuple, tc.rels)
			for i := range rels {
				rels[i] = genRel(r, 25, 2, 5)
			}
			trad, dbt := newTradRef(tc.g), onRowRef(NewTupleJoin(tc.g), tc.g)
			for _, e := range shuffled(r, rels) {
				dt, err := trad.OnTuple(e.rel, e.t)
				if err != nil {
					t.Fatal(err)
				}
				dd, err := dbt.OnTuple(e.rel, e.t)
				if err != nil {
					t.Fatal(err)
				}
				sameTuples(t, "delta", concatAll(dt), concatAll(dd))
			}
		})
	}
}

func TestTupleJoinThetaMatchesTraditional(t *testing.T) {
	// R.x = S.x AND S.x < T.y: non-equi boundary forces tree-indexed views.
	g := expr.MustJoinGraph(3,
		expr.EquiCol(0, 0, 1, 0),
		expr.ThetaCol(1, 0, expr.Lt, 2, 0),
	)
	r := rand.New(rand.NewSource(11))
	rels := [][]types.Tuple{genRel(r, 20, 1, 6), genRel(r, 20, 1, 6), genRel(r, 20, 1, 6)}
	trad, dbt := newTradRef(g), onRowRef(NewTupleJoin(g), g)
	total := 0
	for _, e := range shuffled(r, rels) {
		dt, err := trad.OnTuple(e.rel, e.t)
		if err != nil {
			t.Fatal(err)
		}
		dd, err := dbt.OnTuple(e.rel, e.t)
		if err != nil {
			t.Fatal(err)
		}
		total += len(dt)
		sameTuples(t, "delta", concatAll(dt), concatAll(dd))
	}
	if total == 0 {
		t.Fatal("workload produced no output")
	}
}

// viewSizes reports a join's views by relation mask; the constructors'
// result is asserted to be the core, which reports them.
func viewSizes(t *testing.T, j Join) map[uint64]int {
	t.Helper()
	core, ok := j.(*localjoin.Traditional)
	if !ok {
		t.Fatalf("NewTupleJoin returned %T, want the local-join core", j)
	}
	return core.ViewSizes()
}

func TestTupleJoinMaterializesIntermediateViews(t *testing.T) {
	g := chain3()
	j := NewTupleJoin(g)
	dbt := onRowRef(j, g)
	r := rand.New(rand.NewSource(2))
	rels := [][]types.Tuple{genRel(r, 15, 2, 3), genRel(r, 15, 2, 3), genRel(r, 15, 2, 3)}
	for _, e := range shuffled(r, rels) {
		if _, err := dbt.OnTuple(e.rel, e.t); err != nil {
			t.Fatal(err)
		}
	}
	sizes := viewSizes(t, j)
	// Views: {R}, {S}, {T}, {RS}, {ST}. {RT} is disconnected, never built;
	// the full {RST} is not materialized.
	if _, ok := sizes[0b101]; ok {
		t.Error("disconnected {R,T} view must not exist")
	}
	if _, ok := sizes[0b111]; ok {
		t.Error("full view must not be materialized")
	}
	if sizes[0b011] == 0 || sizes[0b110] == 0 {
		t.Errorf("2-way views must hold combos: %v", sizes)
	}
	if j.StoredTuples() != 45 {
		t.Errorf("StoredTuples = %d", j.StoredTuples())
	}
	if j.MemSize() <= 0 {
		t.Error("MemSize must be positive")
	}
}

// aggReference accumulates group aggregates from traditional deltas.
type aggReference struct {
	cnt map[string]int64
	sum map[string]float64
	grp map[string]types.Tuple
}

func newAggReference() *aggReference {
	return &aggReference{cnt: map[string]int64{}, sum: map[string]float64{}, grp: map[string]types.Tuple{}}
}

func (a *aggReference) add(t *testing.T, d delta, groupBy []ColRef, sum *ColRef) {
	t.Helper()
	g := make(types.Tuple, len(groupBy))
	for i, gc := range groupBy {
		v, err := gc.E.Eval(d[gc.Rel])
		if err != nil {
			t.Fatal(err)
		}
		g[i] = v
	}
	k := g.Key()
	a.grp[k] = g
	a.cnt[k]++
	if sum != nil {
		v, err := sum.E.Eval(d[sum.Rel])
		if err != nil {
			t.Fatal(err)
		}
		f, _ := v.AsFloat()
		a.sum[k] += f
	}
}

func checkAggEqual(t *testing.T, ref *aggReference, got []AggDelta) {
	t.Helper()
	gotCnt := map[string]int64{}
	gotSum := map[string]float64{}
	for _, d := range got {
		gotCnt[d.Group.Key()] += d.Cnt
		gotSum[d.Group.Key()] += d.Sum
	}
	if len(gotCnt) != len(ref.cnt) {
		t.Fatalf("groups: got %d, want %d", len(gotCnt), len(ref.cnt))
	}
	for k, want := range ref.cnt {
		if gotCnt[k] != want {
			t.Fatalf("group %q: cnt %d, want %d", k, gotCnt[k], want)
		}
		if math.Abs(gotSum[k]-ref.sum[k]) > 1e-6 {
			t.Fatalf("group %q: sum %g, want %g", k, gotSum[k], ref.sum[k])
		}
	}
}

// TestAggJoinMatchesTraditionalAggregation: the aggregate views must equal
// the aggregation of the traditional join's deltas, for group-by columns
// spread across relations and SUM over a middle relation.
func TestAggJoinMatchesTraditionalAggregation(t *testing.T) {
	g := chain4()
	groupBy := []ColRef{{Rel: 0, E: expr.C(0)}, {Rel: 3, E: expr.C(1)}}
	sum := &ColRef{Rel: 1, E: expr.C(1)}
	spec := AggSpec{GroupBy: groupBy, Kind: AggSum, Sum: sum}
	r := rand.New(rand.NewSource(13))
	rels := make([][]types.Tuple, 4)
	for i := range rels {
		rels[i] = genRel(r, 20, 2, 4)
	}
	trad := newTradRef(g)
	agg, err := NewAggJoin(g, spec)
	if err != nil {
		t.Fatal(err)
	}
	ref := newAggReference()
	deltaRef := newAggReference()
	for _, e := range shuffled(r, rels) {
		dt, err := trad.OnTuple(e.rel, e.t)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range dt {
			ref.add(t, d, groupBy, sum)
			deltaRef.add(t, d, groupBy, sum)
		}
		da, err := agg.OnTuple(e.rel, e.t)
		if err != nil {
			t.Fatal(err)
		}
		// Per-arrival deltas must match the traditional deltas exactly.
		checkAggEqual(t, deltaRef, da)
		deltaRef = newAggReference()
	}
	checkAggEqual(t, ref, agg.Result())
}

func TestAggJoinCountOnly(t *testing.T) {
	g := chain3()
	spec := AggSpec{GroupBy: []ColRef{{Rel: 0, E: expr.C(0)}}, Kind: AggCount}
	r := rand.New(rand.NewSource(19))
	rels := [][]types.Tuple{genRel(r, 30, 2, 4), genRel(r, 30, 2, 4), genRel(r, 30, 2, 4)}
	trad := newTradRef(g)
	agg, err := NewAggJoin(g, spec)
	if err != nil {
		t.Fatal(err)
	}
	ref := newAggReference()
	for _, e := range shuffled(r, rels) {
		dt, err := trad.OnTuple(e.rel, e.t)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range dt {
			ref.add(t, d, spec.GroupBy, nil)
		}
		if _, err := agg.OnTuple(e.rel, e.t); err != nil {
			t.Fatal(err)
		}
	}
	checkAggEqual(t, ref, agg.Result())
	if agg.MemSize() <= 0 {
		t.Error("MemSize must be positive")
	}
}

func TestAggJoinEmptyGroupBy(t *testing.T) {
	// Global COUNT(*) with no grouping.
	g := expr.MustJoinGraph(2, expr.EquiCol(0, 0, 1, 0))
	agg, err := NewAggJoin(g, AggSpec{Kind: AggCount})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := agg.OnTuple(0, types.Tuple{types.Int(int64(i % 3))}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 9; i++ {
		if _, err := agg.OnTuple(1, types.Tuple{types.Int(int64(i % 3))}); err != nil {
			t.Fatal(err)
		}
	}
	res := agg.Result()
	if len(res) != 1 {
		t.Fatalf("global count: %d groups", len(res))
	}
	// Keys 0,1,2 appear 4,3,3 times in R and 3,3,3 in S: 4*3+3*3+3*3 = 30.
	if res[0].Cnt != 30 {
		t.Errorf("count = %d, want 30", res[0].Cnt)
	}
}

func TestAggJoinValidation(t *testing.T) {
	theta := expr.MustJoinGraph(2, expr.ThetaCol(0, 0, expr.Lt, 1, 0))
	if _, err := NewAggJoin(theta, AggSpec{Kind: AggCount}); err == nil {
		t.Error("theta join must be rejected")
	}
	eq := expr.MustJoinGraph(2, expr.EquiCol(0, 0, 1, 0))
	if _, err := NewAggJoin(eq, AggSpec{Kind: AggSum}); err == nil {
		t.Error("AggSum without Sum expr must be rejected")
	}
	if _, err := NewAggJoin(eq, AggSpec{Kind: AggCount, GroupBy: []ColRef{{Rel: 9, E: expr.C(0)}}}); err == nil {
		t.Error("group-by rel out of range must be rejected")
	}
	disc := expr.MustJoinGraph(3, expr.EquiCol(0, 0, 1, 0)) // T disconnected
	if _, err := NewAggJoin(disc, AggSpec{Kind: AggCount}); err == nil {
		t.Error("disconnected join must be rejected")
	}
	a, _ := NewAggJoin(eq, AggSpec{Kind: AggCount})
	if _, err := a.OnTuple(5, types.Tuple{}); err == nil {
		t.Error("bad relation must be rejected")
	}
}

// TestDBToasterCheaperPerProbe: sanity-check the Figure 8 mechanism — on a
// workload with large intermediate match counts, AggJoin performs far less
// work than enumerating combinations. We assert on output equivalence and
// that intermediate views stay bounded by distinct signatures.
func TestDBToasterCheaperPerProbe(t *testing.T) {
	g := chain3()
	spec := AggSpec{GroupBy: nil, Kind: AggCount}
	agg, err := NewAggJoin(g, spec)
	if err != nil {
		t.Fatal(err)
	}
	// Single hot key everywhere: quadratic combination count, constant
	// signature count.
	const n = 200
	for i := 0; i < n; i++ {
		if _, err := agg.OnTuple(0, types.Tuple{types.Int(int64(i)), types.Int(1)}); err != nil {
			t.Fatal(err)
		}
		if _, err := agg.OnTuple(1, types.Tuple{types.Int(1), types.Int(1)}); err != nil {
			t.Fatal(err)
		}
		if _, err := agg.OnTuple(2, types.Tuple{types.Int(1), types.Int(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	res := agg.Result()
	if len(res) != 1 || res[0].Cnt != n*n*n {
		t.Fatalf("count = %v, want %d", res, n*n*n)
	}
	// The {R,S} view must hold ONE signature (boundary z=1), not n^2 combos.
	if rs := agg.views[0b011]; rs == nil {
		t.Error("no RS view")
	} else if len(rs.accs) != 1 {
		t.Errorf("RS view signatures = %d, want 1 (aggregated)", len(rs.accs))
	}
}

// TestTupleJoinExportParityAndFrames: the views hold exactly the
// nested-loop pair counts, whether the rows arrived through OnRow or were
// imported, the frame export (bare or footered) decodes to the stored base
// rows, and it round-trips through ImportRow into a fresh operator with
// identical views (the migration and restore path).
func TestTupleJoinExportParityAndFrames(t *testing.T) {
	g := chain3()
	r := rand.New(rand.NewSource(19))
	rels := [][]types.Tuple{genRel(r, 30, 2, 4), genRel(r, 30, 2, 4), genRel(r, 30, 2, 4)}
	slabJ, reJ := NewTupleJoin(g), NewTupleJoin(g)
	joined := onRowRef(slabJ, g)
	for i, e := range shuffled(r, rels) {
		if i%2 == 0 {
			if _, err := joined.OnTuple(e.rel, e.t); err != nil {
				t.Fatal(err)
			}
			continue
		}
		row := wire.Encode(nil, e.t)
		var cur wire.Cursor
		if err := cur.Reset(row); err != nil {
			t.Fatal(err)
		}
		if err := slabJ.ImportRow(e.rel, row, &cur); err != nil {
			t.Fatal(err)
		}
	}
	// chain3 joins R.1 = S.0 and S.1 = T.0: its views are the three base
	// relations plus RS and ST; RT is disconnected and has no view.
	pairs := func(a, b []types.Tuple) int {
		n := 0
		for _, x := range a {
			for _, y := range b {
				if x[1].Equal(y[0]) {
					n++
				}
			}
		}
		return n
	}
	want := map[uint64]int{0b001: 30, 0b010: 30, 0b100: 30,
		0b011: pairs(rels[0], rels[1]), 0b110: pairs(rels[1], rels[2])}
	checkViews := func(label string, got map[uint64]int) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: views %v, want %v", label, got, want)
		}
		for mask, n := range want {
			if got[mask] != n {
				t.Fatalf("%s: view %b holds %d combos, nested loops %d", label, mask, got[mask], n)
			}
		}
	}
	checkViews("streamed", viewSizes(t, slabJ))
	for rel := range rels {
		b := append([]types.Tuple(nil), rels[rel]...)
		if slabJ.RelCount(rel) != len(b) {
			t.Fatalf("rel %d: RelCount %d, inserted %d", rel, slabJ.RelCount(rel), len(b))
		}
		var cur wire.Cursor
		var err error
		slabJ.ExportRelFrames(rel, 8, false, func(frame []byte, _ int) bool {
			_, _, err = wire.EachRow(frame, &cur, func(row []byte) error { return reJ.ImportRow(rel, row, &cur) })
			return err == nil
		})
		if err != nil {
			t.Fatalf("rel %d import: %v", rel, err)
		}
		var fromFrames []types.Tuple
		slabJ.ExportRelFrames(rel, 8, false, func(frame []byte, count int) bool {
			tuples, _, err := wire.DecodeBatch(frame)
			if err != nil || len(tuples) != count {
				t.Fatalf("rel %d frame: %v", rel, err)
			}
			fromFrames = append(fromFrames, tuples...)
			return true
		})
		sameTuples(t, "frames", fromFrames, b)
		var footered []types.Tuple
		slabJ.ExportRelFrames(rel, 8, true, func(frame []byte, count int) bool {
			var foot wire.Footer
			if count > 0 && !wire.ParseFooter(frame, &foot) {
				t.Fatalf("rel %d: footered export carries no valid footer", rel)
			}
			tuples, _, err := wire.DecodeBatch(frame)
			if err != nil || len(tuples) != count {
				t.Fatalf("rel %d footered frame: %v", rel, err)
			}
			footered = append(footered, tuples...)
			return true
		})
		sameTuples(t, "footered frames", footered, b)
	}
	checkViews("re-imported", viewSizes(t, reJ))
}
