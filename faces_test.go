package squall

import (
	"fmt"
	"strings"
	"testing"

	"squall/internal/dataflow"
	"squall/internal/expr"
	"squall/internal/types"
)

// TestPlannedOperatorsRunOnRows plans Traditional and DBToaster queries,
// with and without an aggregate, on 2- and 3-relation graphs whose join keys
// are plain columns or computed. The dataflow package has one delivery face,
// so every bolt reads encoded rows and every edge routes them; the plan must
// build bolts and an edge into the joiner from every source, and the query,
// run, must join on those rows.
func TestPlannedOperatorsRunOnRows(t *testing.T) {
	plus0 := func(e expr.Expr) expr.Expr { return expr.Arith{Op: expr.Add, L: e, R: expr.I(0)} }
	schema := &types.Schema{Name: "R", Columns: []types.Column{{Name: "k", Kind: types.KindInt}, {Name: "v", Kind: types.KindInt}}}
	for _, local := range []LocalJoinKind{Traditional, DBToaster} {
		for _, agg := range []bool{false, true} {
			for _, computed := range []bool{false, true} {
				for _, rels := range []int{2, 3} {
					name := fmt.Sprintf("%v/agg=%v/computed=%v/rels=%d", local, agg, computed, rels)
					t.Run(name, func(t *testing.T) {
						var cs []expr.JoinConjunct
						for r := 0; r+1 < rels; r++ {
							c := expr.EquiCol(r, 0, r+1, 0)
							if computed {
								c.Left, c.Right = plus0(c.Left), plus0(c.Right)
							}
							cs = append(cs, c)
						}
						q := &JoinQuery{Graph: expr.MustJoinGraph(rels, cs...), Scheme: HashHypercube, Machines: 4, Local: local}
						for r := 0; r < rels; r++ {
							rows := []types.Tuple{{types.Int(1), types.Int(int64(r))}}
							q.Sources = append(q.Sources, Source{Name: fmt.Sprintf("R%d", r), Schema: schema, Spout: dataflow.SliceSpout(rows), Size: 1})
						}
						if agg {
							q.Agg = &AggSpec{Kind: Sum, GroupBy: []ColRef{{Rel: 0, E: expr.C(1)}}, Sum: &ColRef{Rel: rels - 1, E: expr.C(1)}}
						}
						p, err := q.plan(Options{Seed: 1})
						if err != nil {
							t.Fatal(err)
						}
						defer p.close()
						bolts := 0
						for _, c := range p.topo.Components() {
							if f := p.topo.Bolt(c); f != nil {
								for task := 0; task < p.topo.Parallelism(c); task++ {
									if f(task, p.topo.Parallelism(c)) == nil {
										t.Fatalf("bolt %s[%d] is nil", c, task)
									}
									bolts++
								}
							}
						}
						if bolts == 0 {
							t.Fatal("the plan has no bolts")
						}
						for _, s := range q.Sources {
							if p.topo.Grouping(p.joiner, s.Name) == nil {
								t.Fatalf("no edge %s -> %s", s.Name, p.joiner)
							}
						}
						res, err := q.Run(Options{Seed: 1})
						if err != nil {
							t.Fatal(err)
						}
						// Every relation holds one row on key 1: one join result,
						// or one group summing the last relation's v.
						want := Tuple{}
						for r := 0; r < rels; r++ {
							want = append(want, types.Int(1), types.Int(int64(r)))
						}
						if agg {
							want = Tuple{types.Int(0), types.Float(float64(rels - 1))}
						}
						if len(res.Rows) != 1 || !res.Rows[0].Equal(want) {
							t.Fatalf("rows %v, want [%v]", res.Rows, want)
						}
					})
				}
			}
		}
	}
}

// TestResultRowsSurviveFrameReuse: Result.Rows is decoded at the sink out of
// pooled transport frames. Rows carrying strings — join results, and
// aggregates grouped by a string, which leave the aggregation encoded — must
// stay bag-equal to the oracle after a second run recycles the same pooled
// frames with other bytes, at one-row frames and at the default batch.
func TestResultRowsSurviveFrameReuse(t *testing.T) {
	schema := &types.Schema{Name: "R", Columns: []types.Column{{Name: "k", Kind: types.KindInt}, {Name: "s", Kind: types.KindString}}}
	rows := func(tag string, n int) []types.Tuple {
		out := make([]types.Tuple, n)
		for i := range out {
			out[i] = types.Tuple{types.Int(int64(i % 7)), types.Str(fmt.Sprintf("%s%d-%s", tag, i, strings.Repeat("x", i%5)))}
		}
		return out
	}
	// query builds R ⋈ S on k over rows tagged tag, and its nested-loop
	// oracle: the joined rows, or COUNT(*) GROUP BY R.s.
	query := func(tag string, agg bool) (*JoinQuery, []Tuple) {
		r, s := rows(tag+"r", 120), rows(tag+"s", 90)
		q := &JoinQuery{
			Graph:  expr.MustJoinGraph(2, expr.EquiCol(0, 0, 1, 0)),
			Scheme: HashHypercube, Machines: 4,
			Sources: []Source{
				{Name: "R", Schema: schema, Spout: dataflow.SliceSpout(r), Size: int64(len(r))},
				{Name: "S", Schema: schema, Spout: dataflow.SliceSpout(s), Size: int64(len(s))},
			},
		}
		var want []Tuple
		counts := map[string]int64{}
		for _, a := range r {
			for _, b := range s {
				if a[0].I != b[0].I {
					continue
				}
				counts[a[1].Str]++
				want = append(want, Tuple{a[0], a[1], b[0], b[1]})
			}
		}
		if agg {
			q.Agg = &AggSpec{Kind: Count, GroupBy: []ColRef{{Rel: 0, E: expr.C(1)}}}
			want = want[:0]
			for k, c := range counts {
				want = append(want, Tuple{types.Str(k), types.Int(c)})
			}
		}
		return q, want
	}
	for _, batch := range []int{1, dataflow.DefaultBatchSize} {
		for _, agg := range []bool{false, true} {
			t.Run(fmt.Sprintf("batch=%d/agg=%v", batch, agg), func(t *testing.T) {
				q, want := query("a", agg)
				res, err := q.Run(Options{Seed: 1, BatchSize: batch})
				if err != nil {
					t.Fatal(err)
				}
				again, _ := query("zz", agg)
				if _, err := again.Run(Options{Seed: 1, BatchSize: batch}); err != nil {
					t.Fatal(err)
				}
				bag := map[string]int{}
				for _, r := range want {
					bag[r.Key()]++
				}
				if len(res.Rows) != len(want) {
					t.Fatalf("%d rows, want %d", len(res.Rows), len(want))
				}
				for _, r := range res.Rows {
					if bag[r.Key()] == 0 {
						t.Fatalf("result holds %v, which the oracle lacks (or its bytes were overwritten)", r)
					}
					bag[r.Key()]--
				}
			})
		}
	}
}
