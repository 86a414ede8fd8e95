package squall

import (
	"fmt"
	"testing"

	"squall/internal/dataflow"
	"squall/internal/expr"
	"squall/internal/types"
)

// TestPlannedOperatorsRunOnRows plans Traditional and DBToaster queries,
// with and without an aggregate, on 2- and 3-relation graphs whose join keys
// are plain columns or computed: every bolt of the plan is a
// dataflow.RowBolt, and every edge into the joiner routes encoded rows
// (dataflow.RowGrouping). No operator falls back to decoded tuples.
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
							f := p.topo.Bolt(c)
							if f == nil {
								continue
							}
							par := p.topo.Parallelism(c)
							for task := 0; task < par; task++ {
								if b := f(task, par); !isRowBolt(b) {
									t.Fatalf("bolt %s[%d] is %T, not a dataflow.RowBolt", c, task, b)
								}
								bolts++
							}
						}
						if bolts == 0 {
							t.Fatal("the plan has no bolts")
						}
						for _, s := range q.Sources {
							g := p.topo.Grouping(p.joiner, s.Name)
							if _, ok := g.(dataflow.RowGrouping); !ok {
								t.Fatalf("edge %s -> %s groups by %T, not a dataflow.RowGrouping", s.Name, p.joiner, g)
							}
						}
					})
				}
			}
		}
	}
}

func isRowBolt(b dataflow.Bolt) bool {
	_, ok := b.(dataflow.RowBolt)
	return ok
}
