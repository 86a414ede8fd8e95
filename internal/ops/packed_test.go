package ops

import (
	"fmt"
	"math/rand"
	"testing"

	"squall/internal/dataflow"
	"squall/internal/expr"
	"squall/internal/types"
	"squall/internal/wire"
)

// pipelineRow synthesizes rows with mixed kinds for pipeline differentials.
func pipelineRow(rng *rand.Rand, i int) types.Tuple {
	return types.Tuple{
		types.Int(int64(rng.Intn(50))),
		types.Str(fmt.Sprintf("1996-%02d-%02d", 1+i%12, 1+i%28)),
		types.Float(float64(rng.Intn(100)) / 4),
		types.Int(int64(i)),
	}
}

// swapOp is a custom Op, neither Select nor Project: it keeps rows whose
// column 0 is even and swaps their first two columns.
type swapOp struct{}

func (swapOp) Apply(t types.Tuple) (types.Tuple, bool, error) {
	if t[0].I%2 != 0 {
		return nil, false, nil
	}
	return types.Tuple{t[1], t[0], t[2], t[3]}, true, nil
}

// TestPackedPipelineAgreesWithPipeline runs the same rows through the boxed
// Pipeline and its compiled PackedPipeline (column and computed selects,
// spliced and computed projects, and a custom Op over the decoded row) and
// requires the same row, or the same filtering, for every input.
func TestPackedPipelineAgreesWithPipeline(t *testing.T) {
	pipelines := []Pipeline{
		nil,
		{Select{P: expr.Cmp{Op: expr.Lt, L: expr.C(0), R: expr.I(25)}}},
		{Project{Es: []expr.Expr{expr.C(3), expr.C(0)}}},
		{
			Select{P: expr.Cmp{Op: expr.Ge, L: expr.C(2), R: expr.F(5)}},
			Project{Es: []expr.Expr{expr.C(0), expr.C(2), expr.C(3)}},
			Select{P: expr.Cmp{Op: expr.Ne, L: expr.C(0), R: expr.I(7)}},
		},
		// A DATE() select runs over the encoded row.
		{
			Select{P: expr.Cmp{Op: expr.Gt, L: expr.Date{Inner: expr.C(1)}, R: expr.I(9500)}},
			Project{Es: []expr.Expr{expr.C(1), expr.C(3)}},
		},
		// A computed projection mid-pipeline.
		{
			Project{Es: []expr.Expr{expr.Arith{Op: expr.Mul, L: expr.C(0), R: expr.I(3)}, expr.C(3)}},
			Select{P: expr.Cmp{Op: expr.Lt, L: expr.C(0), R: expr.I(60)}},
		},
		// A custom Op between lowered stages.
		{
			Select{P: expr.Cmp{Op: expr.Lt, L: expr.C(0), R: expr.I(40)}},
			swapOp{},
			Select{P: expr.Cmp{Op: expr.Ne, L: expr.C(1), R: expr.I(8)}},
		},
	}
	rng := rand.New(rand.NewSource(13))
	rows := make([]types.Tuple, 300)
	for i := range rows {
		rows[i] = pipelineRow(rng, i)
	}
	for pi, p := range pipelines {
		pp := CompilePipeline(p)
		var cur wire.Cursor
		var enc []byte
		for _, tu := range rows {
			want, wantKeep, err := p.Apply(tu)
			if err != nil {
				t.Fatalf("pipeline %d boxed: %v", pi, err)
			}
			enc = wire.Encode(enc[:0], tu)
			if err := cur.Reset(enc); err != nil {
				t.Fatal(err)
			}
			row, _, keep, err := pp.RunOne(enc, &cur)
			if err != nil {
				t.Fatalf("pipeline %d packed: %v", pi, err)
			}
			if keep != wantKeep {
				t.Fatalf("pipeline %d on %v: packed keep=%v, boxed keep=%v", pi, tu, keep, wantKeep)
			}
			if !keep {
				continue
			}
			got, _, err := wire.Decode(row)
			if err != nil {
				t.Fatal(err)
			}
			if got.Compare(want) != 0 {
				t.Fatalf("pipeline %d on %v: packed %v, boxed %v", pi, tu, got, want)
			}
		}
	}
}

// TestPackedSpoutMatchesPipeline drains a PackedSpout against the tuple
// pipeline run over the same source.
func TestPackedSpoutMatchesPipeline(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	rows := make([]types.Tuple, 200)
	for i := range rows {
		rows[i] = pipelineRow(rng, i)
	}
	p := Pipeline{
		Select{P: expr.Cmp{Op: expr.Lt, L: expr.C(0), R: expr.I(30)}},
		Project{Es: []expr.Expr{expr.C(0), expr.C(3)}},
	}
	var want []types.Tuple
	for _, tu := range rows {
		o, keep, err := p.Apply(tu)
		if err != nil {
			t.Fatal(err)
		}
		if keep {
			want = append(want, o)
		}
	}
	rs := PackedSpout(dataflow.SliceSpout(rows), p)(0, 1)
	var got []types.Tuple
	for {
		row, ok := rs.NextRow()
		if !ok {
			break
		}
		if row == nil {
			continue // a yield
		}
		tu, _, err := wire.Decode(row)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, tu)
	}
	if len(got) != len(want) {
		t.Fatalf("packed %d rows, pipeline %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Compare(want[i]) != 0 {
			t.Fatalf("row %d: packed %v, pipeline %v", i, got[i], want[i])
		}
	}
}

// TestAggFoldRowMatchesReference folds random rows through FoldRow and
// checks every aggregate kind against a plain-Go group-by over the same rows.
func TestAggFoldRowMatchesReference(t *testing.T) {
	for _, kind := range []AggKind{Count, Sum, Avg} {
		var sumE expr.Expr
		if kind != Count {
			sumE = expr.C(2)
		}
		packed := NewAgg([]expr.Expr{expr.C(0)}, kind, sumE, false)
		if !packed.PackedCapable() {
			t.Fatalf("%v col-ref agg must be packed-capable", kind)
		}
		rng := rand.New(rand.NewSource(23))
		var cur wire.Cursor
		var enc []byte
		refCnt, refSum := map[int64]int64{}, map[int64]float64{}
		for i := 0; i < 500; i++ {
			tu := pipelineRow(rng, i)
			refCnt[tu[0].I]++
			refSum[tu[0].I] += tu[2].F
			enc = wire.Encode(enc[:0], tu)
			if err := cur.Reset(enc); err != nil {
				t.Fatal(err)
			}
			if err := packed.FoldRow(&cur); err != nil {
				t.Fatal(err)
			}
		}
		got := packed.Rows()
		if len(got) != len(refCnt) {
			t.Fatalf("%v: %d groups, reference %d", kind, len(got), len(refCnt))
		}
		for _, r := range got {
			g := r[0].I
			var want types.Value
			switch kind {
			case Count:
				want = types.Int(refCnt[g])
			case Sum:
				want = types.Float(refSum[g])
			case Avg:
				want = types.Float(refSum[g] / float64(refCnt[g]))
			}
			if r[1].Compare(want) != 0 {
				t.Fatalf("%v group %d: %v, reference %v", kind, g, r[1], want)
			}
		}
	}
}

// TestAggPackedCapableFallbacks pins the shapes the row folds reject
// (computed group-by or SUM expressions) and NewAgg's refusal of
// per-update emission.
func TestAggPackedCapableFallbacks(t *testing.T) {
	arith := expr.Arith{Op: expr.Add, L: expr.C(0), R: expr.I(1)}
	if NewAgg([]expr.Expr{arith}, Count, nil, false).PackedCapable() {
		t.Fatal("arith group-by must not be packed-capable")
	}
	if NewAgg([]expr.Expr{expr.C(0)}, Sum, arith, false).PackedCapable() {
		t.Fatal("arith SUM must not be packed-capable")
	}
	if !NewAgg([]expr.Expr{expr.C(0)}, Sum, expr.C(1), false).PackedCapable() {
		t.Fatal("column group-by and SUM must be packed-capable")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NewAgg with incremental=true must panic")
		}
	}()
	NewAgg([]expr.Expr{expr.C(0)}, Count, nil, true)
}
