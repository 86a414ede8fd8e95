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

// TestPackedPipelineAgreesWithPipeline runs the same rows through the boxed
// Pipeline and its compiled PackedPipeline (lowered select, spliced
// project, and a materializing fallback stage) and requires identical
// output streams.
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
		// Unlowerable select (DATE) forces the materializing fallback.
		{
			Select{P: expr.Cmp{Op: expr.Gt, L: expr.Date{Inner: expr.C(1)}, R: expr.I(9500)}},
			Project{Es: []expr.Expr{expr.C(1), expr.C(3)}},
		},
		// Unlowerable projection (arith) mid-pipeline.
		{
			Project{Es: []expr.Expr{expr.Arith{Op: expr.Mul, L: expr.C(0), R: expr.I(3)}, expr.C(3)}},
			Select{P: expr.Cmp{Op: expr.Lt, L: expr.C(0), R: expr.I(60)}},
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
			var want []types.Tuple
			if err := p.Each(tu, func(o types.Tuple) error { want = append(want, o.Clone()); return nil }); err != nil {
				t.Fatalf("pipeline %d boxed: %v", pi, err)
			}
			enc = wire.Encode(enc[:0], tu)
			if err := cur.Reset(enc); err != nil {
				t.Fatal(err)
			}
			var got []types.Tuple
			err := pp.EachRow(enc, &cur, func(row []byte, _ *wire.Cursor) error {
				o, _, err := wire.Decode(row)
				if err != nil {
					return err
				}
				got = append(got, o)
				return nil
			})
			if err != nil {
				t.Fatalf("pipeline %d packed: %v", pi, err)
			}
			if len(got) != len(want) {
				t.Fatalf("pipeline %d on %v: packed %d rows, boxed %d", pi, tu, len(got), len(want))
			}
			for k := range got {
				if got[k].Compare(want[k]) != 0 {
					t.Fatalf("pipeline %d on %v: row %d packed %v, boxed %v", pi, tu, k, got[k], want[k])
				}
			}
			// RunOne must agree on simple pipelines.
			if pp.Simple() {
				if err := cur.Reset(enc); err != nil {
					t.Fatal(err)
				}
				row, _, keep, err := pp.RunOne(enc, &cur)
				if err != nil {
					t.Fatal(err)
				}
				if keep != (len(want) == 1) {
					t.Fatalf("pipeline %d RunOne keep=%v, want %d rows", pi, keep, len(want))
				}
				if keep {
					o, _, err := wire.Decode(row)
					if err != nil {
						t.Fatal(err)
					}
					if o.Compare(want[0]) != 0 {
						t.Fatalf("pipeline %d RunOne %v, want %v", pi, o, want[0])
					}
				}
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
		if err := p.Each(tu, func(o types.Tuple) error { want = append(want, o); return nil }); err != nil {
			t.Fatal(err)
		}
	}
	rs := PackedSpout(dataflow.SliceSpout(rows), p)(0, 1)
	var got []types.Tuple
	for {
		row, ok := rs.NextRow()
		if !ok {
			break
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

// TestAggFoldRowAgreesWithFold differentials the packed aggregation fold.
func TestAggFoldRowAgreesWithFold(t *testing.T) {
	for _, kind := range []AggKind{Count, Sum, Avg} {
		var sumE expr.Expr
		if kind != Count {
			sumE = expr.C(2)
		}
		boxed := NewAgg([]expr.Expr{expr.C(0)}, kind, sumE, false)
		packed := NewAgg([]expr.Expr{expr.C(0)}, kind, sumE, false)
		if !packed.PackedCapable() {
			t.Fatalf("%v col-ref agg must be packed-capable", kind)
		}
		rng := rand.New(rand.NewSource(23))
		var cur wire.Cursor
		var enc []byte
		for i := 0; i < 500; i++ {
			tu := pipelineRow(rng, i)
			if _, err := boxed.Fold(tu); err != nil {
				t.Fatal(err)
			}
			enc = wire.Encode(enc[:0], tu)
			if err := cur.Reset(enc); err != nil {
				t.Fatal(err)
			}
			if err := packed.FoldRow(&cur); err != nil {
				t.Fatal(err)
			}
		}
		wantBag := map[string]int{}
		for _, r := range boxed.Rows() {
			wantBag[r.Key()]++
		}
		for _, r := range packed.Rows() {
			k := r.Key()
			if wantBag[k] == 0 {
				t.Fatalf("%v: packed row %v not in boxed rows", kind, r)
			}
			wantBag[k]--
		}
		if len(boxed.states) != len(packed.states) {
			t.Fatalf("%v: groups %d vs %d", kind, len(packed.states), len(boxed.states))
		}
	}
}

// TestAggPackedCapableFallbacks pins the shapes that must stay boxed.
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
	if NewAgg([]expr.Expr{expr.C(0)}, Count, nil, true).PackedCapable() {
		t.Fatal("incremental agg must not be packed-capable")
	}
}
