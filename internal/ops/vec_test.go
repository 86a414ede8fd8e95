package ops

import (
	"math/rand"
	"testing"

	"squall/internal/expr"
	"squall/internal/types"
	"squall/internal/vec"
	"squall/internal/wire"
)

// frameOf encodes rows into one footered frame.
func frameOf(rows []types.Tuple) []byte {
	return wire.AppendFooter(wire.EncodeBatch(nil, rows))
}

// TestRunFrameAgreesWithEachRow pushes footered frames through RunFrame and
// the same rows one at a time through EachRow, requiring identical output
// streams — across fully vectorizable pipelines, projection/selection
// interleavings (column-map composition) and spill-to-row-path fallbacks.
func TestRunFrameAgreesWithEachRow(t *testing.T) {
	pipelines := []Pipeline{
		nil,
		{Select{P: expr.Cmp{Op: expr.Lt, L: expr.C(0), R: expr.I(25)}}},
		{Project{Es: []expr.Expr{expr.C(3), expr.C(0)}}},
		{
			Select{P: expr.Cmp{Op: expr.Ge, L: expr.C(2), R: expr.F(5)}},
			Project{Es: []expr.Expr{expr.C(0), expr.C(2), expr.C(3)}},
			Select{P: expr.Cmp{Op: expr.Ne, L: expr.C(0), R: expr.I(7)}},
		},
		// Predicate behind two projections: the column map must compose.
		{
			Project{Es: []expr.Expr{expr.C(3), expr.C(2), expr.C(0)}},
			Project{Es: []expr.Expr{expr.C(2), expr.C(1)}},
			Select{P: expr.Cmp{Op: expr.Lt, L: expr.C(0), R: expr.I(25)}},
		},
		// Unlowerable select (DATE): every survivor spills to the row path.
		{
			Select{P: expr.Cmp{Op: expr.Lt, L: expr.C(0), R: expr.I(40)}},
			Select{P: expr.Cmp{Op: expr.Gt, L: expr.Date{Inner: expr.C(1)}, R: expr.I(9500)}},
			Project{Es: []expr.Expr{expr.C(1), expr.C(3)}},
		},
		// Unlowerable projection (arith) mid-pipeline.
		{
			Project{Es: []expr.Expr{expr.Arith{Op: expr.Mul, L: expr.C(0), R: expr.I(3)}, expr.C(3)}},
			Select{P: expr.Cmp{Op: expr.Lt, L: expr.C(0), R: expr.I(60)}},
		},
	}
	rng := rand.New(rand.NewSource(31))
	rows := make([]types.Tuple, 300)
	for i := range rows {
		rows[i] = pipelineRow(rng, i)
	}
	view := &vec.FrameView{}
	for pi, p := range pipelines {
		pp := CompilePipeline(p)
		for off := 0; off < len(rows); off += 30 {
			chunk := rows[off : off+30]
			var want []types.Tuple
			var cur wire.Cursor
			var enc []byte
			collect := func(dst *[]types.Tuple) func(row []byte, _ *wire.Cursor) error {
				return func(row []byte, _ *wire.Cursor) error {
					o, _, err := wire.Decode(row)
					if err != nil {
						return err
					}
					*dst = append(*dst, o)
					return nil
				}
			}
			for _, tu := range chunk {
				enc = wire.Encode(enc[:0], tu)
				if err := cur.Reset(enc); err != nil {
					t.Fatal(err)
				}
				if err := pp.EachRow(enc, &cur, collect(&want)); err != nil {
					t.Fatalf("pipeline %d row path: %v", pi, err)
				}
			}
			frame := frameOf(chunk)
			if !view.Reset(frame) {
				t.Fatalf("pipeline %d: frame has no footer", pi)
			}
			var got []types.Tuple
			handled, err := pp.RunFrame(view, collect(&got))
			if err != nil {
				t.Fatalf("pipeline %d RunFrame: %v", pi, err)
			}
			if !handled {
				t.Fatalf("pipeline %d: RunFrame refused a uniform footered frame", pi)
			}
			if len(got) != len(want) {
				t.Fatalf("pipeline %d: frame %d rows, row path %d", pi, len(got), len(want))
			}
			for k := range got {
				if got[k].Compare(want[k]) != 0 {
					t.Fatalf("pipeline %d row %d: frame %v, row path %v", pi, k, got[k], want[k])
				}
			}
		}
	}
}

// TestRunFrameMixedKindFallback feeds a frame whose predicate column mixes
// kinds: the kernel bows out per frame and RunFrame spills every row through
// the row-path predicate, still producing the reference answer.
func TestRunFrameMixedKindFallback(t *testing.T) {
	rows := []types.Tuple{
		{types.Int(1), types.Str("a")},
		{types.Float(2.5), types.Str("b")},
		{types.Int(3), types.Str("c")},
	}
	p := Pipeline{Select{P: expr.Cmp{Op: expr.Gt, L: expr.C(0), R: expr.I(1)}}}
	pp := CompilePipeline(p)
	view := &vec.FrameView{}
	if !view.Reset(frameOf(rows)) {
		t.Fatal("frame has no footer")
	}
	var got []types.Tuple
	handled, err := pp.RunFrame(view, func(row []byte, _ *wire.Cursor) error {
		o, _, err := wire.Decode(row)
		if err != nil {
			return err
		}
		got = append(got, o)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !handled {
		t.Fatalf("mixed-kind frame: want spill through the row path, got handled=false")
	}
	if len(got) != 2 || got[0].Compare(rows[1]) != 0 || got[1].Compare(rows[2]) != 0 {
		t.Fatalf("mixed-kind spill selected %v", got)
	}
}

// TestAggFoldFrameAgreesWithFoldRow differentials the group-wise frame fold
// against the per-row fold for every aggregate kind.
func TestAggFoldFrameAgreesWithFoldRow(t *testing.T) {
	for _, kind := range []AggKind{Count, Sum, Avg} {
		var sumE expr.Expr
		if kind != Count {
			sumE = expr.C(2)
		}
		rowAgg := NewAgg([]expr.Expr{expr.C(0)}, kind, sumE, false)
		frameAgg := NewAgg([]expr.Expr{expr.C(0)}, kind, sumE, false)
		if !rowAgg.PackedCapable() || !frameAgg.PackedCapable() {
			t.Fatalf("%v col-ref agg must be packed-capable", kind)
		}
		rng := rand.New(rand.NewSource(37))
		view := &vec.FrameView{}
		var cur wire.Cursor
		for f := 0; f < 10; f++ {
			rows := make([]types.Tuple, 50)
			for i := range rows {
				rows[i] = pipelineRow(rng, f*50+i)
			}
			frame := frameOf(rows)
			if !view.Reset(frame) {
				t.Fatal("frame has no footer")
			}
			handled, err := frameAgg.FoldFrame(view, view.All())
			if err != nil {
				t.Fatal(err)
			}
			if !handled {
				t.Fatal("FoldFrame refused a uniform frame")
			}
			if _, _, err := wire.EachRow(frame, &cur, func(_ []byte) error {
				return rowAgg.FoldRow(&cur)
			}); err != nil {
				t.Fatal(err)
			}
		}
		wantBag := map[string]int{}
		for _, r := range rowAgg.Rows() {
			wantBag[r.Key()]++
		}
		for _, r := range frameAgg.Rows() {
			k := r.Key()
			if wantBag[k] == 0 {
				t.Fatalf("%v: frame row %v not in row-path rows", kind, r)
			}
			wantBag[k]--
		}
		if len(rowAgg.states) != len(frameAgg.states) {
			t.Fatalf("%v: groups %d vs %d", kind, len(frameAgg.states), len(rowAgg.states))
		}
	}
}

// TestAggFoldFrameFallbackTouchesNothing pins the handled=false contract: a
// frame the fold cannot vectorize (string SUM column) must leave the group
// table untouched so the caller can re-fold row by row without double
// counting.
func TestAggFoldFrameFallbackTouchesNothing(t *testing.T) {
	a := NewAgg([]expr.Expr{expr.C(0)}, Sum, expr.C(1), false)
	if !a.PackedCapable() {
		t.Fatal("agg must be packed-capable")
	}
	rows := []types.Tuple{
		{types.Int(1), types.Str("2.5")},
		{types.Int(1), types.Str("3.5")},
	}
	view := &vec.FrameView{}
	frame := frameOf(rows)
	if !view.Reset(frame) {
		t.Fatal("frame has no footer")
	}
	handled, err := a.FoldFrame(view, view.All())
	if err != nil {
		t.Fatal(err)
	}
	if handled {
		t.Fatal("string SUM column must fall back to the row path")
	}
	if len(a.states) != 0 {
		t.Fatalf("fallback mutated the group table: %d groups", len(a.states))
	}
	var cur wire.Cursor
	if _, _, err := wire.EachRow(frame, &cur, func(_ []byte) error {
		return a.FoldRow(&cur)
	}); err != nil {
		t.Fatal(err)
	}
	rowsOut := a.Rows()
	if len(rowsOut) != 1 || rowsOut[0][1].F != 6 {
		t.Fatalf("row-path fold after fallback: %v", rowsOut)
	}
}
