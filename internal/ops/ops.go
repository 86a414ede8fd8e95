// Package ops provides Squall's physical operators (§2): selections,
// projections and aggregations, plus the bolts that assemble them into
// dataflow components. A component is a pipeline of co-located operators —
// e.g. a data source followed by a selection, or a join followed by a
// partial aggregation — executed inside one bolt to avoid network hops,
// exactly like the paper's operator co-location.
package ops

import (
	"bytes"
	"fmt"

	"squall/internal/dataflow"
	"squall/internal/expr"
	"squall/internal/index"
	"squall/internal/slab"
	"squall/internal/types"
	"squall/internal/wire"
)

// Op is one tuple-at-a-time operator stage: at most one output tuple per
// input tuple (the paper's §2 selections, projections and parsers). keep is
// false when the input is filtered out.
type Op interface {
	Apply(t types.Tuple) (out types.Tuple, keep bool, err error)
}

// Select filters by a predicate.
type Select struct{ P expr.Pred }

// Apply keeps t when the predicate holds, without allocating.
func (s Select) Apply(t types.Tuple) (types.Tuple, bool, error) {
	ok, err := s.P.Eval(t)
	if err != nil {
		return nil, false, err
	}
	return t, ok, nil
}

// Project maps each tuple through a list of expressions — the paper's output
// schemes: a component sends only the fields/expressions needed downstream.
type Project struct{ Es []expr.Expr }

// Apply evaluates every projection expression into one output tuple.
func (p Project) Apply(t types.Tuple) (types.Tuple, bool, error) {
	out := make(types.Tuple, len(p.Es))
	for i, e := range p.Es {
		v, err := e.Eval(t)
		if err != nil {
			return nil, false, err
		}
		out[i] = v
	}
	return out, true, nil
}

// Pipeline chains operators; the output of each stage feeds the next.
type Pipeline []Op

// Apply runs the pipeline on one input tuple: the boxed reference the
// packed lowering is checked against, and Figure 5's per-tuple path.
func (p Pipeline) Apply(t types.Tuple) (types.Tuple, bool, error) {
	for _, op := range p {
		out, keep, err := op.Apply(t)
		if err != nil || !keep {
			return nil, false, err
		}
		t = out
	}
	return t, true, nil
}

// AggKind enumerates the supported aggregates (§2: sum, count, average).
type AggKind uint8

// Supported aggregate functions.
const (
	Count AggKind = iota
	Sum
	Avg
)

// String names the aggregate.
func (k AggKind) String() string {
	switch k {
	case Count:
		return "COUNT"
	case Sum:
		return "SUM"
	case Avg:
		return "AVG"
	default:
		return fmt.Sprintf("AggKind(%d)", uint8(k))
	}
}

// groupAcc is one group's accumulator: the group key lives as a wire-encoded row in the shared arena, addressed by ref.
type groupAcc struct {
	ref slab.Ref
	cnt int64
	sum float64
}

// Agg is a hash group-by aggregation over a single input stream: every
// input row updates its group's accumulator and the final values are read
// with Rows (emitted on Finish by the aggregation bolts).
//
// The group table is slab-backed: group keys are wire-encoded rows in a
// slab.Arena, probed through an open-addressing index.RefHash on the hash of
// the encoded bytes and verified by byte equality — exact (two groups are
// one iff their encodings match) with zero allocations per update.
type Agg struct {
	GroupBy []expr.Expr
	Kind    AggKind
	SumE    expr.Expr // required for Sum/Avg

	arena  *slab.Arena
	idx    *index.RefHash
	states []groupAcc

	// per-update scratch (one bolt task, single-threaded): the spliced key
	sBuf []byte

	// packed lowering (PR 5): group-by column indexes and the SUM column
	// when every expression is a plain column ref; see PackedCapable.
	groupCols []int
	sumCol    int

	// frame-fold scratch (PR 6): spliced group keys packed back to back,
	// their end offsets, and the resolved accumulator slot per selected row.
	keyBuf  []byte
	keyEnds []int32
	slots   []int32
}

// NewAgg copies the configuration into a fresh accumulator with an empty
// group table. Groups are read only once folding ends (Rows), so an Agg
// emits nothing per update: incremental must be false, and true panics.
func NewAgg(groupBy []expr.Expr, kind AggKind, sumE expr.Expr, incremental bool) *Agg {
	if incremental {
		panic("ops: incremental Agg is not supported")
	}
	return &Agg{GroupBy: groupBy, Kind: kind, SumE: sumE,
		arena: slab.New(), idx: index.NewRefHash()}
}

// slotFor returns the accumulator slot of the group whose wire-encoded key
// is key, inserting a zeroed accumulator on first appearance. The frame fold
// (FoldFrame) uses it directly to resolve all of a frame's keys in one pass
// before bumping accumulators in a second.
func (a *Agg) slotFor(key []byte) int {
	h := index.BytesHash(key)
	slot := -1
	a.idx.Each(h, func(ref uint32) bool {
		if bytes.Equal(a.arena.RowBytes(a.states[ref].ref), key) {
			slot = int(ref)
			return false
		}
		return true
	})
	if slot < 0 {
		slot = len(a.states)
		a.states = append(a.states, groupAcc{ref: a.arena.AppendEncoded(key)})
		a.idx.Insert(h, uint32(slot))
	}
	return slot
}

// PackedCapable reports whether the row-based folds (FoldRow / UpdateRow)
// apply — column-ref group-by / SUM expressions, so the group key splices
// straight off the encoded row — and lowers those columns for them. Callers
// must check it before the first fold.
func (a *Agg) PackedCapable() bool {
	cols, ok := expr.ProjectionCols(a.GroupBy)
	if !ok {
		return false
	}
	a.sumCol = -1
	if a.SumE != nil {
		sc, ok := expr.ColIndex(a.SumE)
		if !ok {
			return false
		}
		a.sumCol = sc
	}
	a.groupCols = cols
	return true
}

// checkCols bound-checks the lowered columns against the arity of a row or
// frame: expr.Col.Check, the range error of the boxed path.
func (a *Agg) checkCols(arity int) error {
	for _, c := range a.groupCols {
		if err := expr.C(c).Check(arity); err != nil {
			return err
		}
	}
	if a.sumCol >= 0 {
		return expr.C(a.sumCol).Check(arity)
	}
	return nil
}

// UpdateRow folds one row with an explicit (cnt, sum) weight — the merge
// bolt feeds pre-aggregated partials this way. The group key is spliced
// from the encoded row's fields (no Eval, no re-encode) and the accumulator
// is bumped in place, so steady-state updates allocate nothing. Callers
// must have checked PackedCapable.
func (a *Agg) UpdateRow(cur *wire.Cursor, cnt int64, sum float64) error {
	if err := a.checkCols(cur.Arity()); err != nil {
		return err
	}
	a.sBuf = wire.SpliceRow(a.sBuf[:0], cur, a.groupCols)
	st := &a.states[a.slotFor(a.sBuf)]
	st.cnt += cnt
	st.sum += sum
	return nil
}

// FoldRow folds one raw row: cnt 1, sum read off the SUM column under
// AsFloat coercion (an error on a non-numeric non-null value).
func (a *Agg) FoldRow(cur *wire.Cursor) error {
	sum := 0.0
	if a.sumCol >= 0 {
		if err := a.checkCols(cur.Arity()); err != nil {
			return err
		}
		f, ok := cur.FieldFloat(a.sumCol)
		if !ok && cur.Kind(a.sumCol) != types.KindNull {
			return fmt.Errorf("ops: SUM argument %v is not numeric", cur.Value(a.sumCol))
		}
		sum = f
	} else if a.Kind != Count {
		return fmt.Errorf("ops: %s needs a sum expression", a.Kind)
	}
	return a.UpdateRow(cur, 1, sum)
}

// rowOf renders one group's output row: the group values followed by the
// aggregate.
func (a *Agg) rowOf(group types.Tuple, cnt int64, sum float64) types.Tuple {
	out := make(types.Tuple, 0, len(group)+1)
	out = append(out, group...)
	switch a.Kind {
	case Count:
		out = append(out, types.Int(cnt))
	case Sum:
		out = append(out, types.Float(sum))
	case Avg:
		if cnt == 0 {
			out = append(out, types.Null())
		} else {
			out = append(out, types.Float(sum/float64(cnt)))
		}
	}
	return out
}

// Rows returns the current aggregate rows.
func (a *Agg) Rows() []types.Tuple {
	out := make([]types.Tuple, 0, len(a.states))
	for i := range a.states {
		st := &a.states[i]
		out = append(out, a.rowOf(a.arena.Decode(st.ref), st.cnt, st.sum))
	}
	return out
}

// MemSize reports accumulator state in real bytes.
func (a *Agg) MemSize() int {
	return a.arena.MemSize() + a.idx.MemSize() + 24*cap(a.states) + 48
}

// colAgg is a non-incremental Agg over plain columns, lowered at
// construction: group by groupCols, SUM over sumCol (-1 for none).
func colAgg(groupCols []int, kind AggKind, sumCol int) *Agg {
	groupBy := make([]expr.Expr, len(groupCols))
	for i, c := range groupCols {
		groupBy[i] = expr.C(c)
	}
	var sumE expr.Expr
	if sumCol >= 0 {
		sumE = expr.C(sumCol)
	}
	a := NewAgg(groupBy, kind, sumE, false)
	a.groupCols, a.sumCol = groupCols, sumCol
	return a
}

// finishAgg emits an accumulator's final rows, encoded.
func finishAgg(a *Agg, out *dataflow.Collector) error {
	var enc []byte
	for _, row := range a.Rows() {
		enc = wire.Encode(enc[:0], row)
		if err := out.EmitRow(enc); err != nil {
			return err
		}
	}
	return nil
}

// AggBolt builds a per-task aggregation component over plain columns of
// its input rows: group by groupCols, SUM (or AVG) over sumCol, -1 when
// the aggregate is COUNT. Upstream edges must group by the group-by columns
// (Fields or KeyMapped) so each group lands on one task. Each row folds off
// its cursor, group keys spliced from the encoded fields, and the final rows
// leave on Finish.
func AggBolt(groupCols []int, kind AggKind, sumCol int) dataflow.BoltFactory {
	return func(task, ntasks int) dataflow.Bolt {
		return aggBolt{colAgg(groupCols, kind, sumCol)}
	}
}

type aggBolt struct{ a *Agg }

func (b aggBolt) ExecuteRow(in dataflow.RowInput, _ *dataflow.Collector) error {
	return b.a.FoldRow(in.Cur)
}

func (b aggBolt) Finish(out *dataflow.Collector) error { return finishAgg(b.a, out) }

func (b aggBolt) MemSize() int { return b.a.MemSize() }

// MergeBolt merges pre-aggregated partial rows of shape (group..., cnt, sum)
// emitted by AggJoinBolt tasks into final aggregate rows. ngroup is the
// number of leading group columns. Cnt and sum are read off the encoded row
// under the tuple coercions (AsInt for cnt, AsFloat for sum).
func MergeBolt(ngroup int, kind AggKind) dataflow.BoltFactory {
	return func(task, ntasks int) dataflow.Bolt {
		groupCols := make([]int, ngroup)
		for i := range groupCols {
			groupCols[i] = i
		}
		return mergeBolt{colAgg(groupCols, kind, -1)}
	}
}

type mergeBolt struct{ a *Agg }

func (b mergeBolt) ExecuteRow(in dataflow.RowInput, _ *dataflow.Collector) error {
	cur, ngroup := in.Cur, len(b.a.groupCols)
	if cur.Arity() != ngroup+2 {
		return fmt.Errorf("ops: merge row arity %d, want %d group cols + cnt + sum", cur.Arity(), ngroup)
	}
	cnt, ok := cur.FieldInt(ngroup)
	if !ok {
		return fmt.Errorf("ops: merge row cnt %v not integer", cur.Value(ngroup))
	}
	sum, _ := cur.FieldFloat(ngroup + 1)
	return b.a.UpdateRow(cur, cnt, sum)
}

func (b mergeBolt) Finish(out *dataflow.Collector) error { return finishAgg(b.a, out) }

func (b mergeBolt) MemSize() int { return b.a.MemSize() }
