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

// Op is one tuple-at-a-time operator stage: zero or more output tuples per
// input tuple.
type Op interface {
	Apply(t types.Tuple) ([]types.Tuple, error)
}

// OneOp is optionally implemented by operators that emit at most one tuple
// per input (selections, projections, parsers). Pipeline.Each uses it to run
// chains of such operators without allocating per-tuple result slices —
// the Apply signature costs several slice headers per tuple, which dominated
// source-pipeline profiles.
type OneOp interface {
	ApplyOne(t types.Tuple) (types.Tuple, bool, error)
}

// Select filters by a predicate.
type Select struct{ P expr.Pred }

// Apply keeps t when the predicate holds.
func (s Select) Apply(t types.Tuple) ([]types.Tuple, error) {
	out, keep, err := s.ApplyOne(t)
	if err != nil || !keep {
		return nil, err
	}
	return []types.Tuple{out}, nil
}

// ApplyOne keeps t when the predicate holds, without allocating.
func (s Select) ApplyOne(t types.Tuple) (types.Tuple, bool, error) {
	ok, err := s.P.Eval(t)
	if err != nil {
		return nil, false, err
	}
	return t, ok, nil
}

// Project maps each tuple through a list of expressions — the paper's output
// schemes: a component sends only the fields/expressions needed downstream.
type Project struct{ Es []expr.Expr }

// Apply evaluates every projection expression.
func (p Project) Apply(t types.Tuple) ([]types.Tuple, error) {
	out, _, err := p.ApplyOne(t)
	if err != nil {
		return nil, err
	}
	return []types.Tuple{out}, nil
}

// ApplyOne evaluates every projection expression into one output tuple.
func (p Project) ApplyOne(t types.Tuple) (types.Tuple, bool, error) {
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

// Apply runs the pipeline on one input tuple.
func (p Pipeline) Apply(t types.Tuple) ([]types.Tuple, error) {
	in := []types.Tuple{t}
	for _, op := range p {
		var out []types.Tuple
		for _, tu := range in {
			o, err := op.Apply(tu)
			if err != nil {
				return nil, err
			}
			out = append(out, o...)
		}
		if len(out) == 0 {
			return nil, nil
		}
		in = out
	}
	return in, nil
}

// Each runs the pipeline on one input tuple, streaming outputs to emit.
// Stages implementing OneOp are chained without any intermediate slices; a
// multi-output stage falls back to Apply for its fanout. Reuse one emit
// closure across calls — this is the hot path of every source pipeline.
func (p Pipeline) Each(t types.Tuple, emit func(types.Tuple) error) error {
	for i, op := range p {
		one, ok := op.(OneOp)
		if !ok {
			outs, err := op.Apply(t)
			if err != nil {
				return err
			}
			rest := p[i+1:]
			for _, o := range outs {
				if err := rest.Each(o, emit); err != nil {
					return err
				}
			}
			return nil
		}
		out, keep, err := one.ApplyOne(t)
		if err != nil || !keep {
			return err
		}
		t = out
	}
	return emit(t)
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

// Agg is a hash group-by aggregation over a single input stream. In
// full-history mode every input updates the group's accumulator and the
// final values are emitted on Finish; with Incremental set, the refreshed
// aggregate row is emitted on every update (online view maintenance).
//
// The group table is slab-backed: group keys are wire-encoded rows in a
// slab.Arena, probed through an open-addressing index.RefHash on the hash of
// the encoded bytes and verified by byte equality — exact (two groups are
// one iff their encodings match) with zero allocations per update.
type Agg struct {
	GroupBy     []expr.Expr
	Kind        AggKind
	SumE        expr.Expr // required for Sum/Avg
	Incremental bool

	arena  *slab.Arena
	idx    *index.RefHash
	states []groupAcc

	// per-update scratch (one bolt task, single-threaded)
	sKey types.Tuple
	sBuf []byte
	sRow types.Tuple

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
// group table.
func NewAgg(groupBy []expr.Expr, kind AggKind, sumE expr.Expr, incremental bool) *Agg {
	return &Agg{GroupBy: groupBy, Kind: kind, SumE: sumE, Incremental: incremental,
		arena: slab.New(), idx: index.NewRefHash()}
}

// Update folds one tuple with an explicit (cnt, sum) weight — the join bolts
// feed pre-aggregated deltas this way. It returns the refreshed output row
// when Incremental is set. The group key is evaluated into reusable scratch
// and only appended to the arena on a group's first appearance, so
// steady-state updates allocate nothing.
func (a *Agg) Update(t types.Tuple, cnt int64, sum float64) (types.Tuple, error) {
	if cap(a.sKey) < len(a.GroupBy) {
		a.sKey = make(types.Tuple, len(a.GroupBy))
	}
	g := a.sKey[:len(a.GroupBy)]
	for i, e := range a.GroupBy {
		v, err := e.Eval(t)
		if err != nil {
			return nil, err
		}
		g[i] = v
	}
	a.sBuf = wire.Encode(a.sBuf[:0], g)
	st := a.bumpEncoded(cnt, sum)
	if !a.Incremental {
		return nil, nil
	}
	a.sRow = a.arena.DecodeInto(a.sRow, st.ref)
	return a.rowOf(a.sRow, st.cnt, st.sum), nil
}

// bumpEncoded folds (cnt, sum) into the group whose wire-encoded key sits
// in a.sBuf: hash the encoded bytes, probe the open-addressing index with
// byte-equality verification, blit a new group row on first appearance.
// Shared by the boxed path (which encodes the evaluated key) and the packed
// path (which splices the key fields straight off the incoming row — the
// encodings are byte-identical, so the two paths share one table).
func (a *Agg) bumpEncoded(cnt int64, sum float64) *groupAcc {
	st := &a.states[a.slotFor(a.sBuf)]
	st.cnt += cnt
	st.sum += sum
	return st
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
// apply: non-incremental accumulation (packed callers emit nothing per
// update) and column-ref group-by / SUM expressions, so the group key
// splices straight off the encoded row.
func (a *Agg) PackedCapable() bool {
	if a.Incremental {
		return false
	}
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

// checkRowCols bound-checks the lowered columns against one row's arity,
// mirroring expr.Col.Eval's range errors on the boxed path.
func (a *Agg) checkRowCols(cur *wire.Cursor) error {
	for _, c := range a.groupCols {
		if c < 0 || c >= cur.Arity() {
			return fmt.Errorf("expr: column %d out of range for arity %d", c, cur.Arity())
		}
	}
	if a.sumCol >= cur.Arity() {
		return fmt.Errorf("expr: column %d out of range for arity %d", a.sumCol, cur.Arity())
	}
	return nil
}

// UpdateRow is the packed Update: the group key is spliced from the
// encoded row's fields (no Eval, no re-encode) and the accumulator is
// bumped in place. Callers must have checked PackedCapable.
func (a *Agg) UpdateRow(cur *wire.Cursor, cnt int64, sum float64) error {
	if err := a.checkRowCols(cur); err != nil {
		return err
	}
	a.sBuf = wire.SpliceRow(a.sBuf[:0], cur, a.groupCols)
	a.bumpEncoded(cnt, sum)
	return nil
}

// FoldRow is the packed Fold: cnt 1, sum read off the SUM column under
// AsFloat coercion (matching the boxed error on non-numeric non-null).
func (a *Agg) FoldRow(cur *wire.Cursor) error {
	sum := 0.0
	if a.sumCol >= 0 {
		if err := a.checkRowCols(cur); err != nil {
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

// Fold feeds one raw tuple (cnt 1, sum = SumE(t) when configured).
func (a *Agg) Fold(t types.Tuple) (types.Tuple, error) {
	sum := 0.0
	if a.SumE != nil {
		v, err := a.SumE.Eval(t)
		if err != nil {
			return nil, err
		}
		f, ok := v.AsFloat()
		if !ok && !v.IsNull() {
			return nil, fmt.Errorf("ops: SUM argument %v is not numeric", v)
		}
		sum = f
	} else if a.Kind != Count {
		return nil, fmt.Errorf("ops: %s needs a sum expression", a.Kind)
	}
	return a.Update(t, 1, sum)
}

// rowOf renders one group's output row: the group values followed by the
// aggregate. group is copied (it may be scratch).
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
// under the coercions Agg.Update's callers apply (AsInt for cnt, AsFloat for
// sum).
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
