// Packed execution (PR 5): the frame-at-a-time lowering of the operator
// pipeline. A Pipeline compiles into a PackedPipeline whose stages work
// directly on wire-encoded rows through a Cursor — Select filters without
// decoding (expr.CompilePred), Project re-emits by splicing encoded field
// bytes when every projection is a column ref — and stages that cannot
// lower fall back to materialize-then-Apply per row, preserving semantics
// exactly.
package ops

import (
	"fmt"

	"squall/internal/dataflow"
	"squall/internal/expr"
	"squall/internal/types"
	"squall/internal/vec"
	"squall/internal/wire"
)

// packedStage is one lowered pipeline stage: exactly one of pred (packed
// filter), cols (packed projection splice) or op (materializing fallback)
// drives it.
type packedStage struct {
	pred expr.PackedPred
	cols []int
	op   Op
	one  OneOp // fallback fast shape (single-output)

	// frame path (PR 6): the predicate lowered to selection-vector kernels,
	// and the column map in effect when this stage runs — the composition of
	// every projection upstream of it (nil = frame identity). Projections
	// themselves do no frame-level work: they only extend the map.
	vpred expr.VecPred
	inMap []int

	buf []byte      // output row buffer (splice / fallback re-encode)
	cur wire.Cursor // cursor over buf
	dec types.Tuple // fallback materialization scratch
}

// PackedPipeline is a Pipeline lowered to run over encoded rows. One
// instance belongs to one task (stage buffers are reused per row).
type PackedPipeline struct {
	stages []packedStage
	simple bool // every stage emits at most one row per input

	// frame path (PR 6)
	vecStop int   // first stage the frame path cannot cross (len(stages) if none)
	outMap  []int // column map after the last stage (nil = identity)
	fbuf    []byte
	fcur    wire.Cursor
}

// CompilePipeline lowers p. Compilation always succeeds — unlowerable
// stages run through the materializing fallback — so callers can route
// every source pipeline through the packed path unconditionally.
//
// For the frame path the compiler additionally lowers each Select to a
// VecPred and folds chains of packed projections into static column maps:
// stage i records the map in effect when it runs, so RunFrame never
// materializes intermediate projected rows. vecStop marks the first stage
// frames cannot cross vectorized (an unlowerable stage, or a projection
// whose columns cannot compose statically).
func CompilePipeline(p Pipeline) *PackedPipeline {
	pp := &PackedPipeline{simple: true, vecStop: -1}
	var cur []int // running projection composition; nil = identity
	for i, op := range p {
		st := packedStage{inMap: cur}
		vecOK := false
		switch o := op.(type) {
		case Select:
			if pred, ok := expr.CompilePred(o.P); ok {
				st.pred = pred
				if vp, ok := expr.CompileVecPred(o.P); ok {
					st.vpred = vp
					vecOK = true
				}
			}
		case Project:
			if cols, ok := expr.ProjectionCols(o.Es); ok {
				st.cols = cols
				if next, ok := composeColMap(cur, cols); ok {
					cur = next
					vecOK = true
				}
			}
		}
		if st.pred == nil && st.cols == nil {
			st.op = op
			st.one, _ = op.(OneOp)
			if st.one == nil {
				pp.simple = false
			}
		}
		if !vecOK && pp.vecStop < 0 {
			pp.vecStop = i
		}
		pp.stages = append(pp.stages, st)
	}
	if pp.vecStop < 0 {
		pp.vecStop = len(pp.stages)
		pp.outMap = cur
	}
	return pp
}

// composeColMap resolves a projection's columns through the map already in
// effect: next[j] is the frame column feeding output column j. ok=false when
// a column falls outside the projected arity (the row path's splice decides
// what that means).
func composeColMap(cur, cols []int) ([]int, bool) {
	next := make([]int, len(cols))
	for j, c := range cols {
		if c < 0 {
			return nil, false
		}
		if cur == nil {
			next[j] = c
		} else {
			if c >= len(cur) {
				return nil, false
			}
			next[j] = cur[c]
		}
	}
	return next, true
}

// Simple reports whether every stage emits at most one row per input, so
// RunOne applies.
func (pp *PackedPipeline) Simple() bool { return pp.simple }

// Empty reports a stageless pipeline (rows pass through untouched).
func (pp *PackedPipeline) Empty() bool { return len(pp.stages) == 0 }

// RunOne pushes one row through a Simple pipeline: the result row (which
// may alias the input or an internal stage buffer, valid until the next
// call), its cursor, and whether the row survived filtering.
func (pp *PackedPipeline) RunOne(row []byte, cur *wire.Cursor) ([]byte, *wire.Cursor, bool, error) {
	for i := range pp.stages {
		st := &pp.stages[i]
		switch {
		case st.pred != nil:
			ok, err := st.pred(cur)
			if err != nil || !ok {
				return nil, nil, false, err
			}
		case st.cols != nil:
			st.buf = wire.SpliceRow(st.buf[:0], cur, st.cols)
			if err := st.cur.Reset(st.buf); err != nil {
				return nil, nil, false, err
			}
			row, cur = st.buf, &st.cur
		default:
			st.dec = cur.Tuple(st.dec)
			out, keep, err := st.one.ApplyOne(st.dec)
			if err != nil || !keep {
				return nil, nil, false, err
			}
			st.buf = wire.Encode(st.buf[:0], out)
			if err := st.cur.Reset(st.buf); err != nil {
				return nil, nil, false, err
			}
			row, cur = st.buf, &st.cur
		}
	}
	return row, cur, true, nil
}

// EachRow pushes one row through the pipeline, streaming every output row
// to emit (rows are valid only during the callback). Multi-output fallback
// stages fan out depth-first, like Pipeline.Each.
func (pp *PackedPipeline) EachRow(row []byte, cur *wire.Cursor, emit func(row []byte, cur *wire.Cursor) error) error {
	return pp.run(0, row, cur, emit)
}

func (pp *PackedPipeline) run(from int, row []byte, cur *wire.Cursor, emit func(row []byte, cur *wire.Cursor) error) error {
	for i := from; i < len(pp.stages); i++ {
		st := &pp.stages[i]
		switch {
		case st.pred != nil:
			ok, err := st.pred(cur)
			if err != nil || !ok {
				return err
			}
		case st.cols != nil:
			st.buf = wire.SpliceRow(st.buf[:0], cur, st.cols)
			if err := st.cur.Reset(st.buf); err != nil {
				return err
			}
			row, cur = st.buf, &st.cur
		case st.one != nil:
			st.dec = cur.Tuple(st.dec)
			out, keep, err := st.one.ApplyOne(st.dec)
			if err != nil || !keep {
				return err
			}
			st.buf = wire.Encode(st.buf[:0], out)
			if err := st.cur.Reset(st.buf); err != nil {
				return err
			}
			row, cur = st.buf, &st.cur
		default:
			st.dec = cur.Tuple(st.dec)
			outs, err := st.op.Apply(st.dec)
			if err != nil {
				return err
			}
			for _, o := range outs {
				// Sequential reuse of the stage buffer is safe: deeper
				// stages copy what they keep before the next output lands.
				st.buf = wire.Encode(st.buf[:0], o)
				if err := st.cur.Reset(st.buf); err != nil {
					return err
				}
				if err := pp.run(i+1, st.buf, &st.cur, emit); err != nil {
					return err
				}
			}
			return nil
		}
	}
	return emit(row, cur)
}

// RunFrame pushes a whole footered frame through the pipeline at once
// (vectorized execution, PR 6): lowered predicates narrow a selection
// vector over the frame's columns, projections ride along as column maps,
// and only the surviving rows are materialized — spliced through the
// composed map and handed to emit (or, past vecStop, pushed through the
// row path's remaining stages). view must hold the frame (FrameView.Reset
// returned true).
//
// handled=false means this frame could not be vectorized at all (a kernel
// hit a column the footer summarized as mixed, or the footer lied about an
// offset) and no row was emitted: the caller re-walks the frame row by row,
// with identical semantics. Once any row has been emitted RunFrame never
// reports false — a malformed footer discovered mid-emit surfaces as an
// error instead, so callers never double-process rows.
func (pp *PackedPipeline) RunFrame(view *vec.FrameView, emit func(row []byte, cur *wire.Cursor) error) (handled bool, err error) {
	sel := view.All()
	stop := pp.vecStop
	for i := 0; i < stop; i++ {
		st := &pp.stages[i]
		if st.vpred == nil {
			continue // projection: absorbed into the column maps
		}
		out, ok, err := st.vpred(view, st.inMap, sel)
		if err != nil {
			return true, err
		}
		if !ok {
			// Per-frame fallback: this frame's columns defeated the kernels
			// (mixed kinds). Spill the survivors so far through the row path
			// from this stage on.
			stop = i
			break
		}
		sel = out
		if len(sel) == 0 {
			return true, nil
		}
	}
	m := pp.outMap
	if stop < len(pp.stages) {
		m = pp.stages[stop].inMap
	}
	emitted := false
	for _, r := range sel {
		row := pp.fbuf
		var ok bool
		if m == nil {
			row, ok = view.RowBytes(r)
		} else {
			row, ok = view.AppendRow(pp.fbuf[:0], m, r)
			pp.fbuf = row
		}
		if !ok {
			if emitted {
				return true, fmt.Errorf("ops: frame footer inconsistent at row %d", r)
			}
			return false, nil
		}
		if err := pp.fcur.Reset(row); err != nil {
			if emitted {
				return true, fmt.Errorf("ops: frame footer inconsistent at row %d: %v", r, err)
			}
			return false, nil
		}
		emitted = true
		if err := pp.run(stop, row, &pp.fcur, emit); err != nil {
			return true, err
		}
	}
	return true, nil
}

// PackedSpout co-locates a pipeline with a data source like PipedSpout, but
// the returned spouts also implement dataflow.RowSpout: tuples are encoded
// once at the source and the pipeline runs packed over the encoded row, so
// the executor can route and transport the bytes without ever materializing
// a tuple again.
func PackedSpout(f dataflow.SpoutFactory, p Pipeline) dataflow.SpoutFactory {
	return func(task, ntasks int) dataflow.Spout {
		s := &packedSpout{pp: CompilePipeline(p)}
		s.inner = f(task, ntasks)
		s.p = p
		s.emit = func(t types.Tuple) error { s.queue = append(s.queue, t); return nil }
		s.emitRow = func(row []byte, _ *wire.Cursor) error {
			s.qoffs = append(s.qoffs, len(s.qbuf))
			s.qbuf = append(s.qbuf, row...)
			return nil
		}
		return s
	}
}

type packedSpout struct {
	pipedSpout
	pp  *PackedPipeline
	enc []byte
	cur wire.Cursor
	// multi-output queue: encoded rows packed back to back.
	qbuf    []byte
	qoffs   []int
	qhead   int
	emitRow func(row []byte, cur *wire.Cursor) error
}

// NextRow produces the next encoded post-pipeline row (dataflow.RowSpout).
// The row aliases internal buffers, valid until the next call.
func (s *packedSpout) NextRow() ([]byte, bool) {
	for {
		if s.qhead < len(s.qoffs) {
			start := s.qoffs[s.qhead]
			end := len(s.qbuf)
			if s.qhead+1 < len(s.qoffs) {
				end = s.qoffs[s.qhead+1]
			}
			s.qhead++
			return s.qbuf[start:end], true
		}
		s.qbuf, s.qoffs, s.qhead = s.qbuf[:0], s.qoffs[:0], 0
		t, ok := s.inner.Next()
		if !ok {
			return nil, false
		}
		s.enc = wire.Encode(s.enc[:0], t)
		if err := s.cur.Reset(s.enc); err != nil {
			panic(fmt.Sprintf("ops: source row encoding: %v", err))
		}
		if s.pp.Simple() {
			row, _, keep, err := s.pp.RunOne(s.enc, &s.cur)
			if err != nil {
				panic(fmt.Sprintf("ops: source pipeline: %v", err))
			}
			if keep {
				return row, true
			}
			continue
		}
		if err := s.pp.EachRow(s.enc, &s.cur, s.emitRow); err != nil {
			panic(fmt.Sprintf("ops: source pipeline: %v", err))
		}
	}
}
