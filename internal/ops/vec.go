// Group-wise aggregation over footered frames (PR 6). The engine hands
// bolts rows, so these kernels serve the benchmark's frame replay, which
// measures them against the row path. FoldFrame declines, touching no
// state, whenever a referenced column defeats the kernels, and the caller
// folds the frame row by row instead.
package ops

import (
	"fmt"

	"squall/internal/types"
	"squall/internal/vec"
)

// FoldFrame folds the selected rows of a footered frame into the group
// table: splice and validate every group key first, resolve all keys to
// accumulator slots in one hashing pass, then bump the accumulators in a
// tight loop with the SUM column gathered as a float64 slice. Callers must
// have checked PackedCapable.
//
// handled=false means this frame cannot fold vectorized (mixed-kind or
// string SUM column, or a footer inconsistency) and — critically — that no
// accumulator was touched, so the caller can re-fold the whole frame row by
// row without double counting.
func (a *Agg) FoldFrame(view *vec.FrameView, sel vec.Sel) (handled bool, err error) {
	if len(sel) == 0 {
		return true, nil
	}
	var sums []float64
	if a.sumCol >= 0 {
		if a.sumCol >= view.NCols() {
			return true, fmt.Errorf("expr: column %d out of range for arity %d", a.sumCol, view.NCols())
		}
		switch types.Kind(view.KindByte(a.sumCol)) {
		case types.KindInt, types.KindFloat:
			var ok bool
			sums, ok = view.NumsAsFloat64(a.sumCol)
			if !ok {
				return false, nil
			}
		case types.KindNull:
			// A NULL sum operand contributes 0 on the row path too.
		default:
			// Strings may parse numerically row by row; mixed kinds are
			// unknowable frame-wide. The row path decides.
			return false, nil
		}
	} else if a.Kind != Count {
		return true, fmt.Errorf("ops: %s needs a sum expression", a.Kind)
	}
	return a.foldFrameSlots(view, sel, sums)
}

// foldFrameSlots is FoldFrame's core: each selected row counts once and
// adds its sum from sums (nil = 0 each), indexed by frame row. The
// key-splice pass runs to completion before any state mutates, preserving
// the handled=false contract.
func (a *Agg) foldFrameSlots(view *vec.FrameView, sel vec.Sel, sums []float64) (bool, error) {
	nc := view.NCols()
	for _, c := range a.groupCols {
		if c < 0 || c >= nc {
			return true, fmt.Errorf("expr: column %d out of range for arity %d", c, nc)
		}
	}
	a.keyBuf = a.keyBuf[:0]
	a.keyEnds = a.keyEnds[:0]
	for _, r := range sel {
		var ok bool
		a.keyBuf, ok = view.AppendRow(a.keyBuf, a.groupCols, r)
		if !ok {
			return false, nil
		}
		a.keyEnds = append(a.keyEnds, int32(len(a.keyBuf)))
	}
	if cap(a.slots) < len(sel) {
		a.slots = make([]int32, len(sel))
	}
	slots := a.slots[:len(sel)]
	start := int32(0)
	for k := range sel {
		end := a.keyEnds[k]
		slots[k] = int32(a.slotFor(a.keyBuf[start:end]))
		start = end
	}
	if sums == nil {
		for _, s := range slots {
			a.states[s].cnt++
		}
		return true, nil
	}
	for k, s := range slots {
		st := &a.states[s]
		st.cnt++
		st.sum += sums[sel[k]]
	}
	return true, nil
}
