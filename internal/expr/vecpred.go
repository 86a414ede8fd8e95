package expr

import (
	"bytes"

	"squall/internal/types"
	"squall/internal/vec"
	"squall/internal/wire"
)

// VecPred is a predicate lowered to run over a whole footered frame at once:
// it narrows the selection in to the rows that satisfy the predicate.
//
// m remaps predicate column indexes to frame columns (m[predCol] =
// frameCol; nil is the identity) — how a packed pipeline accounts for
// projections upstream of the predicate without re-materializing rows.
//
// ok=false means this particular frame cannot be vectorized (a referenced
// column has mixed kinds, or the footer lied about an offset): the caller
// then falls back to the row-at-a-time path for the whole frame — semantics
// are identical either way, decided per frame. err mirrors the boxed error
// cases (column index out of range) and is only raised when at least one row
// is selected, matching the boxed evaluator's per-row error exposure.
//
// A compiled VecPred owns internal scratch selections and is not safe for
// concurrent use — same single-task ownership as the pipeline that holds it.
type VecPred func(v *vec.FrameView, m []int, in vec.Sel) (out vec.Sel, ok bool, err error)

// CompileVecPred lowers p to a VecPred. ok is false when p contains a shape
// the vectorizer cannot lower (arithmetic, DATE(), non-scalar operands), and
// the caller keeps the row path (CompilePred).
//
// Lowered comparisons reproduce CmpOp.Apply bit-for-bit: three-way compare
// then CmpHolds (so float NaN yields cmp==0 on both paths), cross-kind
// numeric comparison through float64, kind-ordered otherwise, any NULL
// operand collapsing to false. NOT evaluates as set difference against the
// incoming selection, which is exact because the inner kernel returns
// precisely the boxed true-set.
func CompileVecPred(p Pred) (VecPred, bool) {
	switch q := p.(type) {
	case True:
		return func(_ *vec.FrameView, _ []int, in vec.Sel) (vec.Sel, bool, error) {
			return in, true, nil
		}, true
	case Cmp:
		return compileVecCmp(q)
	case Not:
		inner, ok := CompileVecPred(q.P)
		if !ok {
			return nil, false
		}
		var dst vec.Sel
		return func(v *vec.FrameView, m []int, in vec.Sel) (vec.Sel, bool, error) {
			keep, ok, err := inner(v, m, in)
			if !ok || err != nil {
				return nil, ok, err
			}
			dst = vec.Grow(dst, len(in))
			dst = vec.Diff(in, keep, dst)
			return dst, true, nil
		}, true
	case And:
		return compileVecJunction(q.Preds, true)
	case Or:
		return compileVecJunction(q.Preds, false)
	default:
		return nil, false
	}
}

// compileVecJunction lowers a conjunction (every=true) or disjunction
// (every=false). AND narrows the selection through each child in turn;
// OR evaluates each child only on the rows no earlier child kept — both
// mirror the boxed short-circuit, including which rows can raise errors.
func compileVecJunction(preds []Pred, every bool) (VecPred, bool) {
	compiled := make([]VecPred, 0, len(preds))
	for _, p := range preds {
		c, ok := CompileVecPred(p)
		if !ok {
			return nil, false
		}
		compiled = append(compiled, c)
	}
	if every {
		return func(v *vec.FrameView, m []int, in vec.Sel) (vec.Sel, bool, error) {
			out := in
			for _, c := range compiled {
				var ok bool
				var err error
				out, ok, err = c(v, m, out)
				if !ok || err != nil {
					return nil, ok, err
				}
				if len(out) == 0 {
					return out, true, nil
				}
			}
			return out, true, nil
		}, true
	}
	var res, rem, diff vec.Sel
	return func(v *vec.FrameView, m []int, in vec.Sel) (vec.Sel, bool, error) {
		res = vec.Grow(res, len(in))[:0]
		rem = vec.Grow(rem, len(in))
		rem = append(rem, in...)
		for _, c := range compiled {
			if len(rem) == 0 {
				break
			}
			keep, ok, err := c(v, m, rem)
			if !ok || err != nil {
				return nil, ok, err
			}
			if len(keep) == 0 {
				continue
			}
			// res and keep are disjoint (keep ⊆ rem, rem ∩ res = ∅), so the
			// union is a merge into fresh scratch.
			merged := vec.Or(res, keep, vec.Grow(nil, len(res)+len(keep)))
			res = merged
			diff = vec.Grow(diff, len(rem))
			diff = vec.Diff(rem, keep, diff)
			rem, diff = diff, rem
		}
		return res, true, nil
	}, true
}

// effArity returns the arity predicate columns are resolved against: the
// projected arity when a column map is present, the frame arity otherwise.
func effArity(v *vec.FrameView, m []int) int {
	if m != nil {
		return len(m)
	}
	return v.NCols()
}

// frameCol resolves a predicate column to a frame column through m.
func frameCol(m []int, c int) int {
	if m == nil {
		return c
	}
	return m[c]
}

func compileVecCmp(c Cmp) (VecPred, bool) {
	l, r, op := KeyOf(c.L), KeyOf(c.R), c.Op
	lc, lConst := l.e.(Const)
	rc, rConst := r.e.(Const)
	switch {
	case lConst && rConst:
		res := op.Apply(lc.V, rc.V)
		return func(_ *vec.FrameView, _ []int, in vec.Sel) (vec.Sel, bool, error) {
			if res {
				return in, true, nil
			}
			return nil, true, nil
		}, true
	case !l.Computed() && !r.Computed():
		return compileVecColCol(l.col, op, r.col)
	case lConst && !r.Computed():
		// const OP col  ==  col OP.Flip() const
		return compileVecColConst(r.col, op.Flip(), lc.V)
	case rConst && !l.Computed():
		return compileVecColConst(l.col, op, rc.V)
	default:
		return nil, false
	}
}

// constSel returns the whole selection or none of it — the cross-kind
// comparison whose outcome a uniform kind summary decides frame-wide.
func constSel(keep bool, in vec.Sel) vec.Sel {
	if keep {
		return in
	}
	return nil
}

func compileVecColConst(col Col, op CmpOp, rv types.Value) (VecPred, bool) {
	vk := rv.Kind()
	vNum := vk == types.KindInt || vk == types.KindFloat
	needle := []byte(rv.Str)
	rf, _ := rv.AsFloat()
	var dst vec.Sel
	return func(v *vec.FrameView, m []int, in vec.Sel) (vec.Sel, bool, error) {
		if len(in) == 0 {
			return in, true, nil
		}
		if err := col.Check(effArity(v, m)); err != nil {
			return nil, true, err
		}
		fc := frameCol(m, col.Index)
		ckb := v.KindByte(fc)
		if ckb == wire.KindMixed {
			return nil, false, nil
		}
		ck := types.Kind(ckb)
		if ck == types.KindNull || vk == types.KindNull {
			// Any NULL operand collapses the comparison to false.
			return nil, true, nil
		}
		cNum := ck == types.KindInt || ck == types.KindFloat
		dst = vec.Grow(dst, len(in))
		switch {
		case cNum && vNum:
			if ck == types.KindInt && vk == types.KindInt {
				vals, ok := v.Int64s(fc)
				if !ok {
					return nil, false, nil
				}
				return vec.SelInt64(vals, vec.Op(op), rv.I, in, dst), true, nil
			}
			vals, ok := v.NumsAsFloat64(fc)
			if !ok {
				return nil, false, nil
			}
			return vec.SelFloat64(vals, vec.Op(op), rf, in, dst), true, nil
		case ck != vk:
			// Distinct non-numeric kind classes order by kind, the same for
			// every row of a uniform column.
			return constSel(CmpHolds(op, cmpKinds(ck, vk)), in), true, nil
		default: // both STRING
			var out vec.Sel
			var ok bool
			if op == Eq || op == Ne {
				out, ok = v.SelBytesEq(fc, needle, op == Eq, in, dst)
			} else {
				out, ok = v.SelBytesCmp(fc, vec.Op(op), needle, in, dst)
			}
			if !ok {
				return nil, false, nil
			}
			return out, true, nil
		}
	}, true
}

func compileVecColCol(lc Col, op CmpOp, rc Col) (VecPred, bool) {
	var dst vec.Sel
	return func(v *vec.FrameView, m []int, in vec.Sel) (vec.Sel, bool, error) {
		if len(in) == 0 {
			return in, true, nil
		}
		arity := effArity(v, m)
		if err := lc.Check(arity); err != nil {
			return nil, true, err
		}
		if err := rc.Check(arity); err != nil {
			return nil, true, err
		}
		fl, fr := frameCol(m, lc.Index), frameCol(m, rc.Index)
		lkb, rkb := v.KindByte(fl), v.KindByte(fr)
		if lkb == wire.KindMixed || rkb == wire.KindMixed {
			return nil, false, nil
		}
		lk, rk := types.Kind(lkb), types.Kind(rkb)
		if lk == types.KindNull || rk == types.KindNull {
			return nil, true, nil
		}
		lNum := lk == types.KindInt || lk == types.KindFloat
		rNum := rk == types.KindInt || rk == types.KindFloat
		dst = vec.Grow(dst, len(in))
		switch {
		case lNum && rNum:
			if lk == types.KindInt && rk == types.KindInt {
				a, ok1 := v.Int64s(fl)
				b, ok2 := v.Int64s(fr)
				if !ok1 || !ok2 {
					return nil, false, nil
				}
				return vec.SelInt64Cols(a, b, vec.Op(op), in, dst), true, nil
			}
			a, ok1 := v.NumsAsFloat64(fl)
			b, ok2 := v.NumsAsFloat64(fr)
			if !ok1 || !ok2 {
				return nil, false, nil
			}
			return vec.SelFloat64Cols(a, b, vec.Op(op), in, dst), true, nil
		case lk != rk:
			return constSel(CmpHolds(op, cmpKinds(lk, rk)), in), true, nil
		default: // both STRING
			dst = dst[:len(in)]
			k := 0
			for _, r := range in {
				ab, ok1 := v.StrBytes(fl, r)
				bb, ok2 := v.StrBytes(fr, r)
				if !ok1 || !ok2 {
					return nil, false, nil
				}
				dst[k] = r
				if CmpHolds(op, bytes.Compare(ab, bb)) {
					k++
				}
			}
			return dst[:k], true, nil
		}
	}, true
}

// cmpKinds orders two kinds the way types.Value.Compare does for cross-kind
// operands.
func cmpKinds(a, b types.Kind) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}
