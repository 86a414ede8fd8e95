package expr

import (
	"squall/internal/types"
	"squall/internal/wire"
)

// PackedPred is a predicate lowered to run directly over one wire-encoded
// row: column refs became offset reads on the cursor, and computed operands
// are evaluated over the fields they name, so no types.Tuple is
// materialized.
type PackedPred func(cur *wire.Cursor) (bool, error)

// CompilePred lowers p to a PackedPred. Every predicate lowers: a lowered
// comparison reads its operands as Keys and reproduces CmpOp.Apply exactly —
// types.Value.Compare ordering (cross-kind numeric comparison included) with
// any NULL operand collapsing to false — and fails exactly where p.Eval
// fails. Constant operands fold at compile time.
func CompilePred(p Pred) PackedPred { return p.compile() }

func (True) compile() PackedPred { return predConst(true) }

func (n Not) compile() PackedPred {
	inner := n.P.compile()
	return func(cur *wire.Cursor) (bool, error) {
		v, err := inner(cur)
		return !v, err
	}
}

func (a And) compile() PackedPred { return compileJunction(a.Preds, true) }

func (o Or) compile() PackedPred { return compileJunction(o.Preds, false) }

func predConst(v bool) PackedPred {
	return func(*wire.Cursor) (bool, error) { return v, nil }
}

// compileJunction lowers a conjunction (every=true) or disjunction
// (every=false) with short-circuiting.
func compileJunction(preds []Pred, every bool) PackedPred {
	compiled := make([]PackedPred, len(preds))
	for i, p := range preds {
		compiled[i] = p.compile()
	}
	return func(cur *wire.Cursor) (bool, error) {
		for _, c := range compiled {
			v, err := c(cur)
			if err != nil {
				return false, err
			}
			if v != every {
				return !every, nil
			}
		}
		return every, nil
	}
}

func (c Cmp) compile() PackedPred {
	l, r, op := KeyOf(c.L), KeyOf(c.R), c.Op
	lc, lok := l.e.(Const)
	rc, rok := r.e.(Const)
	if lok && rok {
		return predConst(op.Apply(lc.V, rc.V))
	}
	return func(cur *wire.Cursor) (bool, error) {
		cmp, anyNull, err := CompareKeys(cur, l, cur, r)
		return err == nil && !anyNull && CmpHolds(op, cmp), err
	}
}

// Key is one key as the encoded row path reads it — a join conjunct side,
// a routing key, a comparison operand: a column read in place off the
// field bytes, or a computed expression evaluated over the fields it
// names. Either way it hashes as types.Value.Hash (wire.Cursor.ValueHash
// on a column) and orders as types.Value.Compare, so column and computed
// keys share one routing space and one state index.
type Key struct {
	col Col
	e   Expr // nil for a column key
}

// KeyOf resolves e to the way the row path reads it. An expression that
// evaluates over the empty tuple names no column: it folds to a constant.
func KeyOf(e Expr) Key {
	if c, ok := e.(Col); ok {
		return Key{col: c}
	}
	if v, err := e.Eval(nil); err == nil {
		return Key{e: Const{V: v}}
	}
	return Key{e: e}
}

// Computed reports whether the key is evaluated rather than read in place.
func (k Key) Computed() bool { return k.e != nil }

func (k Key) String() string {
	if k.e != nil {
		return k.e.String()
	}
	return k.col.String()
}

// Value reads the key's value off cur.
func (k Key) Value(cur *wire.Cursor) (types.Value, error) {
	if k.e != nil {
		return k.e.EvalRow(cur)
	}
	return k.col.EvalRow(cur)
}

// Hash returns the key's types.Value.Hash on cur and whether the key is
// NULL there; a column key hashes its field bytes in place.
func (k Key) Hash(cur *wire.Cursor) (h uint64, null bool, err error) {
	if k.e != nil {
		v, err := k.e.EvalRow(cur)
		return v.Hash(), v.IsNull(), err
	}
	if err := k.col.Check(cur.Arity()); err != nil {
		return 0, false, err
	}
	return cur.ValueHash(k.col.Index), cur.Kind(k.col.Index) == types.KindNull, nil
}

// CompareKeys orders key a on acur against key b on bcur under
// types.Value.Compare; anyNull reports a NULL operand (see
// wire.Cursor.CompareValue). A column side compares in place and only a
// computed side is evaluated; errors surface in operand order, as Cmp.Eval
// raises them.
func CompareKeys(acur *wire.Cursor, a Key, bcur *wire.Cursor, b Key) (cmp int, anyNull bool, err error) {
	switch {
	case a.e == nil && b.e == nil:
		if err := a.col.Check(acur.Arity()); err != nil {
			return 0, false, err
		}
		if err := b.col.Check(bcur.Arity()); err != nil {
			return 0, false, err
		}
		cmp, anyNull = wire.CompareFields(acur, a.col.Index, bcur, b.col.Index)
		return cmp, anyNull, nil
	case a.e == nil:
		if err := a.col.Check(acur.Arity()); err != nil {
			return 0, false, err
		}
		bv, err := b.e.EvalRow(bcur)
		if err != nil {
			return 0, false, err
		}
		cmp, anyNull = acur.CompareValue(a.col.Index, bv)
		return cmp, anyNull, nil
	}
	av, err := a.e.EvalRow(acur)
	if err != nil {
		return 0, false, err
	}
	if b.e == nil {
		if err := b.col.Check(bcur.Arity()); err != nil {
			return 0, false, err
		}
		cmp, anyNull = bcur.CompareValue(b.col.Index, av)
		return -cmp, anyNull, nil
	}
	bv, err := b.e.EvalRow(bcur)
	if err != nil {
		return 0, false, err
	}
	return av.Compare(bv), av.IsNull() || bv.IsNull(), nil
}

// CmpHolds interprets a three-way comparison result under op, matching
// CmpOp.Apply once NULLs have been excluded — the shared primitive of every
// packed comparison (lowered predicates here, join-conjunct filters in
// localjoin).
func CmpHolds(op CmpOp, cmp int) bool {
	switch op {
	case Eq:
		return cmp == 0
	case Ne:
		return cmp != 0
	case Lt:
		return cmp < 0
	case Le:
		return cmp <= 0
	case Gt:
		return cmp > 0
	case Ge:
		return cmp >= 0
	default:
		return false
	}
}

// ProjectionCols reports the column indexes of a projection whose every
// expression is a plain column ref — the shape the packed pipeline lowers
// to byte splicing.
func ProjectionCols(es []Expr) ([]int, bool) {
	cols := make([]int, len(es))
	for i, e := range es {
		c, ok := e.(Col)
		if !ok {
			return nil, false
		}
		cols[i] = c.Index
	}
	return cols, true
}

// ColIndex reports e's column index when it is a plain column ref.
func ColIndex(e Expr) (int, bool) {
	c, ok := e.(Col)
	if !ok {
		return 0, false
	}
	return c.Index, true
}
