package expr

import (
	"fmt"

	"squall/internal/types"
)

// CmpOp enumerates comparison operators.
type CmpOp uint8

// Comparison operators.
const (
	Eq CmpOp = iota
	Ne
	Lt
	Le
	Gt
	Ge
)

// String renders the SQL spelling of the operator.
func (op CmpOp) String() string {
	switch op {
	case Eq:
		return "="
	case Ne:
		return "<>"
	case Lt:
		return "<"
	case Le:
		return "<="
	case Gt:
		return ">"
	case Ge:
		return ">="
	default:
		return fmt.Sprintf("CmpOp(%d)", uint8(op))
	}
}

// Apply evaluates `a op b` under Value.Compare ordering. Comparisons against
// NULL are false (SQL three-valued logic collapsed to boolean, which is what
// Squall's operators need).
func (op CmpOp) Apply(a, b types.Value) bool {
	if a.IsNull() || b.IsNull() {
		return false
	}
	c := a.Compare(b)
	switch op {
	case Eq:
		return c == 0
	case Ne:
		return c != 0
	case Lt:
		return c < 0
	case Le:
		return c <= 0
	case Gt:
		return c > 0
	case Ge:
		return c >= 0
	default:
		return false
	}
}

// Flip returns the operator with sides exchanged: a op b == b op.Flip() a.
func (op CmpOp) Flip() CmpOp {
	switch op {
	case Lt:
		return Gt
	case Le:
		return Ge
	case Gt:
		return Lt
	case Ge:
		return Le
	default: // Eq, Ne are symmetric
		return op
	}
}

// Pred is a boolean predicate over one tuple. The set is closed: every Pred
// lowers to run over an encoded row (CompilePred).
type Pred interface {
	Eval(t types.Tuple) (bool, error)
	String() string
	compile() PackedPred
}

// Cmp compares two scalar expressions.
type Cmp struct {
	Op   CmpOp
	L, R Expr
}

// Eval evaluates both sides and applies the operator.
func (c Cmp) Eval(t types.Tuple) (bool, error) {
	lv, err := c.L.Eval(t)
	if err != nil {
		return false, err
	}
	rv, err := c.R.Eval(t)
	if err != nil {
		return false, err
	}
	return c.Op.Apply(lv, rv), nil
}

func (c Cmp) String() string { return fmt.Sprintf("%s %s %s", c.L, c.Op, c.R) }

// And is a conjunction; the empty conjunction is true.
type And struct{ Preds []Pred }

// Eval short-circuits on the first false conjunct.
func (a And) Eval(t types.Tuple) (bool, error) {
	for _, p := range a.Preds {
		ok, err := p.Eval(t)
		if err != nil {
			return false, err
		}
		if !ok {
			return false, nil
		}
	}
	return true, nil
}

func (a And) String() string {
	if len(a.Preds) == 0 {
		return "TRUE"
	}
	s := a.Preds[0].String()
	for _, p := range a.Preds[1:] {
		s += " AND " + p.String()
	}
	return s
}

// Or is a disjunction; the empty disjunction is false.
type Or struct{ Preds []Pred }

// Eval short-circuits on the first true disjunct.
func (o Or) Eval(t types.Tuple) (bool, error) {
	for _, p := range o.Preds {
		ok, err := p.Eval(t)
		if err != nil {
			return false, err
		}
		if ok {
			return true, nil
		}
	}
	return false, nil
}

func (o Or) String() string {
	if len(o.Preds) == 0 {
		return "FALSE"
	}
	s := "(" + o.Preds[0].String()
	for _, p := range o.Preds[1:] {
		s += " OR " + p.String()
	}
	return s + ")"
}

// Not negates a predicate.
type Not struct{ P Pred }

// Eval negates the inner predicate.
func (n Not) Eval(t types.Tuple) (bool, error) {
	ok, err := n.P.Eval(t)
	return !ok, err
}

func (n Not) String() string { return "NOT (" + n.P.String() + ")" }

// True is the always-true predicate (a no-op selection; Figure 5 uses these
// to isolate evaluation cost).
type True struct{}

// Eval returns true.
func (True) Eval(types.Tuple) (bool, error) { return true, nil }

func (True) String() string { return "TRUE" }
