// Package expr provides scalar expressions and predicates over tuples, plus
// the join-condition representation shared by local join algorithms and
// partitioning schemes.
package expr

import (
	"fmt"
	"strings"
	"time"

	"squall/internal/types"
)

// Expr is a scalar expression evaluated against one tuple.
type Expr interface {
	Eval(t types.Tuple) (types.Value, error)
	String() string
}

// Col references a column by position. Name is carried for display only.
type Col struct {
	Index int
	Name  string
}

// Eval returns the column's value.
func (c Col) Eval(t types.Tuple) (types.Value, error) {
	if c.Index < 0 || c.Index >= len(t) {
		return types.Null(), fmt.Errorf("expr: column %d (%s) out of range for arity %d", c.Index, c.Name, len(t))
	}
	return t[c.Index], nil
}

func (c Col) String() string {
	if c.Name != "" {
		return c.Name
	}
	return fmt.Sprintf("$%d", c.Index)
}

// Const is a literal value.
type Const struct{ V types.Value }

// Eval returns the literal.
func (c Const) Eval(types.Tuple) (types.Value, error) { return c.V, nil }

func (c Const) String() string { return c.V.String() }

// ArithOp enumerates binary arithmetic operators.
type ArithOp byte

// Arithmetic operators.
const (
	Add ArithOp = '+'
	Sub ArithOp = '-'
	Mul ArithOp = '*'
	Div ArithOp = '/'
)

// Arith is a binary arithmetic expression. Integer inputs stay integral
// except for division, which promotes to float (SQL AVG-style semantics are
// handled by the aggregation operators, not here).
type Arith struct {
	Op   ArithOp
	L, R Expr
}

// Eval applies the operator; any NULL input yields NULL.
func (a Arith) Eval(t types.Tuple) (types.Value, error) {
	lv, err := a.L.Eval(t)
	if err != nil {
		return types.Null(), err
	}
	rv, err := a.R.Eval(t)
	if err != nil {
		return types.Null(), err
	}
	if lv.IsNull() || rv.IsNull() {
		return types.Null(), nil
	}
	if lv.Kind() == types.KindInt && rv.Kind() == types.KindInt && a.Op != Div {
		switch a.Op {
		case Add:
			return types.Int(lv.I + rv.I), nil
		case Sub:
			return types.Int(lv.I - rv.I), nil
		case Mul:
			return types.Int(lv.I * rv.I), nil
		}
	}
	lf, ok := lv.AsFloat()
	if !ok {
		return types.Null(), fmt.Errorf("expr: %v is not numeric", lv)
	}
	rf, ok := rv.AsFloat()
	if !ok {
		return types.Null(), fmt.Errorf("expr: %v is not numeric", rv)
	}
	switch a.Op {
	case Add:
		return types.Float(lf + rf), nil
	case Sub:
		return types.Float(lf - rf), nil
	case Mul:
		return types.Float(lf * rf), nil
	case Div:
		if rf == 0 {
			return types.Null(), fmt.Errorf("expr: division by zero")
		}
		return types.Float(lf / rf), nil
	default:
		return types.Null(), fmt.Errorf("expr: unknown arithmetic op %q", a.Op)
	}
}

func (a Arith) String() string {
	return fmt.Sprintf("(%s %c %s)", a.L, a.Op, a.R)
}

// dateEpoch anchors DATE() conversion; the concrete anchor is irrelevant as
// long as ordering is preserved.
var dateEpoch = time.Date(1970, 1, 1, 0, 0, 0, 0, time.UTC)

// Date parses its (string) input as a YYYY-MM-DD date and yields the day
// number since 1970-01-01 as an INT. Parsing happens on every evaluation,
// reproducing the cost profile the paper measures in Figure 5 (a selection
// over a date field costs ~10x a selection over an int field, because a Date
// instance is created from the input string each time).
type Date struct{ Inner Expr }

// Eval parses the inner string value into a day number.
func (d Date) Eval(t types.Tuple) (types.Value, error) {
	v, err := d.Inner.Eval(t)
	if err != nil {
		return types.Null(), err
	}
	if v.IsNull() {
		return types.Null(), nil
	}
	if v.Kind() == types.KindInt { // already a day number
		return v, nil
	}
	tm, err := time.Parse("2006-01-02", strings.TrimSpace(v.AsString()))
	if err != nil {
		return types.Null(), fmt.Errorf("expr: DATE(%q): %w", v.AsString(), err)
	}
	return types.Int(int64(tm.Sub(dateEpoch) / (24 * time.Hour))), nil
}

func (d Date) String() string { return fmt.Sprintf("DATE(%s)", d.Inner) }

// C is shorthand for a column reference.
func C(i int) Col { return Col{Index: i} }

// CN is shorthand for a named column reference.
func CN(i int, name string) Col { return Col{Index: i, Name: name} }

// I is shorthand for an integer literal.
func I(v int64) Const { return Const{V: types.Int(v)} }

// F is shorthand for a float literal.
func F(v float64) Const { return Const{V: types.Float(v)} }

// S is shorthand for a string literal.
func S(v string) Const { return Const{V: types.Str(v)} }
