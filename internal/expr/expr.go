// Package expr provides scalar expressions and predicates over tuples, plus
// the join-condition representation shared by local join algorithms and
// partitioning schemes.
package expr

import (
	"bytes"
	"fmt"
	"strings"
	"time"

	"squall/internal/types"
	"squall/internal/wire"
)

// Expr is a scalar expression. Eval evaluates it against a tuple, EvalRow
// against one wire-encoded row, reading only the fields it names; both
// share each operator's semantics, so they agree on every value and error.
type Expr interface {
	Eval(t types.Tuple) (types.Value, error)
	EvalRow(cur *wire.Cursor) (types.Value, error)
	String() string
}

// Col references a column by position. Name is carried for display only.
type Col struct {
	Index int
	Name  string
}

// Check reports the column's range error against a row of the given
// arity: the one range check of every path, boxed, row and frame.
func (c Col) Check(arity int) error {
	if c.Index < 0 || c.Index >= arity {
		return fmt.Errorf("expr: column %d (%s) out of range for arity %d", c.Index, c, arity)
	}
	return nil
}

// Eval returns the column's value.
func (c Col) Eval(t types.Tuple) (types.Value, error) {
	if err := c.Check(len(t)); err != nil {
		return types.Null(), err
	}
	return t[c.Index], nil
}

// EvalRow materializes the column's field (a string is copied out).
func (c Col) EvalRow(cur *wire.Cursor) (types.Value, error) {
	if err := c.Check(cur.Arity()); err != nil {
		return types.Null(), err
	}
	return cur.Value(c.Index), nil
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

// EvalRow returns the literal.
func (c Const) EvalRow(*wire.Cursor) (types.Value, error) { return c.V, nil }

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
	return a.apply(lv, rv)
}

// EvalRow applies the operator to its operands read off the row.
func (a Arith) EvalRow(cur *wire.Cursor) (types.Value, error) {
	lv, err := a.L.EvalRow(cur)
	if err != nil {
		return types.Null(), err
	}
	rv, err := a.R.EvalRow(cur)
	if err != nil {
		return types.Null(), err
	}
	return a.apply(lv, rv)
}

// apply is the operator's semantics over evaluated operands. Errors name
// the expression.
func (a Arith) apply(lv, rv types.Value) (types.Value, error) {
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
		return types.Null(), fmt.Errorf("expr: %s: %v is not numeric", a, lv)
	}
	rf, ok := rv.AsFloat()
	if !ok {
		return types.Null(), fmt.Errorf("expr: %s: %v is not numeric", a, rv)
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
			return types.Null(), fmt.Errorf("expr: %s: division by zero", a)
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
	return d.apply(v)
}

// EvalRow parses the inner value read off the row. A string column in
// YYYY-MM-DD form is parsed in place, without copying the field out; any
// other field takes apply's path, so every error reads as Eval's.
func (d Date) EvalRow(cur *wire.Cursor) (types.Value, error) {
	if c, ok := d.Inner.(Col); ok && c.Check(cur.Arity()) == nil {
		if b, ok := cur.Bytes(c.Index); ok {
			if day, ok := parseDay(bytes.TrimSpace(b)); ok {
				return types.Int(day), nil
			}
		}
	}
	v, err := d.Inner.EvalRow(cur)
	if err != nil {
		return types.Null(), err
	}
	return d.apply(v)
}

// apply converts an evaluated inner value to a day number.
func (d Date) apply(v types.Value) (types.Value, error) {
	if v.IsNull() {
		return types.Null(), nil
	}
	if v.Kind() == types.KindInt { // already a day number
		return v, nil
	}
	tm, err := time.Parse("2006-01-02", strings.TrimSpace(v.AsString()))
	if err != nil {
		return types.Null(), fmt.Errorf("expr: %s of %q: %w", d, v.AsString(), err)
	}
	return types.Int(int64(tm.Sub(dateEpoch) / (24 * time.Hour))), nil
}

func (d Date) String() string { return fmt.Sprintf("DATE(%s)", d.Inner) }

// parseDay reads a valid YYYY-MM-DD date as apply's day number; ok=false
// for anything time.Parse might reject.
func parseDay(b []byte) (int64, bool) {
	if len(b) != 10 || b[4] != '-' || b[7] != '-' {
		return 0, false
	}
	var n [3]int // year, month, day
	for i, f := range [3][]byte{b[:4], b[5:7], b[8:]} {
		for _, c := range f {
			if c < '0' || c > '9' {
				return 0, false
			}
			n[i] = n[i]*10 + int(c-'0')
		}
	}
	tm := time.Date(n[0], time.Month(n[1]), n[2], 0, 0, 0, 0, time.UTC)
	if n[1] < 1 || n[1] > 12 || n[2] < 1 || tm.Day() != n[2] { // out of range
		return 0, false
	}
	return int64(tm.Sub(dateEpoch) / (24 * time.Hour)), true
}

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
