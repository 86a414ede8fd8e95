package expr

import (
	"strings"
	"testing"

	"squall/internal/types"
)

func row(vals ...types.Value) types.Tuple { return types.Tuple(vals) }

func mustEval(t *testing.T, e Expr, tu types.Tuple) types.Value {
	t.Helper()
	v, err := e.Eval(tu)
	if err != nil {
		t.Fatalf("%s: %v", e, err)
	}
	return v
}

func TestColEval(t *testing.T) {
	tu := row(types.Int(10), types.Str("x"))
	if v := mustEval(t, C(1), tu); v.Str != "x" {
		t.Errorf("C(1) = %v", v)
	}
	if _, err := C(5).Eval(tu); err == nil {
		t.Error("out-of-range column must error")
	}
}

func TestArithIntAndFloat(t *testing.T) {
	tu := row(types.Int(6), types.Int(4), types.Float(1.5))
	cases := []struct {
		e    Expr
		want types.Value
	}{
		{Arith{Add, C(0), C(1)}, types.Int(10)},
		{Arith{Sub, C(0), C(1)}, types.Int(2)},
		{Arith{Mul, C(0), C(1)}, types.Int(24)},
		{Arith{Div, C(0), C(1)}, types.Float(1.5)},
		{Arith{Add, C(0), C(2)}, types.Float(7.5)},
		{Arith{Mul, I(2), C(2)}, types.Float(3.0)},
	}
	for _, c := range cases {
		got := mustEval(t, c.e, tu)
		if !got.Equal(c.want) {
			t.Errorf("%s = %v, want %v", c.e, got, c.want)
		}
	}
}

func TestArithErrors(t *testing.T) {
	tu := row(types.Str("abc"), types.Int(0))
	if _, err := (Arith{Add, C(0), C(1)}).Eval(tu); err == nil {
		t.Error("non-numeric arithmetic must error")
	}
	if _, err := (Arith{Div, I(1), C(1)}).Eval(tu); err == nil {
		t.Error("division by zero must error")
	}
}

func TestArithNullPropagates(t *testing.T) {
	tu := row(types.Null(), types.Int(1))
	v, err := Arith{Add, C(0), C(1)}.Eval(tu)
	if err != nil || !v.IsNull() {
		t.Errorf("NULL + 1 = %v, %v", v, err)
	}
}

func TestDateParsesAndOrders(t *testing.T) {
	d1 := mustEval(t, Date{C(0)}, row(types.Str("1996-01-02")))
	d2 := mustEval(t, Date{C(0)}, row(types.Str("1996-01-03")))
	if d1.Kind() != types.KindInt || d2.I != d1.I+1 {
		t.Errorf("DATE day numbers: %v then %v", d1, d2)
	}
	epoch := mustEval(t, Date{C(0)}, row(types.Str("1970-01-01")))
	if epoch.I != 0 {
		t.Errorf("epoch day = %v", epoch)
	}
}

func TestDatePassthroughAndErrors(t *testing.T) {
	if v := mustEval(t, Date{C(0)}, row(types.Int(9000))); v.I != 9000 {
		t.Errorf("int date passthrough = %v", v)
	}
	if _, err := (Date{C(0)}).Eval(row(types.Str("not-a-date"))); err == nil {
		t.Error("bad date must error")
	}
	if v, err := (Date{C(0)}).Eval(row(types.Null())); err != nil || !v.IsNull() {
		t.Error("DATE(NULL) is NULL")
	}
}

func TestCmpOpApply(t *testing.T) {
	a, b := types.Int(1), types.Int(2)
	checks := []struct {
		op   CmpOp
		want bool
	}{
		{Eq, false}, {Ne, true}, {Lt, true}, {Le, true}, {Gt, false}, {Ge, false},
	}
	for _, c := range checks {
		if got := c.op.Apply(a, b); got != c.want {
			t.Errorf("1 %s 2 = %v", c.op, got)
		}
	}
	if Eq.Apply(types.Null(), types.Null()) {
		t.Error("NULL = NULL must be false (SQL semantics)")
	}
}

func TestCmpOpFlipConsistency(t *testing.T) {
	vals := []types.Value{types.Int(1), types.Int(2), types.Int(2)}
	ops := []CmpOp{Eq, Ne, Lt, Le, Gt, Ge}
	for _, op := range ops {
		for _, a := range vals {
			for _, b := range vals {
				if op.Apply(a, b) != op.Flip().Apply(b, a) {
					t.Errorf("flip inconsistent: %v %s %v", a, op, b)
				}
			}
		}
	}
}

func TestPredicateCombinators(t *testing.T) {
	tu := row(types.Int(5))
	lt10 := Cmp{Lt, C(0), I(10)}
	gt7 := Cmp{Gt, C(0), I(7)}
	if ok, _ := (And{[]Pred{lt10, gt7}}).Eval(tu); ok {
		t.Error("5<10 AND 5>7 must be false")
	}
	if ok, _ := (Or{[]Pred{lt10, gt7}}).Eval(tu); !ok {
		t.Error("5<10 OR 5>7 must be true")
	}
	if ok, _ := (Not{gt7}).Eval(tu); !ok {
		t.Error("NOT 5>7 must be true")
	}
	if ok, _ := (And{}).Eval(tu); !ok {
		t.Error("empty AND is true")
	}
	if ok, _ := (Or{}).Eval(tu); ok {
		t.Error("empty OR is false")
	}
	if ok, _ := (True{}).Eval(tu); !ok {
		t.Error("True is true")
	}
}

func TestPredicateStrings(t *testing.T) {
	p := And{[]Pred{Cmp{Gt, CN(0, "s.c"), I(3)}, Cmp{Eq, CN(1, "s.d"), S("x")}}}
	s := p.String()
	if !strings.Contains(s, "s.c > 3") || !strings.Contains(s, "AND") {
		t.Errorf("String = %q", s)
	}
}
