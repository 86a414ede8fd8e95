package expr

import (
	"fmt"
	"math/rand"
	"testing"

	"squall/internal/types"
	"squall/internal/wire"
)

// randValue draws from a pool dense enough to make every comparison branch
// (equal, ordered, cross-kind, null) reachable.
func randValue(rng *rand.Rand) types.Value {
	switch rng.Intn(7) {
	case 0:
		return types.Null()
	case 1, 2:
		return types.Int(int64(rng.Intn(5) - 2))
	case 3:
		return types.Float(float64(rng.Intn(5)-2) / 2)
	case 4:
		return types.Float(float64(rng.Intn(3))) // integral float
	default:
		return types.Str(string(rune('a' + rng.Intn(3))))
	}
}

// randDate draws a DATE() operand: a valid date, an invalid one, a day
// number or NULL.
func randDate(rng *rand.Rand) types.Value {
	switch rng.Intn(5) {
	case 0:
		return types.Null()
	case 1: // malformed: DATE() fails with time.Parse's error on both paths
		return types.Str([]string{"1995-02-30", "1995-3-15", "", "abcd-ef-gh", "1995-13-01", "1995-00-10"}[rng.Intn(6)])
	case 2:
		return types.Int(int64(9000 + rng.Intn(3)))
	default:
		return types.Str([]string{"1995-03-14", " 1995-03-15", " 1995-03-15 ", "1995-03-16", "2000-02-29"}[rng.Intn(5)])
	}
}

// randExpr draws a scalar expression over a 4-column row whose column 3
// holds DATE() operands: column refs, constants, arithmetic (division by a
// zero included) and DATE() nested up to depth levels.
func randExpr(rng *rand.Rand, depth int) Expr {
	k := rng.Intn(6)
	if depth == 0 {
		k %= 2
	}
	switch k {
	case 0:
		return C(rng.Intn(5)) // column 4 is out of range
	case 1:
		return Const{V: randValue(rng)}
	case 2:
		return Date{Inner: C(3)}
	default:
		ops := []ArithOp{Add, Sub, Mul, Div}
		return Arith{Op: ops[rng.Intn(len(ops))], L: randExpr(rng, depth-1), R: randExpr(rng, depth-1)}
	}
}

// sameOutcome fails unless two evaluations agree: the same error text, or
// values of one kind that compare equal.
func sameOutcome(t *testing.T, what string, want, got types.Value, werr, gerr error) {
	t.Helper()
	if (werr == nil) != (gerr == nil) || werr != nil && werr.Error() != gerr.Error() {
		t.Fatalf("%s: err %v vs %v", what, werr, gerr)
	}
	if werr == nil && (want.Kind() != got.Kind() || want.Compare(got) != 0) {
		t.Fatalf("%s: row %v, boxed %v", what, got, want)
	}
}

// TestEvalRowAgreesWithEval: every expression shape evaluated over the
// encoded row yields the value and the error Eval yields over the tuple —
// NULL propagation, int/float promotion, division by zero, DATE parse
// errors and column range errors alike.
func TestEvalRowAgreesWithEval(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var cur wire.Cursor
	for trial := 0; trial < 3000; trial++ {
		tu := types.Tuple{randValue(rng), randValue(rng), randValue(rng), randDate(rng)}
		if err := cur.Reset(wire.Encode(nil, tu)); err != nil {
			t.Fatal(err)
		}
		e := randExpr(rng, 3)
		want, werr := e.Eval(tu)
		got, gerr := e.EvalRow(&cur)
		sameOutcome(t, fmt.Sprintf("%s on %v", e, tu), want, got, werr, gerr)
		k := KeyOf(e)
		got, gerr = k.Value(&cur)
		sameOutcome(t, fmt.Sprintf("key %s on %v", k, tu), want, got, werr, gerr)
		h, null, herr := k.Hash(&cur)
		if (herr == nil) != (werr == nil) || werr == nil && (h != want.Hash() || null != want.IsNull()) {
			t.Fatalf("key %s on %v: hash %x null %v err %v, want %x %v %v", k, tu, h, null, herr, want.Hash(), want.IsNull(), werr)
		}
	}
}

// TestCompilePredAgreesWithEval is the packed-lowering differential: every
// predicate shape — comparisons over columns, constants, arithmetic and
// DATE(), under the boolean connectives — must agree with the boxed Eval on
// rows covering all kind combinations, NULLs and the error cases.
func TestCompilePredAgreesWithEval(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ops := []CmpOp{Eq, Ne, Lt, Le, Gt, Ge}
	var cur wire.Cursor
	for trial := 0; trial < 2000; trial++ {
		tu := types.Tuple{randValue(rng), randValue(rng), randValue(rng), randDate(rng)}
		row := wire.Encode(nil, tu)
		if err := cur.Reset(row); err != nil {
			t.Fatal(err)
		}
		op := ops[rng.Intn(len(ops))]
		var preds []Pred
		preds = append(preds,
			Cmp{Op: op, L: C(rng.Intn(3)), R: C(rng.Intn(3))},
			Cmp{Op: op, L: C(rng.Intn(3)), R: Const{V: randValue(rng)}},
			Cmp{Op: op, L: Const{V: randValue(rng)}, R: C(rng.Intn(3))},
			Cmp{Op: op, L: Const{V: randValue(rng)}, R: Const{V: randValue(rng)}},
			Cmp{Op: op, L: randExpr(rng, 2), R: randExpr(rng, 2)},
			Cmp{Op: op, L: Date{Inner: C(3)}, R: Date{Inner: S("1995-03-15")}},
			Cmp{Op: op, L: C(rng.Intn(3)), R: Arith{Op: Add, L: C(rng.Intn(3)), R: I(1)}},
		)
		preds = append(preds,
			And{Preds: []Pred{preds[0], preds[4]}},
			Or{Preds: []Pred{preds[1], preds[5]}},
			Not{P: preds[6]},
			And{},
			Or{},
			True{},
		)
		for _, p := range preds {
			want, werr := p.Eval(tu)
			got, gerr := CompilePred(p)(&cur)
			if (werr == nil) != (gerr == nil) || werr != nil && werr.Error() != gerr.Error() {
				t.Fatalf("%s on %v: err %v vs %v", p, tu, werr, gerr)
			}
			if werr == nil && got != want {
				t.Fatalf("%s on %v: packed %v, boxed %v", p, tu, got, want)
			}
		}
	}
}

func TestCompilePredColOutOfRange(t *testing.T) {
	tu := types.Tuple{types.Int(1)}
	var cur wire.Cursor
	if err := cur.Reset(wire.Encode(nil, tu)); err != nil {
		t.Fatal(err)
	}
	p := Cmp{Op: Eq, L: C(5), R: I(1)}
	if _, err := CompilePred(p)(&cur); err == nil {
		t.Fatal("want out-of-range error, got nil")
	}
}

// TestCompilePredComputedOperands: the shapes the row path once decoded the
// whole row for — arithmetic and DATE() operands — run over the encoded
// row and read only the fields they name: a row carrying two string
// columns the predicate never reads costs no allocation.
func TestCompilePredComputedOperands(t *testing.T) {
	tu := types.Tuple{types.Int(3), types.Str("unread one"), types.Int(9000), types.Str("unread two")}
	var cur wire.Cursor
	if err := cur.Reset(wire.Encode(nil, tu)); err != nil {
		t.Fatal(err)
	}
	for _, p := range []Pred{
		Cmp{Op: Eq, L: Arith{Op: Add, L: C(0), R: I(1)}, R: I(4)},
		Cmp{Op: Lt, L: Date{Inner: C(2)}, R: Date{Inner: S("1995-03-15")}},
		And{Preds: []Pred{True{}, Cmp{Op: Ge, L: Arith{Op: Mul, L: C(0), R: F(2.5)}, R: C(0)}}},
	} {
		pp := CompilePred(p)
		if ok, err := pp(&cur); err != nil || !ok {
			t.Fatalf("%s on %v = %v, %v; want true", p, tu, ok, err)
		}
		if raceEnabled {
			continue
		}
		if allocs := testing.AllocsPerRun(200, func() { pp(&cur) }); allocs != 0 {
			t.Fatalf("%s allocates %.1f per row, want 0", p, allocs)
		}
	}
}

// TestCompilePredDateNoAlloc: DATE() over a string column parses the
// field where it lies in the encoded row instead of copying it out, so a
// date selection allocates nothing per row.
func TestCompilePredDateNoAlloc(t *testing.T) {
	p := Cmp{Op: Ge, L: Date{Inner: C(0)}, R: Date{Inner: S("1995-03-15")}}
	pp := CompilePred(p)
	var cur wire.Cursor
	for _, date := range []string{"1995-03-16", " 1995-03-15 ", "2000-02-29"} {
		if err := cur.Reset(wire.Encode(nil, types.Tuple{types.Str(date), types.Int(1)})); err != nil {
			t.Fatal(err)
		}
		if ok, err := pp(&cur); err != nil || !ok {
			t.Fatalf("%s on %q = %v, %v; want true", p, date, ok, err)
		}
		if raceEnabled {
			continue
		}
		if allocs := testing.AllocsPerRun(200, func() { pp(&cur) }); allocs != 0 {
			t.Fatalf("%s on %q allocates %.1f per row, want 0", p, date, allocs)
		}
	}
}

func TestProjectionCols(t *testing.T) {
	cols, ok := ProjectionCols([]Expr{C(2), CN(0, "k"), C(1)})
	if !ok || len(cols) != 3 || cols[0] != 2 || cols[1] != 0 || cols[2] != 1 {
		t.Fatalf("ProjectionCols = %v, %v", cols, ok)
	}
	if _, ok := ProjectionCols([]Expr{C(0), I(1)}); ok {
		t.Fatal("constant projection lowered to columns")
	}
}
