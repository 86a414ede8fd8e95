package types

import (
	"math/rand"
	"testing"
)

func tup(vals ...int64) Tuple {
	t := make(Tuple, len(vals))
	for i, v := range vals {
		t[i] = Int(v)
	}
	return t
}

func TestTupleCloneIsIndependent(t *testing.T) {
	a := tup(1, 2, 3)
	b := a.Clone()
	b[0] = Int(99)
	if a[0].I != 1 {
		t.Error("Clone shares backing array")
	}
}

func TestTupleKeyUnambiguous(t *testing.T) {
	// ("ab","c") must not collide with ("a","bc").
	a := Tuple{Str("ab"), Str("c")}
	b := Tuple{Str("a"), Str("bc")}
	if a.Key() == b.Key() {
		t.Error("Key is ambiguous across field boundaries")
	}
	// Int 1 must not collide with Str "1".
	c := Tuple{Int(1)}
	d := Tuple{Str("1")}
	if c.Key() == d.Key() {
		t.Error("Key conflates kinds")
	}
}

func TestTupleKeySubsetColumns(t *testing.T) {
	a := tup(1, 2, 3)
	b := tup(9, 2, 3)
	if a.Key(1, 2) != b.Key(1, 2) {
		t.Error("Key over same column values must match")
	}
	if a.Key(0) == b.Key(0) {
		t.Error("Key over differing columns must differ")
	}
}

func TestTupleHashSubset(t *testing.T) {
	a := tup(1, 2, 3)
	b := tup(7, 2, 3)
	if a.Hash(1, 2) != b.Hash(1, 2) {
		t.Error("Hash over equal projections must agree")
	}
	if a.Hash() == b.Hash() {
		t.Error("full-tuple hashes should differ")
	}
}

func TestTupleCompareLexicographic(t *testing.T) {
	if tup(1, 2).Compare(tup(1, 3)) >= 0 {
		t.Error("(1,2) < (1,3)")
	}
	if tup(1).Compare(tup(1, 0)) >= 0 {
		t.Error("shorter tuple sorts first")
	}
	if tup(2).Compare(tup(1, 9)) <= 0 {
		t.Error("(2) > (1,9)")
	}
}

func TestSchemaColLookup(t *testing.T) {
	s := NewSchema("orders",
		Column{Name: "orderkey", Kind: KindInt},
		Column{Name: "custkey", Kind: KindInt},
		Column{Name: "orderdate", Kind: KindString},
	)
	if i, ok := s.Col("custkey"); !ok || i != 1 {
		t.Errorf("Col(custkey) = %d,%v", i, ok)
	}
	if i, ok := s.Col("ORDERS.ORDERDATE"); !ok || i != 2 {
		t.Errorf("qualified lookup = %d,%v", i, ok)
	}
	if _, ok := s.Col("nope"); ok {
		t.Error("missing column should not resolve")
	}
	if s.Arity() != 3 {
		t.Errorf("Arity = %d", s.Arity())
	}
}

func TestParseLineTPCHStyle(t *testing.T) {
	s := NewSchema("o",
		Column{Name: "k", Kind: KindInt},
		Column{Name: "price", Kind: KindFloat},
		Column{Name: "date", Kind: KindString},
	)
	tu, err := ParseLine(s, "15|3.25|1996-01-02|", '|')
	if err != nil {
		t.Fatal(err)
	}
	want := Tuple{Int(15), Float(3.25), Str("1996-01-02")}
	if tu.Compare(want) != 0 {
		t.Errorf("ParseLine = %v, want %v", tu, want)
	}
}

func TestParseLineErrors(t *testing.T) {
	s := NewSchema("o", Column{Name: "k", Kind: KindInt}, Column{Name: "j", Kind: KindInt})
	if _, err := ParseLine(s, "1", '|'); err == nil {
		t.Error("short line must error")
	}
	if _, err := ParseLine(s, "1|x", '|'); err == nil {
		t.Error("non-numeric int field must error")
	}
}

func TestFormatParseRoundTrip(t *testing.T) {
	s := NewSchema("o",
		Column{Name: "a", Kind: KindInt},
		Column{Name: "b", Kind: KindString},
		Column{Name: "c", Kind: KindFloat},
	)
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		orig := Tuple{Int(r.Int63n(1000)), Str("w" + string(rune('a'+r.Intn(26)))), Float(float64(r.Int63n(100)) / 4)}
		line := FormatLine(orig, '|')
		back, err := ParseLine(s, line, '|')
		if err != nil {
			t.Fatalf("round trip parse: %v", err)
		}
		if back.Compare(orig) != 0 {
			t.Fatalf("round trip %v -> %q -> %v", orig, line, back)
		}
	}
}
