package types

import (
	"fmt"
	"math/rand"
	"strconv"
	"testing"
)

var testSchema = NewSchema("t",
	Column{Name: "k", Kind: KindInt},
	Column{Name: "x", Kind: KindFloat},
	Column{Name: "s", Kind: KindString},
)

func TestParseLineFastPathRoundTrip(t *testing.T) {
	cases := []Tuple{
		{Int(0), Float(0), Str("x")},
		{Int(-42), Float(1234.56), Str("BUILDING")},
		{Int(123456789), Float(-0.25), Str("1996-01-02")},
	}
	for _, orig := range cases {
		line := FormatLine(orig, '|')
		got, err := ParseLine(testSchema, line, '|')
		if err != nil {
			t.Fatalf("ParseLine(%q): %v", line, err)
		}
		if got.Compare(orig) != 0 {
			t.Errorf("round trip %v -> %q -> %v", orig, line, got)
		}
		// The .tbl trailing-separator convention parses identically.
		got2, err := ParseLine(testSchema, line+"|", '|')
		if err != nil || got2.Compare(orig) != 0 {
			t.Errorf("trailing separator: %v (%v)", got2, err)
		}
	}
}

func TestParseLineFastPathErrors(t *testing.T) {
	if _, err := ParseLine(testSchema, "1|2.5", '|'); err == nil {
		t.Error("short line must fail")
	}
	if _, err := ParseLine(testSchema, "abc|2.5|x", '|'); err == nil {
		t.Error("bad int must fail")
	}
	if _, err := ParseLine(testSchema, "1|nope|x", '|'); err == nil {
		t.Error("bad float must fail")
	}
	// Extra fields are ignored, as before.
	got, err := ParseLine(testSchema, "1|2.5|x|extra|fields", '|')
	if err != nil || len(got) != 3 {
		t.Errorf("extra fields: %v (%v)", got, err)
	}
}

// The fast int/float paths must agree bit-for-bit with strconv on everything
// they accept; inputs they reject must still parse via the fallback.
func TestFastParseMatchesStrconv(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	intSchema := NewSchema("i", Column{Name: "v", Kind: KindInt})
	floatSchema := NewSchema("f", Column{Name: "v", Kind: KindFloat})
	for i := 0; i < 5000; i++ {
		n := rng.Int63n(1_000_000_000_000) - 500_000_000_000
		line := strconv.FormatInt(n, 10)
		got, err := ParseLine(intSchema, line, '|')
		if err != nil || got[0].I != n {
			t.Fatalf("int %q -> %v (%v)", line, got, err)
		}
		f := float64(rng.Int63n(1_000_000_000)) / 100
		if rng.Intn(2) == 0 {
			f = -f
		}
		line = strconv.FormatFloat(f, 'g', -1, 64)
		want, _ := strconv.ParseFloat(line, 64)
		gotF, err := ParseLine(floatSchema, line, '|')
		if err != nil || gotF[0].F != want {
			t.Fatalf("float %q -> %v, want %v (%v)", line, gotF, want, err)
		}
	}
	// Fallback-only forms still parse.
	for _, line := range []string{"1e3", "0.000000000000000000001", "9999999999999999999999", "+5", "  7"} {
		got, err := ParseLine(floatSchema, line, '|')
		want, werr := strconv.ParseFloat(line, 64)
		if (err == nil) != (werr == nil) {
			t.Errorf("%q: err=%v strconv err=%v", line, err, werr)
			continue
		}
		if err == nil && got[0].F != want {
			t.Errorf("%q -> %v, want %v", line, got[0].F, want)
		}
	}
}

func BenchmarkParseLine(b *testing.B) {
	line := fmt.Sprintf("%d|%d|1996-01-02|%d|%g", 123456, 789, 3, 4999.99)
	schema := NewSchema("orders",
		Column{Name: "orderkey", Kind: KindInt},
		Column{Name: "custkey", Kind: KindInt},
		Column{Name: "orderdate", Kind: KindString},
		Column{Name: "pri", Kind: KindInt},
		Column{Name: "total", Kind: KindFloat},
	)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ParseLine(schema, line, '|'); err != nil {
			b.Fatal(err)
		}
	}
}
