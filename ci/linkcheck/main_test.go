package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"strings"
	"testing"
)

// The key a declaration gets and the key its linked symbol maps to must be
// the same for every receiver shape, or a linked function reads as unlinked.
func TestDeclAndSymbolKeysAgree(t *testing.T) {
	src := `package a
func F() {}
func (t *T) P() {}
func (t T) V() {}
func (s *S[K]) G() {}
func (p Pair[K, V]) H() {}
func Gen[E any]() {}
`
	fset := token.NewFileSet()
	af, err := parser.ParseFile(fset, "a.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		sym, key, recv string
		generic        bool
	}{
		{"m/a.F", "m/a.F", "", false},
		{"m/a.(*T).P", "m/a.T.P", "T", false},
		{"m/a.T.V", "m/a.T.V", "T", false},
		{"m/a.(*S[go.shape.int]).G", "m/a.S.G", "S", true},
		{"m/a.Pair[go.shape.string,go.shape.struct { a []int }].H", "m/a.Pair.H", "Pair", true},
		{"m/a.Gen[go.shape.*uint8]", "m/a.Gen", "", true},
	}
	for i, d := range af.Decls {
		c := cases[i]
		key, recv, generic := declKey("m/a", d.(*ast.FuncDecl))
		if key != c.key || recv != c.recv || generic != c.generic {
			t.Errorf("declKey #%d = %q, %q, %v; want %q, %q, %v", i, key, recv, generic, c.key, c.recv, c.generic)
		}
		if got, ok := symKey(c.sym); !ok || got != c.key {
			t.Errorf("symKey(%q) = %q, %v; want %q", c.sym, got, ok, c.key)
		}
	}
	if got, ok := symKey("squall.(*Engine).Subscribe"); !ok || got != "squall.Engine.Subscribe" {
		t.Errorf("root package method: %q, %v", got, ok)
	}
}

// A closure, a go or defer wrapper, a method value or a runtime helper is no
// declared function: it maps to no key.
func TestSymbolsOtherThanFunctionsIgnored(t *testing.T) {
	for _, sym := range []string{
		"m/a.F.func1", "m/a.(*T).P.func2", "m/a.F.func1.1", "m/a.F.gowrap1", "m/a.F.deferwrap3",
		"m/a.T.V-fm", "m/a.init.0", "m/a..dict.Gen[int]", "go:buildid",
	} {
		if key, ok := symKey(sym); ok {
			t.Errorf("symKey(%q) = %q, want none", sym, key)
		}
	}
}

func testModule() *module {
	return &module{
		funcs:   map[string]int{"m/a.F": 3, "m/a.G": 2, "m/a.T.nodeTag": 1, "m/b.H": 4, "squall.Engine.Subscribe": 5},
		ifaces:  map[string]bool{"m/a.Node": true},
		tests:   map[string]bool{"TestH": true},
		roadmap: "### 3. Open item\n### 18. Closed item — done (PR 51)\n",
	}
}

func TestAllowlist(t *testing.T) {
	linked := map[string]bool{"m/a.G": true, "squall.Engine.Subscribe": true}
	cases := []struct {
		name, allow string
		want        []string // substrings of the errors, in order
	}{
		{"every citation kind", "m/a.F item: 3\nm/a.T.nodeTag\tmarker: Node # comment\nm/b  oracle:TestH", nil},
		{"api", "m/a.F api: Engine.Subscribe\nm/a.T.nodeTag marker: Node\nm/b.H oracle: TestH", nil},
		{"unlisted function", "m/a.F item: 3\nm/b item: 3", []string{"m/a.T.nodeTag is linked by no binary"}},
		{"missing citation", "m/a.F\nm/a.T.nodeTag marker: Node\nm/b item: 3", []string{"allow.txt:1: m/a.F: missing citation"}},
		{"unknown kind", "m/a.F why: because\nm/a.T.nodeTag marker: Node\nm/b item: 3", []string{"allow.txt:1: m/a.F: missing citation"}},
		{"item with no heading", "m/a.F item: 9\nm/a.T.nodeTag marker: Node\nm/b item: 3", []string{"allow.txt:1: m/a.F: ROADMAP.md has no open item headed ### 9."}},
		{"done item", "m/a.F item: 18\nm/a.T.nodeTag marker: Node\nm/b item: 3", []string{"allow.txt:1: m/a.F: ROADMAP.md has no open item headed ### 18."}},
		{"unknown test", "m/a.F oracle: TestNone\nm/a.T.nodeTag marker: Node\nm/b item: 3", []string{"allow.txt:1: m/a.F: no oracle named TestNone"}},
		{"unknown interface", "m/a.F item: 3\nm/a.T.nodeTag marker: Expr\nm/b item: 3", []string{"allow.txt:2: m/a.T.nodeTag: no marker named Expr"}},
		{"stale linked entry", "m/a.F item: 3\nm/a.G item: 3\nm/a.T.nodeTag marker: Node\nm/b item: 3", []string{"allow.txt:2: m/a.G: stale entry: linked"}},
		{"stale missing entry", "m/a.F item: 3\nm/a.Gone item: 3\nm/a.T.nodeTag marker: Node\nm/b item: 3", []string{"allow.txt:2: m/a.Gone: stale entry: no such function"}},
		{"stale package entry", "m/a item: 3\nm/b item: 3", []string{"allow.txt:1: m/a: stale entry: linked"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			errs := testModule().check(c.allow, linked, io.Discard)
			if len(errs) != len(c.want) {
				t.Fatalf("errors %q, want %d", errs, len(c.want))
			}
			for i, e := range errs {
				if !strings.Contains(e, c.want[i]) {
					t.Errorf("error %q, want it to contain %q", e, c.want[i])
				}
			}
		})
	}
}
