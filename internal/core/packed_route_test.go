package core

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"squall/internal/expr"
	"squall/internal/types"
	"squall/internal/wire"
)

// plus1 is a computed key: column c plus one.
func plus1(c int) expr.Expr { return expr.Arith{Op: expr.Add, L: expr.C(c), R: expr.I(1)} }

// computedChainSpec is chainSpec with computed keys on R and T: R.y+1 = S.y
// and S.z = T.z+1, T's key marked skewed so a Hybrid cube randomizes it.
func computedChainSpec(h int64) JoinSpec {
	return JoinSpec{
		Graph: expr.MustJoinGraph(3,
			expr.JoinConjunct{LRel: 0, RRel: 1, Op: expr.Eq, Left: plus1(1), Right: expr.C(0)},
			expr.JoinConjunct{LRel: 1, RRel: 2, Op: expr.Eq, Left: expr.C(1), Right: plus1(0)},
		),
		Names:  []string{"R", "S", "T"},
		Sizes:  []int64{h, h, h},
		Skewed: map[KeySlot]bool{{Rel: 2, Expr: plus1(0).String()}: true},
	}
}

// computedKey reports whether a grouping evaluates any of its keys.
func computedKey(g Grouping) bool {
	for _, ks := range g.(hcGrouping).keys {
		for _, k := range ks {
			if k.Computed() {
				return true
			}
		}
	}
	return false
}

// TestRowTargetsAgreeWithTargets is the routing differential for the
// hypercube schemes: for every scheme kind and relation, with column and
// computed keys, the grouping's RowTargets over the encoded row picks
// exactly the machines the load model Hypercube.Targets picks over the
// tuple — including identical rng consumption on random dimensions, which
// the replicated-pair-meets-once property depends on. Keys are NULL, int
// and integral floats.
func TestRowTargetsAgreeWithTargets(t *testing.T) {
	key := func(rng *rand.Rand) types.Value {
		switch rng.Intn(6) {
		case 0:
			return types.Null()
		case 1:
			return types.Float(float64(rng.Intn(64)))
		default:
			return types.Int(int64(rng.Intn(64)))
		}
	}
	for _, tc := range []struct {
		name string
		spec JoinSpec
	}{{"columns", chainSpec(1000)}, {"computed", computedChainSpec(1000)}} {
		for _, kind := range []SchemeKind{HashHypercube, RandomHypercube, HybridHypercube} {
			hc, err := BuildScheme(kind, tc.spec, 16)
			if err != nil {
				t.Fatalf("%s %v: %v", tc.name, kind, err)
			}
			computed := 0
			for rel := 0; rel < 3; rel++ {
				g := hc.GroupingFor(rel)
				if computedKey(g) {
					computed++
				}
				rngA, rngB := rand.New(rand.NewSource(9)), rand.New(rand.NewSource(9))
				rows := rand.New(rand.NewSource(int64(10 + rel)))
				var cur wire.Cursor
				var enc []byte
				for i := 0; i < 500; i++ {
					tu := types.Tuple{key(rows), key(rows), types.Str(string(rune('a' + rows.Intn(26))))}
					want, err := hc.Targets(rel, tu, rngA, nil)
					if err != nil {
						t.Fatal(err)
					}
					enc = wire.Encode(enc[:0], tu)
					if err := cur.Reset(enc); err != nil {
						t.Fatal(err)
					}
					if got := g.RowTargets(&cur, hc.Machines(), rngB, nil); !slices.Equal(got, want) {
						t.Fatalf("%s %v %s rel %d row %v: RowTargets %v, Targets %v", tc.name, kind, hc, rel, tu, got, want)
					}
				}
			}
			if tc.name == "computed" && kind != RandomHypercube && computed == 0 {
				t.Fatalf("%v %s: no relation hashes a computed key", kind, hc)
			}
		}
	}
}

// TestComputedKeyRoutingNoAlloc: routing a row of a relation whose key is
// computed evaluates the key over the fields it names, with no allocation
// per row — also when the row carries string columns the key never reads.
func TestComputedKeyRoutingNoAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	hc, err := BuildScheme(HashHypercube, computedChainSpec(1000), 16)
	if err != nil {
		t.Fatal(err)
	}
	g := hc.GroupingFor(0)
	if !computedKey(g) {
		t.Fatalf("%s: R's key is not computed", hc)
	}
	rng := rand.New(rand.NewSource(1))
	buf := make([]int, 0, hc.Machines())
	for _, tu := range []types.Tuple{
		{types.Int(7), types.Int(41), types.Float(2.5), types.Null()},
		{types.Int(7), types.Int(41), types.Str("unread one"), types.Str("unread two")},
	} {
		var cur wire.Cursor
		if err := cur.Reset(wire.Encode(nil, tu)); err != nil {
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(1000, func() {
			buf = g.RowTargets(&cur, hc.Machines(), rng, buf[:0])
		}); allocs != 0 {
			t.Fatalf("routing the computed-key row %v allocates %.1f per row, want 0", tu, allocs)
		}
	}
}

// TestComputedKeyRoutingConcurrent: producer tasks route through one
// grouping at once, each with its own rng and cursor, evaluating its
// computed keys concurrently.
// Every routed row must still land where Hypercube.Targets puts it.
func TestComputedKeyRoutingConcurrent(t *testing.T) {
	hc, err := BuildScheme(HybridHypercube, computedChainSpec(1000), 16)
	if err != nil {
		t.Fatal(err)
	}
	for rel := 0; rel < 3; rel++ {
		g := hc.GroupingFor(rel)
		var wg sync.WaitGroup
		for p := 0; p < 4; p++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rngA, rngB := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
				var cur wire.Cursor
				var enc []byte
				for i := 0; i < 2000; i++ {
					tu := types.Tuple{types.Int(int64(i % 64)), types.Int(seed + int64(i%32)), types.Str("p")}
					want, err := hc.Targets(rel, tu, rngA, nil)
					if err != nil {
						t.Error(err)
						return
					}
					enc = wire.Encode(enc[:0], tu)
					if err := cur.Reset(enc); err != nil {
						t.Error(err)
						return
					}
					if got := g.RowTargets(&cur, hc.Machines(), rngB, nil); !slices.Equal(got, want) {
						t.Errorf("rel %d row %v: RowTargets %v, Targets %v", rel, tu, got, want)
						return
					}
				}
			}(int64(p))
		}
		wg.Wait()
	}
}
