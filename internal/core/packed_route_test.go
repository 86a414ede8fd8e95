package core

import (
	"math/rand"
	"testing"

	"squall/internal/types"
	"squall/internal/wire"
)

// TestRowTargetsAgreeWithTargets is the packed-routing differential for the
// hypercube schemes: for every scheme kind and relation, RowTargets on the
// encoded row must pick exactly the machines Targets picks on the tuple —
// including identical rng consumption on random dimensions, which the
// replicated-pair-meets-once property depends on.
func TestRowTargetsAgreeWithTargets(t *testing.T) {
	spec := chainSpec(1000)
	for _, kind := range []SchemeKind{HashHypercube, RandomHypercube, HybridHypercube} {
		hc, err := BuildScheme(kind, spec, 16)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		for rel := 0; rel < 3; rel++ {
			g := hc.GroupingFor(rel)
			// The engine's dataflow.RowGrouping face.
			rg, ok := g.(interface {
				RowTargets(*wire.Cursor, int, *rand.Rand, []int) []int
			})
			if !ok {
				t.Fatalf("%v rel %d: column-ref scheme must be row-capable", kind, rel)
			}
			// Identical seeds: random dims must draw the same coordinates.
			rngA := rand.New(rand.NewSource(9))
			rngB := rand.New(rand.NewSource(9))
			rows := rand.New(rand.NewSource(10))
			var cur wire.Cursor
			var enc []byte
			for i := 0; i < 500; i++ {
				tu := types.Tuple{
					types.Int(int64(rows.Intn(64))),
					types.Int(int64(rows.Intn(64))),
					types.Str(string(rune('a' + rows.Intn(26)))),
				}
				want := g.Targets(tu, hc.Machines(), rngA, nil)
				enc = wire.Encode(enc[:0], tu)
				if err := cur.Reset(enc); err != nil {
					t.Fatal(err)
				}
				got := rg.RowTargets(&cur, hc.Machines(), rngB, nil)
				if len(got) != len(want) {
					t.Fatalf("%v rel %d row %v: packed %v, boxed %v", kind, rel, tu, got, want)
				}
				for k := range got {
					if got[k] != want[k] {
						t.Fatalf("%v rel %d row %v: packed %v, boxed %v", kind, rel, tu, got, want)
					}
				}
			}
		}
	}
}
