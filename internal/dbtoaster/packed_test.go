package dbtoaster

import (
	"math/rand"
	"testing"

	"squall/internal/expr"
	"squall/internal/types"
	"squall/internal/wire"
)

// TestTupleJoinOnRowAgreesWithOnTuple is the packed differential for the
// view-materializing operator: identical streams through OnTuple and OnRow
// must produce bag-identical delta rows and interchangeable view states.
func TestTupleJoinOnRowAgreesWithOnTuple(t *testing.T) {
	cases := []struct {
		name  string
		rels  int
		theta bool
	}{
		{"2way-equi", 2, false},
		{"3way-chain", 3, false},
		{"3way-theta", 3, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var conj []expr.JoinConjunct
			for rel := 0; rel+1 < c.rels; rel++ {
				conj = append(conj, expr.EquiCol(rel, 0, rel+1, 0))
			}
			if c.theta {
				conj = append(conj, expr.ThetaCol(0, 1, expr.Lt, 1, 1))
			}
			g := expr.MustJoinGraph(c.rels, conj...)
			// The view operator itself, also on the 2-way graph the
			// constructors route to the base-relation core (rule_test.go).
			boxed := newTupleJoin(g)
			packed := newTupleJoin(g)
			if !packed.PackedCapable() {
				t.Fatal("compact TupleJoin must be packed-capable")
			}

			rng := rand.New(rand.NewSource(31))
			var cur wire.Cursor
			var row []byte
			for i := 0; i < 400; i++ {
				rel := rng.Intn(c.rels)
				tu := types.Tuple{
					types.Int(int64(rng.Intn(8))),
					types.Int(int64(rng.Intn(40))),
					types.Int(int64(rel*1_000_000 + i)),
				}
				wantBag := map[string]int{}
				deltas, err := boxed.OnTuple(rel, tu)
				if err != nil {
					t.Fatal(err)
				}
				for _, d := range deltas {
					wantBag[d.Concat().Key()]++
				}
				row = wire.Encode(row[:0], tu)
				if err := cur.Reset(row); err != nil {
					t.Fatal(err)
				}
				gotBag := map[string]int{}
				err = packed.OnRow(rel, row, &cur, func(out []byte) error {
					got, _, err := wire.Decode(out)
					if err != nil {
						return err
					}
					gotBag[got.Key()]++
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				if len(gotBag) != len(wantBag) {
					t.Fatalf("arrival %d: packed %v, boxed %v", i, gotBag, wantBag)
				}
				for k, n := range wantBag {
					if gotBag[k] != n {
						t.Fatalf("arrival %d: delta %q packed %d, boxed %d", i, k, gotBag[k], n)
					}
				}
			}
			wantSizes := boxed.ViewSizes()
			for mask, n := range packed.ViewSizes() {
				if wantSizes[mask] != n {
					t.Fatalf("view %b: packed %d combos, boxed %d", mask, n, wantSizes[mask])
				}
			}
		})
	}
}
