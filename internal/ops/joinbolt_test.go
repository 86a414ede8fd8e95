package ops

import (
	"fmt"
	"math/rand"
	"testing"

	"squall/internal/expr"
	"squall/internal/recovery"
	"squall/internal/slab"
	"squall/internal/types"
	"squall/internal/wire"
)

// feedJoin drives one arrival through the bolt's operator (OnRow) and adds
// its delta rows to bag.
func feedJoin(t *testing.T, b *joinBolt, rel int, tu types.Tuple, bag map[string]int) {
	t.Helper()
	row := wire.Encode(nil, tu)
	var cur wire.Cursor
	if err := cur.Reset(row); err != nil {
		t.Fatal(err)
	}
	err := b.mj.OnRow(rel, row, &cur, func(out []byte) error {
		d, _, err := wire.Decode(out)
		bag[d.Key()]++
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestJoinBoltImportRowRoundTrip moves a joiner's state the way migration
// and restore do — every side exported as frames, walked row by row into a
// fresh bolt's ImportRow — and then feeds both bolts the same arrivals:
// their delta bags must be equal. The table crosses the two operators with
// column and computed join keys (a computed key is evaluated as ImportRow
// indexes the row) and with resident and tiered arenas (tiered state spills
// every sealed segment, so the export faults rows back in).
func TestJoinBoltImportRowRoundTrip(t *testing.T) {
	computed := func(e expr.Expr) expr.Expr { return expr.Arith{Op: expr.Add, L: e, R: expr.I(0)} }
	chain := func(key func(expr.Expr) expr.Expr) *expr.JoinGraph {
		return expr.MustJoinGraph(3,
			expr.JoinConjunct{LRel: 0, RRel: 1, Op: expr.Eq, Left: key(expr.C(1)), Right: key(expr.C(0))},
			expr.JoinConjunct{LRel: 1, RRel: 2, Op: expr.Eq, Left: key(expr.C(1)), Right: key(expr.C(0))})
	}
	plain := func(e expr.Expr) expr.Expr { return e }
	relOf := map[string]int{"R": 0, "S": 1, "T": 2}
	for _, policy := range []struct {
		name  string
		views bool
	}{{"Traditional", false}, {"DBToaster", true}} { // on a 3-relation chain DBToaster is the Views policy
		for _, keys := range []struct {
			name string
			key  func(expr.Expr) expr.Expr
		}{{"plain", plain}, {"computed", computed}} {
			for _, tiered := range []bool{false, true} {
				name := fmt.Sprintf("%s/%s/tiered=%v", policy.name, keys.name, tiered)
				t.Run(name, func(t *testing.T) {
					var tc *slab.TierConfig
					if tiered {
						tc = &slab.TierConfig{SegmentRows: 16, Store: recovery.NewMemStore(), KeyPrefix: "rt"}
					}
					mk := JoinBolt(chain(keys.key), policy.views, relOf, nil, tc)
					boltOf := func() *joinBolt {
						b, ok := mk(0, 1).(*joinBolt)
						if !ok {
							t.Fatalf("JoinBolt built %T", mk(0, 1))
						}
						return b
					}
					src, dst := boltOf(), boltOf()
					rng := rand.New(rand.NewSource(7))
					arrival := func(i int) (int, types.Tuple) {
						rel := rng.Intn(3)
						return rel, types.Tuple{types.Int(int64(rng.Intn(6))), types.Int(int64(rng.Intn(6))), types.Int(int64(i))}
					}
					for i := 0; i < 120; i++ {
						rel, tu := arrival(i)
						feedJoin(t, src, rel, tu, map[string]int{})
					}
					var cur wire.Cursor
					for rel := 0; rel < 3; rel++ {
						var err error
						src.ExportStateFrames(rel, 7, func(frame []byte, _ int) bool {
							_, _, err = wire.EachRow(frame, &cur, func(row []byte) error {
								return dst.ImportRow(rel, row, &cur)
							})
							return err == nil
						})
						if err != nil {
							t.Fatalf("rel %d import: %v", rel, err)
						}
						if s, d := src.StoredCount(rel), dst.StoredCount(rel); s != d || s == 0 {
							t.Fatalf("rel %d: stored %d, imported %d", rel, s, d)
						}
					}
					if tiered && src.SpilledBytes() == 0 {
						t.Fatal("tiered source spilled nothing: the export never faulted rows in")
					}
					srcBag, dstBag := map[string]int{}, map[string]int{}
					for i := 120; i < 240; i++ {
						rel, tu := arrival(i)
						feedJoin(t, src, rel, tu, srcBag)
						feedJoin(t, dst, rel, tu, dstBag)
					}
					if len(srcBag) == 0 {
						t.Fatal("arrivals after the import produced no deltas")
					}
					if len(srcBag) != len(dstBag) {
						t.Fatalf("imported bolt emits %d distinct deltas, source %d", len(dstBag), len(srcBag))
					}
					for k, n := range srcBag {
						if dstBag[k] != n {
							t.Fatalf("delta %q: source %d, imported %d", k, n, dstBag[k])
						}
					}
				})
			}
		}
	}
}
