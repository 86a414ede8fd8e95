package localjoin

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"squall/internal/expr"
	"squall/internal/slab"
	"squall/internal/types"
	"squall/internal/wire"
)

// onRowsGraphs covers every first-step probe kind OnRows gathers for: hash
// (2-way equi, 3-way chain), range (band) and scan (Ne-only cross join),
// and computed keys read on each: an equi conjunct, a range first step and
// a filter.
func onRowsGraphs() []struct {
	name string
	g    *expr.JoinGraph
} {
	return []struct {
		name string
		g    *expr.JoinGraph
	}{
		{"2way-equi", expr.MustJoinGraph(2, expr.EquiCol(0, 0, 1, 0))},
		{"3way-chain", chainGraph()},
		{"band", expr.MustJoinGraph(2, expr.ThetaCol(0, 1, expr.Lt, 1, 1))},
		{"cross", expr.MustJoinGraph(2, expr.ThetaCol(0, 1, expr.Ne, 1, 1))},
		{"expr-equi", exprEquiGraph()},
		{"expr-band", exprBandGraph()},
		{"expr-filter", exprFilterGraph()},
	}
}

// TestOnRowsAgreesWithOnRow feeds one stream of frames to two operators,
// one frame at a time through OnRows and one row at a time through OnRow,
// and requires bag-equal deltas per frame and equal stored state, on
// resident arenas and on tiered ones that spill every sealed segment and
// cache one (so the segment-bucketed walk runs). Payloads are NULL one time
// in eight, so computed keys also yield NULL.
func TestOnRowsAgreesWithOnRow(t *testing.T) {
	for _, gc := range onRowsGraphs() {
		for _, tiered := range []bool{false, true} {
			name := gc.name + "/resident"
			if tiered {
				name = gc.name + "/tiered"
			}
			t.Run(name, func(t *testing.T) {
				mk := func(prefix string) *Traditional {
					if !tiered {
						return NewTraditional(gc.g)
					}
					store := &countingStore{blobs: map[string][]byte{}}
					return NewTraditionalTiered(gc.g, slab.TierConfig{SegmentRows: 16, Store: store, CacheSegments: 1, KeyPrefix: prefix})
				}
				byRow, bySet := mk("row"), mk("set")
				rng := rand.New(rand.NewSource(41))
				var cur wire.Cursor
				deltas := 0
				for i, f := 0, 0; i < 500; f++ {
					rel := rng.Intn(gc.g.NumRels)
					n := 1 + rng.Intn(9)
					frame := make([][]byte, n)
					for k := range frame {
						frame[k] = wire.Encode(nil, nullPayloadRow(rng, rel, i, 12))
						i++
					}
					want, got := map[string]int{}, map[string]int{}
					for _, row := range frame {
						if err := cur.Reset(row); err != nil {
							t.Fatal(err)
						}
						if err := byRow.OnRow(rel, row, &cur, bagEmit(want)); err != nil {
							t.Fatal(err)
						}
					}
					if err := bySet.OnRows(rel, frame, bagEmit(got)); err != nil {
						t.Fatal(err)
					}
					if d := bagDiff(want, got); d != "" {
						t.Fatalf("frame %d (rel %d, %d rows): OnRows diverges from OnRow: %s", f, rel, n, d)
					}
					for _, c := range want {
						deltas += c
					}
				}
				if deltas == 0 {
					t.Fatal("no frame produced a delta: the probe paths did not run")
				}
				if tiered && bySet.SpilledBytes() == 0 {
					t.Fatal("setup: nothing spilled, the bucketed walk did not run")
				}
				for rel := 0; rel < gc.g.NumRels; rel++ {
					want, got := map[string]int{}, map[string]int{}
					for _, tu := range frameTuples(t, byRow, rel, 16) {
						want[tu.Key()]++
					}
					for _, tu := range frameTuples(t, bySet, rel, 16) {
						got[tu.Key()]++
					}
					if d := bagDiff(want, got); d != "" {
						t.Fatalf("rel %d stored state diverges: %s", rel, d)
					}
				}
				t.Logf("%d deltas", deltas)
			})
		}
	}
}

// TestOnRowsComputedKeyNullAndError: a computed key that yields NULL
// matches nothing — not even a stored NULL key, though the two hash and
// compare alike — and a key that fails to evaluate fails OnRows with an
// error naming it.
func TestOnRowsComputedKeyNullAndError(t *testing.T) {
	for _, gc := range []struct {
		name string
		g    *expr.JoinGraph
		pay  int64 // an S payload that joins R's payload 5
	}{{"equi", exprEquiGraph(), 5}, {"band", exprBandGraph(), 10}, {"filter", exprFilterGraph(), 10}} {
		t.Run(gc.name, func(t *testing.T) {
			j := NewTraditional(gc.g)
			null := types.Tuple{types.Int(1), types.Null(), types.Int(0)}
			importTuple(t, j, 0, null)
			importTuple(t, j, 0, types.Tuple{types.Int(1), types.Int(5), types.Int(1)})
			frame := [][]byte{
				wire.Encode(nil, types.Tuple{types.Int(1), types.Null(), types.Int(2)}),
				wire.Encode(nil, types.Tuple{types.Int(1), types.Int(gc.pay), types.Int(3)}),
			}
			var got []types.Tuple
			if err := j.OnRows(1, frame, func(r []byte) error {
				d, _, err := wire.Decode(r)
				got = append(got, d)
				return err
			}); err != nil {
				t.Fatal(err)
			}
			for _, d := range got {
				if d[1].IsNull() || d[4].IsNull() {
					t.Fatalf("a NULL key matched: %v", d)
				}
			}
			if len(got) != 1 || got[0][1].I != 5 || got[0][4].I != gc.pay {
				t.Fatalf("deltas %v, want the one pair of payloads 5 and %d", got, gc.pay)
			}
		})
	}
	// key + 1 over a string key is not numeric.
	g := expr.MustJoinGraph(2, expr.JoinConjunct{LRel: 0, RRel: 1, Op: expr.Eq,
		Left: expr.Arith{Op: expr.Add, L: expr.C(0), R: expr.I(1)}, Right: expr.C(0)})
	j := NewTraditional(g)
	importTuple(t, j, 1, types.Tuple{types.Int(2)})
	err := j.OnRows(0, [][]byte{wire.Encode(nil, types.Tuple{types.Str("a")})}, func([]byte) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "($0 + 1)") {
		t.Fatalf("OnRows on an unevaluable key returned %v, want an error naming the key", err)
	}
	var cur wire.Cursor
	row := wire.Encode(nil, types.Tuple{types.Str("a")})
	if err := cur.Reset(row); err != nil {
		t.Fatal(err)
	}
	if err := j.ImportRow(0, row, &cur); err == nil {
		t.Fatal("ImportRow stored a row whose key does not evaluate")
	}
}

// bagEmit decodes every emitted row into bag.
func bagEmit(bag map[string]int) func([]byte) error {
	return func(out []byte) error {
		tu, _, err := wire.Decode(out)
		if err != nil {
			return err
		}
		bag[tu.Key()]++
		return nil
	}
}

// bagDiff describes the first difference between two bags, "" when equal.
func bagDiff(want, got map[string]int) string {
	for k, n := range want {
		if got[k] != n {
			return fmt.Sprintf("%q: want %d, got %d", k, n, got[k])
		}
	}
	for k, n := range got {
		if want[k] != n {
			return fmt.Sprintf("%q: want %d, got %d", k, want[k], n)
		}
	}
	return ""
}

// TestPlanNeverProbesArrivalRelation pins the invariant OnRows' deferred
// inserts rest on: no step of plan[rel] assigns rel, so a frame's arrivals
// never probe their own relation's arena, and every other relation is
// assigned exactly once.
func TestPlanNeverProbesArrivalRelation(t *testing.T) {
	graphs := []*expr.JoinGraph{
		chainGraph(),
		expr.MustJoinGraph(3, expr.EquiCol(0, 0, 1, 0), expr.EquiCol(1, 1, 2, 0), expr.ThetaCol(0, 1, expr.Lt, 2, 1)),
		expr.MustJoinGraph(4, expr.EquiCol(0, 0, 1, 0), expr.EquiCol(0, 0, 2, 0), expr.EquiCol(0, 0, 3, 0)),
		expr.MustJoinGraph(3, expr.EquiCol(0, 0, 1, 0)), // relation 2 is a cross product
	}
	for _, gc := range onRowsGraphs() {
		graphs = append(graphs, gc.g)
	}
	for gi, g := range graphs {
		j := NewTraditional(g)
		for rel, steps := range j.plan {
			if len(steps) != g.NumRels-1 {
				t.Fatalf("graph %d rel %d: %d steps, want %d", gi, rel, len(steps), g.NumRels-1)
			}
			seen := uint64(1) << uint(rel)
			for si, st := range steps {
				if st.next == rel {
					t.Fatalf("graph %d: step %d of plan[%d] probes the arrival's own relation", gi, si, rel)
				}
				if seen&(1<<uint(st.next)) != 0 {
					t.Fatalf("graph %d: plan[%d] assigns relation %d twice", gi, rel, st.next)
				}
				seen |= 1 << uint(st.next)
			}
		}
	}
}

// TestOnRowsFaultsEachSegmentOnce: with every sealed segment spilled and a
// one-segment cache, a frame of arrivals that all match rows spread over
// every spilled segment fetches each segment at most once. Row by row, the
// same frame faults every segment once per arrival.
func TestOnRowsFaultsEachSegmentOnce(t *testing.T) {
	const segRows, segs, arrivals = 64, 6, 8
	g := expr.MustJoinGraph(2, expr.EquiCol(0, 0, 1, 0))
	load := func(prefix string) (*Traditional, *countingStore) {
		store := &countingStore{blobs: map[string][]byte{}}
		j := NewTraditionalTiered(g, slab.TierConfig{SegmentRows: segRows, Store: store, CacheSegments: 1, KeyPrefix: prefix})
		var cur wire.Cursor
		for i := 0; i < segRows*segs; i++ {
			// Keys 7 and 8 twice per segment, distinct keys elsewhere.
			key := int64(1000 + i)
			switch i % segRows {
			case 3, 40:
				key = 7
			case 20, 50:
				key = 8
			}
			row := wire.Encode(nil, types.Tuple{types.Int(key), types.Int(int64(i))})
			if err := cur.Reset(row); err != nil {
				t.Fatal(err)
			}
			if err := j.OnRow(0, row, &cur, func([]byte) error { return nil }); err != nil {
				t.Fatal(err)
			}
		}
		if j.stores[0].arena.TierStats().SpilledSegments != segs {
			t.Fatalf("setup: %d of %d segments spilled", j.stores[0].arena.TierStats().SpilledSegments, segs)
		}
		store.gets, store.byKey = 0, map[string]int{}
		return j, store
	}
	frame := make([][]byte, arrivals)
	for i := range frame {
		frame[i] = wire.Encode(nil, types.Tuple{types.Int(int64(7 + i%2)), types.Int(int64(-i))})
	}
	const want = arrivals * 2 * segs

	set, setStore := load("set")
	matches := 0
	if err := set.OnRows(1, frame, func([]byte) error { matches++; return nil }); err != nil {
		t.Fatal(err)
	}
	if matches != want {
		t.Fatalf("OnRows matched %d, want %d", matches, want)
	}
	for key, n := range setStore.byKey {
		if n > 1 {
			t.Fatalf("one OnRows call fetched segment %s %d times", key, n)
		}
	}
	if setStore.gets > segs {
		t.Fatalf("one OnRows call made %d fetches for %d spilled segments", setStore.gets, segs)
	}

	row, rowStore := load("row")
	matches = 0
	var cur wire.Cursor
	for _, r := range frame {
		if err := cur.Reset(r); err != nil {
			t.Fatal(err)
		}
		if err := row.OnRow(1, r, &cur, func([]byte) error { matches++; return nil }); err != nil {
			t.Fatal(err)
		}
	}
	if matches != want {
		t.Fatalf("OnRow matched %d, want %d", matches, want)
	}
	t.Logf("fetches for one %d-row frame over %d spilled segments: OnRows %d, OnRow row by row %d", arrivals, segs, setStore.gets, rowStore.gets)
	if rowStore.gets <= setStore.gets {
		t.Fatalf("row-by-row delivery fetched %d times, OnRows %d: the test no longer separates them", rowStore.gets, setStore.gets)
	}
}
