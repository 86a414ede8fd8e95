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
// a filter. The 3-way graphs also run under the Views policy, where a
// first step may probe a combo view by hash, by range or by scan.
func onRowsGraphs() []struct {
	name     string
	g        *expr.JoinGraph
	arrivals int
} {
	return []struct {
		name     string
		g        *expr.JoinGraph
		arrivals int
	}{
		{"2way-equi", expr.MustJoinGraph(2, expr.EquiCol(0, 0, 1, 0)), 500},
		{"3way-chain", chainGraph(), 500},
		{"band", expr.MustJoinGraph(2, expr.ThetaCol(0, 1, expr.Lt, 1, 1)), 500},
		{"cross", expr.MustJoinGraph(2, expr.ThetaCol(0, 1, expr.Ne, 1, 1)), 500},
		{"expr-equi", exprEquiGraph(), 500},
		{"expr-band", exprBandGraph(), 500},
		{"expr-filter", exprFilterGraph(), 500},
		{"3way-band", band3Graph(), 500},
		{"3way-cross", cross3Graph(), 150},
		{"3way-expr", computedChainGraph(), 500},
	}
}

// policy is one index policy of the core, resident and tiered.
type policy struct {
	name   string
	mk     func(*expr.JoinGraph) *Traditional
	tiered func(*expr.JoinGraph, slab.TierConfig) *Traditional
}

// policiesFor lists the index policies worth running on g: both on an
// n-way graph, Traditional alone on a 2-way one, whose Views policy keeps
// the same base views and nothing else.
func policiesFor(g *expr.JoinGraph) []policy {
	ps := []policy{{"traditional", NewTraditional, NewTraditionalTiered}}
	if g.NumRels > 2 {
		ps = append(ps, policy{"views", NewViews, NewViewsTiered})
	}
	return ps
}

// testName names a (graph, policy, layout) case; the Traditional policy
// keeps the bare graph name.
func testName(graph string, p policy, layout string) string {
	if p.name == "traditional" {
		return graph + "/" + layout
	}
	return graph + "/" + p.name + "/" + layout
}

// TestOnRowsAgreesWithOnRow feeds one stream of frames to two operators,
// one frame at a time through OnRows and one row at a time through OnRow,
// and requires bag-equal deltas per frame and equal stored state (and
// views), on resident arenas and on tiered ones that spill every sealed
// segment and cache one (so the segment-bucketed walk runs), under each
// index policy. Payloads are NULL one time in eight, so computed keys also
// yield NULL.
func TestOnRowsAgreesWithOnRow(t *testing.T) {
	for _, gc := range onRowsGraphs() {
		for _, p := range policiesFor(gc.g) {
			for _, tiered := range []bool{false, true} {
				layout := "resident"
				if tiered {
					layout = "tiered"
				}
				t.Run(testName(gc.name, p, layout), func(t *testing.T) { onRowsAgree(t, gc.g, gc.arrivals, p, tiered) })
			}
		}
	}
}

func onRowsAgree(t *testing.T, g *expr.JoinGraph, arrivals int, p policy, tiered bool) {
	mk := func(prefix string) *Traditional {
		if !tiered {
			return p.mk(g)
		}
		store := &countingStore{blobs: map[string][]byte{}}
		return p.tiered(g, slab.TierConfig{SegmentRows: 16, Store: store, CacheSegments: 1, KeyPrefix: prefix})
	}
	byRow, bySet := mk("row"), mk("set")
	rng := rand.New(rand.NewSource(41))
	var cur wire.Cursor
	deltas := 0
	for i, f := 0, 0; i < arrivals; f++ {
		rel := rng.Intn(g.NumRels)
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
	for rel := 0; rel < g.NumRels; rel++ {
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
	rowViews, setViews := byRow.ViewSizes(), bySet.ViewSizes()
	for mask, n := range rowViews {
		if setViews[mask] != n {
			t.Fatalf("view %b: OnRows left %d ordinals, OnRow %d", mask, setViews[mask], n)
		}
	}
	t.Logf("%d deltas", deltas)
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
// inserts rest on: no step of plan[rel] reads a view containing rel, so a
// frame's arrivals never probe their own relation's rows, and every other
// relation is assigned exactly once. Under the Views policy the same holds
// for maint[rel], whose steps assign the rest of each combo view containing
// rel, and every such view is extended.
func TestPlanNeverProbesArrivalRelation(t *testing.T) {
	graphs := []*expr.JoinGraph{
		chainGraph(),
		expr.MustJoinGraph(3, expr.EquiCol(0, 0, 1, 0), expr.EquiCol(1, 1, 2, 0), expr.ThetaCol(0, 1, expr.Lt, 2, 1)),
		expr.MustJoinGraph(4, expr.EquiCol(0, 0, 1, 0), expr.EquiCol(0, 0, 2, 0), expr.EquiCol(0, 0, 3, 0)),
		expr.MustJoinGraph(4, expr.EquiCol(0, 0, 1, 0), expr.EquiCol(1, 0, 2, 0), expr.EquiCol(2, 0, 3, 0)),
		expr.MustJoinGraph(3, expr.EquiCol(0, 0, 1, 0)), // relation 2 is a cross product
	}
	for _, gc := range onRowsGraphs() {
		graphs = append(graphs, gc.g)
	}
	// covers fails unless steps assign exactly the relations of want, each
	// once, from views without rel.
	covers := func(label string, steps []probeStep, rel int, want uint64) {
		t.Helper()
		seen := uint64(0)
		for si, st := range steps {
			m := st.view.mask
			if m&(1<<uint(rel)) != 0 {
				t.Fatalf("%s: step %d probes view %b, which holds the arrival's own relation", label, si, m)
			}
			if seen&m != 0 {
				t.Fatalf("%s: step %d assigns relations of %b twice", label, si, seen&m)
			}
			seen |= m
		}
		if seen != want {
			t.Fatalf("%s: steps assign relations %b, want %b", label, seen, want)
		}
	}
	for gi, g := range graphs {
		full := uint64(1)<<uint(g.NumRels) - 1
		for _, p := range []policy{{"traditional", NewTraditional, nil}, {"views", NewViews, nil}} {
			j := p.mk(g)
			for rel, steps := range j.plan {
				bit := uint64(1) << uint(rel)
				covers(fmt.Sprintf("graph %d, %s plan[%d]", gi, p.name, rel), steps, rel, full&^bit)
				if p.name == "traditional" && len(steps) != g.NumRels-1 {
					t.Fatalf("graph %d rel %d: %d steps, want %d", gi, rel, len(steps), g.NumRels-1)
				}
				extended := 0
				for _, m := range j.maint[rel] {
					covers(fmt.Sprintf("graph %d, %s maint[%d] of %b", gi, p.name, rel, m.view.mask), m.steps, rel, m.view.mask&^bit)
					extended++
				}
				holding := 0
				for _, v := range j.views {
					if v.mask&bit != 0 {
						holding++
					}
				}
				if extended != holding {
					t.Fatalf("graph %d, %s: an arrival of %d extends %d views, %d hold it", gi, p.name, rel, extended, holding)
				}
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
