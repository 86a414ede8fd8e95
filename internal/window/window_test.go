package window

import (
	"math/rand"
	"testing"

	"squall/internal/expr"
	"squall/internal/localjoin"
	"squall/internal/ops"
	"squall/internal/types"
)

func TestBucketExpr(t *testing.T) {
	b := BucketExpr{Ts: expr.C(0), Size: 10}
	cases := []struct{ ts, want int64 }{
		{0, 0}, {9, 0}, {10, 1}, {19, 1}, {-1, -1}, {-10, -1}, {-11, -2},
	}
	for _, c := range cases {
		v, err := b.Eval(types.Tuple{types.Int(c.ts)})
		if err != nil {
			t.Fatal(err)
		}
		if v.I != c.want {
			t.Errorf("bucket(%d) = %d, want %d", c.ts, v.I, c.want)
		}
	}
	if _, err := b.Eval(types.Tuple{types.Str("x")}); err == nil {
		t.Error("non-integral timestamp must error")
	}
	if _, err := (BucketExpr{Ts: expr.C(0), Size: 0}).Eval(types.Tuple{types.Int(1)}); err == nil {
		t.Error("zero size must error")
	}
}

// TestTumblingJoinEqualsPerWindowRecompute (invariant 5): the tumbling
// window join via bucket conjunct equals joining each window's contents from
// scratch.
func TestTumblingJoinEqualsPerWindowRecompute(t *testing.T) {
	const size = 5
	g := expr.MustJoinGraph(2,
		expr.EquiCol(0, 1, 1, 1), // R.k = S.k
		TumblingConjunct(0, 0, 1, 0, size),
	)
	r := rand.New(rand.NewSource(3))
	mkRows := func(n int) []types.Tuple {
		rows := make([]types.Tuple, n)
		for i := range rows {
			rows[i] = types.Tuple{types.Int(r.Int63n(40)), types.Int(r.Int63n(4))}
		}
		return rows
	}
	R, S := mkRows(60), mkRows(60)
	j := localjoin.NewTraditional(g)
	online := 0
	for i := 0; i < 60; i++ {
		d, err := j.OnTuple(0, R[i])
		if err != nil {
			t.Fatal(err)
		}
		online += len(d)
		d, err = j.OnTuple(1, S[i])
		if err != nil {
			t.Fatal(err)
		}
		online += len(d)
	}
	// Reference: per-window nested loop.
	want := 0
	for _, rt := range R {
		for _, st := range S {
			if rt[1].I == st[1].I && rt[0].I/size == st[0].I/size {
				want++
			}
		}
	}
	if online != want {
		t.Errorf("tumbling join produced %d, recompute %d", online, want)
	}
}

// TestSlidingJoinEqualsBandRecompute: the sliding window join (|tsR - tsS|
// <= size) equals the band-join recompute.
func TestSlidingJoinEqualsBandRecompute(t *testing.T) {
	const size = 3
	conjs := SlidingConjuncts(0, 0, 1, 0, size)
	g := expr.MustJoinGraph(2, conjs...)
	r := rand.New(rand.NewSource(8))
	mkRows := func(n int) []types.Tuple {
		rows := make([]types.Tuple, n)
		for i := range rows {
			rows[i] = types.Tuple{types.Int(r.Int63n(30))}
		}
		return rows
	}
	R, S := mkRows(50), mkRows(50)
	j := localjoin.NewTraditional(g)
	online := 0
	for i := range R {
		d, _ := j.OnTuple(0, R[i])
		online += len(d)
		d, _ = j.OnTuple(1, S[i])
		online += len(d)
	}
	want := 0
	for _, rt := range R {
		for _, st := range S {
			diff := rt[0].I - st[0].I
			if diff <= size && diff >= -size {
				want++
			}
		}
	}
	if online != want {
		t.Errorf("sliding join produced %d, recompute %d", online, want)
	}
}

// TestExpirerBoundsStateWithoutChangingResults: with in-order timestamps,
// expiring tuples older than the horizon does not change the join result but
// bounds state.
func TestExpirerBoundsStateWithoutChangingResults(t *testing.T) {
	const size = 4
	g := expr.MustJoinGraph(2, SlidingConjuncts(0, 0, 1, 0, size)...)
	run := func(expire bool) (int, int) {
		j := localjoin.NewTraditional(g)
		e := NewExpirer(j, []int{0, 0}, size)
		results, maxStored := 0, 0
		for ts := int64(0); ts < 200; ts++ {
			for rel := 0; rel < 2; rel++ {
				d, err := e.OnTuple(rel, types.Tuple{types.Int(ts)})
				if err != nil {
					t.Fatal(err)
				}
				results += len(d)
			}
			if expire {
				if _, err := e.Advance(ts); err != nil {
					t.Fatal(err)
				}
			}
			if e.Stored() > maxStored {
				maxStored = e.Stored()
			}
		}
		return results, maxStored
	}
	withExp, storedExp := run(true)
	without, storedAll := run(false)
	if withExp != without {
		t.Errorf("expiration changed results: %d vs %d", withExp, without)
	}
	if storedExp >= storedAll/4 {
		t.Errorf("expiration kept %d tuples, unbounded run peaked at %d", storedExp, storedAll)
	}
}

// TestWindowAggTumblingEqualsRecompute: tumbling per-window COUNT equals
// recomputation, and Advance drops closed windows.
func TestWindowAggTumblingEqualsRecompute(t *testing.T) {
	const size = 10
	a, err := NewAgg(0, size, size, []expr.Expr{expr.C(1)}, ops.Count, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(12))
	ref := map[[2]int64]int64{} // (window, key) -> count
	var results []Result
	for i := 0; i < 500; i++ {
		ts, key := r.Int63n(100), r.Int63n(3)
		if err := a.OnTuple(types.Tuple{types.Int(ts), types.Int(key)}); err != nil {
			t.Fatal(err)
		}
		ref[[2]int64{ts / size, key}]++
	}
	results = append(results, a.Flush()...)
	got := map[[2]int64]int64{}
	for _, res := range results {
		got[[2]int64{res.Window, res.Row[0].I}] = res.Row[1].I
	}
	if len(got) != len(ref) {
		t.Fatalf("windows/groups: got %d, want %d", len(got), len(ref))
	}
	for k, want := range ref {
		if got[k] != want {
			t.Errorf("window %d key %d: %d, want %d", k[0], k[1], got[k], want)
		}
	}
}

// TestWindowAggSlidingPanesOverlap: sliding windows assign each tuple to
// size/slide windows.
func TestWindowAggSlidingPanesOverlap(t *testing.T) {
	a, err := NewAgg(0, 10, 5, nil, ops.Count, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.OnTuple(types.Tuple{types.Int(7)}); err != nil {
		t.Fatal(err)
	}
	// ts=7 falls in windows [0,10) (w=0) and [5,15) (w=1).
	if a.OpenWindows() != 2 {
		t.Fatalf("open windows = %d, want 2", a.OpenWindows())
	}
	res := a.Advance(10) // closes [0,10) only
	if len(res) != 1 || res[0].Window != 0 || res[0].Row[0].I != 1 {
		t.Errorf("Advance(10) = %+v", res)
	}
	if a.OpenWindows() != 1 {
		t.Errorf("after advance: %d open", a.OpenWindows())
	}
	res = a.Flush()
	if len(res) != 1 || res[0].Window != 1 {
		t.Errorf("Flush = %+v", res)
	}
}

func TestWindowAggValidation(t *testing.T) {
	if _, err := NewAgg(0, 0, 1, nil, ops.Count, nil); err == nil {
		t.Error("zero size must fail")
	}
	if _, err := NewAgg(0, 5, 6, nil, ops.Count, nil); err == nil {
		t.Error("slide > size must fail")
	}
	a, _ := NewAgg(0, 5, 5, nil, ops.Count, nil)
	if err := a.OnTuple(types.Tuple{types.Str("bad")}); err == nil {
		t.Error("bad timestamp must fail")
	}
}

// TestExpirerSkewedArrivalTrace is the satellite regression for the
// Advance rework: a skewed trace — bursts of close timestamps, out-of-order
// within the horizon, and long runs of watermarks that expire nothing —
// must (a) evict exactly the reference set and
// (b) do work proportional to evictions, not to stored state. The pre-PR3
// implementation rescanned the whole queue on every watermark, failing (b)
// by two orders of magnitude on this trace.
func TestExpirerSkewedArrivalTrace(t *testing.T) {
	const horizon = 100
	g := expr.MustJoinGraph(2, SlidingConjuncts(0, 0, 1, 0, horizon)...)
	r := rand.New(rand.NewSource(71))
	e := NewExpirer(localjoin.NewTraditional(g), []int{0, 0}, horizon)
	type live struct{ ts int64 }
	var model []live
	watermark := int64(0)
	advances, inserted := 0, 0
	for step := 0; step < 400; step++ {
		switch {
		case step%7 == 3:
			// Watermark-only advance: often expires nothing (skew —
			// the stream stalls while watermarks keep coming).
			watermark += int64(r.Intn(8))
			advances++
			cut := watermark - horizon
			want := 0
			keep := model[:0]
			for _, m := range model {
				if m.ts < cut {
					want++
				} else {
					keep = append(keep, m)
				}
			}
			model = keep
			got, err := e.Advance(watermark)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("step %d: Advance(%d) evicted %d, reference %d", step, watermark, got, want)
			}
		default:
			// Burst of arrivals clustered near the watermark, jittered
			// out of order within the horizon.
			for k := 0; k < 4; k++ {
				ts := watermark + int64(r.Intn(20)) - int64(r.Intn(int(horizon/2)))
				if ts < watermark-horizon {
					ts = watermark - horizon // stay inside the contract
				}
				if _, err := e.OnTuple(r.Intn(2), types.Tuple{types.Int(ts)}); err != nil {
					t.Fatal(err)
				}
				model = append(model, live{ts})
				inserted++
			}
		}
	}
	if e.Stored() != len(model) {
		t.Fatalf("Stored = %d, reference %d", e.Stored(), len(model))
	}
	if e.Evicted()+e.Stored() != inserted {
		t.Fatalf("evicted %d + stored %d != inserted %d", e.Evicted(), e.Stored(), inserted)
	}
	// Work bound: entries examined across all Advances must be within
	// a small constant of evictions plus one straddling bucket scan
	// per advance — not advances x stored (the old rescan behavior,
	// which lands around inserted x advances / 2 ≈ 150k here).
	bucketSlack := advances * 2 * (inserted/advances + 8)
	if e.scanned > 2*e.Evicted()+bucketSlack {
		t.Fatalf("Advance examined %d entries for %d evictions over %d advances; full-rescan regression",
			e.scanned, e.Evicted(), advances)
	}
}

// TestExpirerEarlyOutSkipsWork: repeated watermarks below the minimum
// timestamp must do no per-entry work at all.
func TestExpirerEarlyOutSkipsWork(t *testing.T) {
	g := expr.MustJoinGraph(2, SlidingConjuncts(0, 0, 1, 0, 50)...)
	e := NewExpirer(localjoin.NewTraditional(g), []int{0, 0}, 50)
	for i := 0; i < 1000; i++ {
		if _, err := e.OnTuple(i%2, types.Tuple{types.Int(int64(1000 + i))}); err != nil {
			t.Fatal(err)
		}
	}
	for w := int64(0); w < 1000; w += 10 {
		n, err := e.Advance(w)
		if err != nil {
			t.Fatal(err)
		}
		if n != 0 {
			t.Fatalf("Advance(%d) evicted %d, want 0", w, n)
		}
	}
	if e.scanned != 0 {
		t.Fatalf("early-out path examined %d entries, want 0", e.scanned)
	}
	if e.Stored() != 1000 {
		t.Fatalf("Stored = %d", e.Stored())
	}
}

// TestWindowChurnTriggersCompaction (PR 4 satellite): sustained window churn
// tombstones far more arena bytes than stay live, so the wrapped join's
// DeadBytes > LiveBytes trigger must compact mid-stream — rewriting the
// expirer's queued refs through the remap — without changing a single delta
// or leaving garbage behind.
func TestWindowChurnTriggersCompaction(t *testing.T) {
	const (
		size    = 8
		stream  = 4000
		keyCard = 12
	)
	g := expr.MustJoinGraph(2,
		append(SlidingConjuncts(0, 0, 1, 0, size), expr.EquiCol(0, 1, 1, 1))...)
	rng := rand.New(rand.NewSource(19))
	type ev struct {
		rel int
		t   types.Tuple
	}
	evs := make([]ev, stream)
	for i := range evs {
		// Padded rows make dead bytes accumulate quickly once expired.
		evs[i] = ev{rel: rng.Intn(2), t: types.Tuple{
			types.Int(int64(i)),                 // in-order event time
			types.Int(int64(rng.Intn(keyCard))), // join key
			types.Str("windowed-payload-padding-0123456789"),
		}}
	}

	run := func(expire bool) (int, *localjoin.Traditional) {
		j := localjoin.NewTraditional(g)
		e := NewExpirer(j, []int{0, 0}, size)
		results := 0
		for _, v := range evs {
			d, err := e.OnTuple(v.rel, v.t)
			if err != nil {
				t.Fatal(err)
			}
			results += len(d)
			if expire {
				if _, err := e.Advance(v.t[0].I); err != nil {
					t.Fatal(err)
				}
			}
		}
		return results, j
	}

	churned, cj := run(true)
	full, _ := run(false)
	if churned != full {
		t.Fatalf("churn with compaction changed results: %d vs %d", churned, full)
	}
	if cj.Compactions() == 0 {
		t.Fatal("window churn never triggered a compaction")
	}
	// Post-run arenas must not be dominated by garbage, and the live state
	// footprint must be bounded by the window, not the stream.
	for rel := 0; rel < 2; rel++ {
		if n := cj.RelCount(rel); n > 4*size*2 {
			t.Fatalf("rel %d holds %d tuples after churn; window is %d", rel, n, size)
		}
	}
	unbounded := len(evs) * 40 // ~encoded bytes the full-history run retains
	if cj.MemSize() >= unbounded/4 {
		t.Fatalf("churned MemSize %d not meaningfully below full-history %d", cj.MemSize(), unbounded)
	}
}
