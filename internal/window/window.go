// Package window implements Squall's stream primitives (§2): tumbling and
// sliding windows, built — exactly as the paper describes — by adding window
// expiration logic on top of the full-history engine rather than as a
// separate runtime.
//
// Window joins reduce to theta joins on event time: a tumbling window is an
// equality conjunct on the window bucket; a sliding (range) window join is a
// band conjunct |ts_r - ts_s| < size. Both plug directly into the local join
// operators and the hypercube schemes, which support theta joins natively.
package window

import (
	"fmt"

	"squall/internal/expr"
	"squall/internal/localjoin"
	"squall/internal/ops"
	"squall/internal/slab"
	"squall/internal/types"
)

// BucketExpr maps an event-time column to its tumbling-window bucket
// (floor(ts/size)); it implements expr.Expr so it can appear in join
// conditions, group-bys and partitioning keys.
type BucketExpr struct {
	Ts   expr.Expr
	Size int64
}

// Eval computes the bucket index.
func (b BucketExpr) Eval(t types.Tuple) (types.Value, error) {
	v, err := b.Ts.Eval(t)
	if err != nil {
		return types.Null(), err
	}
	ts, ok := v.AsInt()
	if !ok {
		return types.Null(), fmt.Errorf("window: timestamp %v is not integral", v)
	}
	if b.Size <= 0 {
		return types.Null(), fmt.Errorf("window: bucket size %d must be positive", b.Size)
	}
	bucket := ts / b.Size
	if ts < 0 && ts%b.Size != 0 {
		bucket-- // floor division for negative timestamps
	}
	return types.Int(bucket), nil
}

func (b BucketExpr) String() string { return fmt.Sprintf("bucket(%s,%d)", b.Ts, b.Size) }

// TumblingConjunct builds the equality conjunct "same tumbling window"
// between two relations' timestamp columns.
func TumblingConjunct(relA, tsColA, relB, tsColB int, size int64) expr.JoinConjunct {
	return expr.JoinConjunct{
		LRel: relA, RRel: relB, Op: expr.Eq,
		Left:  BucketExpr{Ts: expr.C(tsColA), Size: size},
		Right: BucketExpr{Ts: expr.C(tsColB), Size: size},
	}
}

// SlidingConjuncts builds the band condition |tsA - tsB| <= size as two
// conjuncts (a CQL-style range window join).
func SlidingConjuncts(relA, tsColA, relB, tsColB int, size int64) []expr.JoinConjunct {
	return []expr.JoinConjunct{
		{LRel: relA, RRel: relB, Op: expr.Ge,
			Left:  expr.Arith{Op: expr.Add, L: expr.C(tsColA), R: expr.I(size)},
			Right: expr.C(tsColB)},
		{LRel: relA, RRel: relB, Op: expr.Le,
			Left:  expr.Arith{Op: expr.Sub, L: expr.C(tsColA), R: expr.I(size)},
			Right: expr.C(tsColB)},
	}
}

// Expirer bounds a window join's state: it tracks inserted tuples by event
// time and removes those that can no longer join any future arrival. With a
// horizon h, a call to Advance(watermark) evicts tuples whose timestamp is
// below watermark - h. Out-of-order arrivals later than the horizon are the
// caller's contract to avoid (the usual watermark assumption).
//
// Entries live in time buckets of width horizon/16 ordered by a min-heap of
// bucket ids, so Advance is O(evicted) — fully expired buckets evict
// wholesale, only the single bucket straddling the cut is scanned — instead
// of the pre-PR3 full-queue rescan per watermark; a min-timestamp early-out
// makes watermark-only advances free. Entries are row refs into the wrapped
// join's arenas, and eviction unindexes the row in place (RemoveRef).
type Expirer struct {
	join    *localjoin.Traditional
	tsCols  []int // per relation
	horizon int64
	granule int64
	buckets map[int64]*expBucket
	heap    []int64 // min-heap of bucket ids present in buckets
	stored  int
	evicted int
	minTs   int64 // lower bound on the smallest live ts; valid when stored > 0
	scanned int   // entries examined by Advance (regression instrumentation)
}

type expBucket struct {
	entries []expEntry
}

type expEntry struct {
	ts  int64
	rel int
	ref slab.Ref
}

// NewExpirer wraps a traditional join whose relation r carries its event
// time in column tsCols[r]. The expirer registers itself as the join's
// compaction hook: when window churn drives an arena's DeadBytes past its
// LiveBytes the join compacts, and the queued row refs are rewritten
// through the remap (dead rows map to slab.NoRef, whose removal is a no-op).
func NewExpirer(join *localjoin.Traditional, tsCols []int, horizon int64) *Expirer {
	granule := horizon / 16
	if granule < 1 {
		granule = 1
	}
	e := &Expirer{join: join, tsCols: tsCols, horizon: horizon, granule: granule,
		buckets: map[int64]*expBucket{}}
	join.OnCompact(e.rewriteRefs)
	return e
}

// rewriteRefs remaps every queued entry of one relation after the wrapped
// join compacted that relation's arena. Entries are rewritten in place so
// an Advance pass that triggered the compaction mid-scan observes the fresh
// refs on its next read.
func (e *Expirer) rewriteRefs(rel int, remap []slab.Ref) {
	for _, b := range e.buckets {
		for i := range b.entries {
			en := &b.entries[i]
			if en.rel != rel {
				continue
			}
			if int(en.ref) < len(remap) {
				en.ref = remap[en.ref]
			}
		}
	}
}

// heapPush adds a bucket id to the min-heap.
func (e *Expirer) heapPush(id int64) {
	e.heap = append(e.heap, id)
	i := len(e.heap) - 1
	for i > 0 {
		p := (i - 1) / 2
		if e.heap[p] <= e.heap[i] {
			break
		}
		e.heap[p], e.heap[i] = e.heap[i], e.heap[p]
		i = p
	}
}

// heapPop removes the smallest bucket id.
func (e *Expirer) heapPop() {
	last := len(e.heap) - 1
	e.heap[0] = e.heap[last]
	e.heap = e.heap[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(e.heap) && e.heap[l] < e.heap[small] {
			small = l
		}
		if r < len(e.heap) && e.heap[r] < e.heap[small] {
			small = r
		}
		if small == i {
			return
		}
		e.heap[i], e.heap[small] = e.heap[small], e.heap[i]
		i = small
	}
}

// OnTuple feeds the join and registers the tuple for expiration.
func (e *Expirer) OnTuple(rel int, t types.Tuple) ([]localjoin.Delta, error) {
	ts, ok := t[e.tsCols[rel]].AsInt()
	if !ok {
		return nil, fmt.Errorf("window: tuple %v has no integral timestamp in col %d", t, e.tsCols[rel])
	}
	deltas, err := e.join.OnTuple(rel, t)
	if err != nil {
		return nil, err
	}
	ref, _ := e.join.LastRef(rel) // always set: OnTuple just stored t
	en := expEntry{ts: ts, rel: rel, ref: ref}
	id := floorDiv(ts, e.granule)
	b := e.buckets[id]
	if b == nil {
		b = &expBucket{}
		e.buckets[id] = b
		e.heapPush(id)
	}
	b.entries = append(b.entries, en)
	if e.stored == 0 || ts < e.minTs {
		e.minTs = ts
	}
	e.stored++
	return deltas, nil
}

// remove evicts one registered entry from the wrapped join.
func (e *Expirer) remove(en expEntry) error { return e.join.RemoveRef(en.rel, en.ref) }

// Advance evicts every stored tuple with ts < watermark - horizon and
// returns the number evicted.
func (e *Expirer) Advance(watermark int64) (int, error) {
	cut := watermark - e.horizon
	if e.stored == 0 || cut <= e.minTs {
		return 0, nil // min-timestamp early-out: nothing can expire
	}
	n := 0
	for len(e.heap) > 0 {
		front := e.heap[0]
		b := e.buckets[front]
		if (front+1)*e.granule <= cut {
			// Every entry of this bucket has ts < (front+1)·granule <= cut:
			// evict wholesale. Entries are re-read from the slice each step:
			// a removal can trigger an arena compaction whose remap rewrites
			// the queued refs in place (rewriteRefs).
			for i := 0; i < len(b.entries); i++ {
				e.scanned++
				if err := e.remove(b.entries[i]); err != nil {
					return n, err
				}
				n++
			}
			e.stored -= len(b.entries)
			delete(e.buckets, front)
			e.heapPop()
			continue
		}
		if front*e.granule < cut {
			// The bucket straddles the cut: scan and filter it. Same re-read
			// discipline as above — `kept` aliases the scanned prefix, which
			// rewriteRefs also updates in place.
			kept := b.entries[:0]
			var minKept int64
			for i := 0; i < len(b.entries); i++ {
				e.scanned++
				en := b.entries[i]
				if en.ts < cut {
					if err := e.remove(en); err != nil {
						return n, err
					}
					n++
					continue
				}
				if len(kept) == 0 || en.ts < minKept {
					minKept = en.ts
				}
				kept = append(kept, en)
			}
			e.stored -= len(b.entries) - len(kept)
			b.entries = kept
			if len(kept) == 0 {
				delete(e.buckets, front)
				e.heapPop()
				continue
			}
			// Remaining buckets start at or after this bucket's end, so the
			// kept minimum is the global minimum.
			e.minTs = minKept
		}
		break
	}
	e.evicted += n
	if e.stored == 0 {
		e.minTs = 0
	} else if len(e.heap) > 0 && e.heap[0]*e.granule > e.minTs {
		// Wholesale evictions dropped the bucket holding the old minimum:
		// the front bucket's start is a valid (conservative) lower bound.
		e.minTs = e.heap[0] * e.granule
	}
	return n, nil
}

// Stored returns the number of live (non-expired) tuples.
func (e *Expirer) Stored() int { return e.stored }

// Evicted returns the total tuples expired so far.
func (e *Expirer) Evicted() int { return e.evicted }

// Agg is a windowed group-by aggregation over a single stream: each tuple is
// assigned to the window(s) covering its event time; windows are emitted
// (and their state dropped) once the watermark passes their end.
type Agg struct {
	tsCol   int
	size    int64
	slide   int64
	groupBy []expr.Expr
	kind    ops.AggKind
	sumE    expr.Expr

	open map[int64]*ops.Agg // window id -> accumulator
	mem  int
}

// NewAgg builds a windowed aggregation. slide == size gives a tumbling
// window; slide < size a sliding window with overlapping panes.
func NewAgg(tsCol int, size, slide int64, groupBy []expr.Expr, kind ops.AggKind, sumE expr.Expr) (*Agg, error) {
	if size <= 0 || slide <= 0 || slide > size {
		return nil, fmt.Errorf("window: need 0 < slide <= size, got size %d slide %d", size, slide)
	}
	return &Agg{tsCol: tsCol, size: size, slide: slide, groupBy: groupBy, kind: kind, sumE: sumE,
		open: map[int64]*ops.Agg{}}, nil
}

// windowsOf returns the ids of windows covering ts: window w spans
// [w*slide, w*slide + size).
func (a *Agg) windowsOf(ts int64) (lo, hi int64) {
	hi = floorDiv(ts, a.slide)
	lo = floorDiv(ts-a.size, a.slide) + 1
	return lo, hi
}

func floorDiv(x, d int64) int64 {
	q := x / d
	if x < 0 && x%d != 0 {
		q--
	}
	return q
}

// OnTuple folds a tuple into every window covering it.
func (a *Agg) OnTuple(t types.Tuple) error {
	ts, ok := t[a.tsCol].AsInt()
	if !ok {
		return fmt.Errorf("window: non-integral timestamp in %v", t)
	}
	lo, hi := a.windowsOf(ts)
	for w := lo; w <= hi; w++ {
		acc, ok := a.open[w]
		if !ok {
			acc = ops.NewAgg(a.groupBy, a.kind, a.sumE, false)
			a.open[w] = acc
		}
		if _, err := acc.Fold(t); err != nil {
			return err
		}
	}
	return nil
}

// Result is one closed window's output row.
type Result struct {
	Window int64 // window id; spans [Window*slide, Window*slide+size)
	Row    types.Tuple
}

// Advance closes every window that ends at or before the watermark and
// returns their rows.
func (a *Agg) Advance(watermark int64) []Result {
	var out []Result
	for w, acc := range a.open {
		if w*a.slide+a.size <= watermark {
			for _, row := range acc.Rows() {
				out = append(out, Result{Window: w, Row: row})
			}
			delete(a.open, w)
		}
	}
	return out
}

// Flush closes all remaining windows (end of stream).
func (a *Agg) Flush() []Result {
	var out []Result
	for w, acc := range a.open {
		for _, row := range acc.Rows() {
			out = append(out, Result{Window: w, Row: row})
		}
		delete(a.open, w)
	}
	return out
}

// OpenWindows reports how many windows currently hold state.
func (a *Agg) OpenWindows() int { return len(a.open) }
