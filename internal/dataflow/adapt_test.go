package dataflow

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"
	"time"
	"unsafe"

	"squall/internal/core"
	"squall/internal/types"
	"squall/internal/wire"
)

// pairBolt is a minimal 2-way cross-join task: every R tuple must pair with
// every S tuple exactly once across the whole component, which is precisely
// the 1-Bucket invariant a reshape must preserve. It emits (rID, sID) rows.
type pairBolt struct {
	sides     [2][]types.Tuple
	fail      error // returned after failAfter tuples when set
	seen      int
	failAfter int
}

var _ Repartitioner = (*pairBolt)(nil)

func (b *pairBolt) side(stream string) int {
	if stream == "S" {
		return 1
	}
	return 0
}

func (b *pairBolt) Execute(in Input, col *Collector) error {
	b.seen++
	if b.fail != nil && b.seen > b.failAfter {
		return b.fail
	}
	side := b.side(in.Stream)
	t := in.Tuple
	for _, o := range b.sides[1-side] {
		pair := types.Tuple{t[0], o[0]}
		if side == 1 {
			pair = types.Tuple{o[0], t[0]}
		}
		if err := col.Emit(pair); err != nil {
			return err
		}
	}
	b.sides[side] = append(b.sides[side], t)
	return nil
}

func (b *pairBolt) Finish(*Collector) error { return nil }

func (b *pairBolt) StoredCount(side int) int { return len(b.sides[side]) }

func (b *pairBolt) ExportStateFrames(side, batchSize int, visit func(frame []byte, count int) bool) {
	exportTupleFrames(b.sides[side], batchSize, visit)
}

// exportTupleFrames encodes a test double's stored tuples into wire batch
// frames of up to batchSize rows, the Repartitioner export shape.
func exportTupleFrames(ts []types.Tuple, batchSize int, visit func(frame []byte, count int) bool) {
	var frame []byte
	for start := 0; start < len(ts); start += batchSize {
		end := min(start+batchSize, len(ts))
		frame = wire.EncodeBatch(frame[:0], ts[start:end])
		if !visit(frame, end-start) {
			return
		}
	}
}

func (b *pairBolt) ResetForReshape(keep [2]bool) error {
	for side, k := range keep {
		if !k {
			b.sides[side] = nil
		}
	}
	return nil
}

func (b *pairBolt) ImportRow(side int, _ []byte, cur *wire.Cursor) error {
	b.sides[side] = append(b.sides[side], cur.Tuple(nil))
	return nil
}

// rHoldoff delays the R spout's first tuple when set (see
// TestAdaptiveReshapePreservesPairs); zero means no delay.
var rHoldoff time.Duration

// buildAdaptiveTopo wires R and S spouts into a pairBolt joiner and a
// gathering sink.
func buildAdaptiveTopo(t *testing.T, nR, nS, par int, mk func() Bolt) (*Topology, *Gather) {
	t.Helper()
	g := NewGather()
	hold := rHoldoff
	topo, err := NewBuilder().
		Spout("R", 1, GenSpout(nR, func(i int) types.Tuple {
			if i == 0 && hold > 0 {
				time.Sleep(hold)
			}
			return types.Tuple{types.Int(int64(i))}
		})).
		Spout("S", 1, GenSpout(nS, func(i int) types.Tuple { return types.Tuple{types.Int(int64(1_000_000 + i))} })).
		Bolt("join", par, func(task, ntasks int) Bolt { return mk() }).
		Bolt("sink", 1, g.Factory()).
		Input("join", "R", Shuffle()).
		Input("join", "S", Shuffle()).
		Input("sink", "join", Global()).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return topo, g
}

func pairBag(rows []types.Tuple) map[string]int {
	bag := make(map[string]int, len(rows))
	for _, r := range rows {
		bag[r.Key()]++
	}
	return bag
}

// TestAdaptiveReshapePreservesPairs drives a heavily drifting |R|:|S| ratio
// through the live adaptive operator and asserts the cross product is
// produced exactly once despite one or more migrations, at one-row, ragged
// and full frames.
func TestAdaptiveReshapePreservesPairs(t *testing.T) {
	// |R| is large enough that the stream cannot fit in the in-flight
	// budget (ChannelBuf x BatchSize x tasks) even at batch=64: the
	// controller is guaranteed to observe the drift while tuples flow.
	const nR, nS, par = 4000, 30, 8
	// Hold R's first tuple back briefly so the 30-tuple S stream (which all
	// rides in its spout's EOS flush at batch=64) is delivered before the
	// controller can possibly decide: a reshape with no S stored migrates
	// nothing, which starved this assertion under the race detector's
	// scheduling. The drift is unchanged — S lands first, then R floods.
	rHoldoff = 20 * time.Millisecond
	defer func() { rHoldoff = 0 }()
	for _, batch := range []int{1, 7, 64} {
		t.Run(fmt.Sprintf("batch=%d", batch), func(t *testing.T) {
			// A reshape whose dimension sizes divide the old ones migrates
			// nothing (every surviving cell keeps its state in place), so a
			// run can legitimately end after reshaping without migrating if
			// the stream finishes before a wrapping reshape. Pair exactness
			// is asserted on every run; the migrated-traffic assertion only
			// needs one run whose trajectory includes a wrapping reshape, so
			// a few seeds are tried.
			migrated := false
			for _, seed := range []int64{7, 8, 9} {
				topo, g := buildAdaptiveTopo(t, nR, nS, par, func() Bolt { return &pairBolt{} })
				pol := &AdaptivePolicy{
					Component: "join", RStream: "R", SStream: "S",
					InitialRows: 1, InitialCols: par, // stale shape: best for |S| >> |R|
					ReportEvery: 16, MinObserved: 64, MinGain: 0.05,
				}
				// A shallow inbox backpressures the spouts behind the joiner,
				// so the controller reliably observes the drift mid-stream
				// instead of racing a spout that finishes in microseconds.
				m, err := Run(topo, Options{Seed: seed, BatchSize: batch, Adaptive: pol, ChannelBuf: 8})
				if err != nil {
					t.Fatal(err)
				}
				if got := m.Adapt.Reshapes.Load(); got < 1 {
					t.Fatalf("seed=%d: expected at least one reshape, got %d", seed, got)
				}
				rows := g.Rows()
				if len(rows) != nR*nS {
					t.Fatalf("seed=%d: got %d pairs, want %d", seed, len(rows), nR*nS)
				}
				bag := pairBag(rows)
				for r := 0; r < nR; r++ {
					for s := 0; s < nS; s++ {
						key := types.Tuple{types.Int(int64(r)), types.Int(int64(1_000_000 + s))}.Key()
						if bag[key] != 1 {
							t.Fatalf("seed=%d: pair (%d,%d) produced %d times", seed, r, s, bag[key])
						}
					}
				}
				if m.Adapt.MigratedTuples.Load() > 0 && m.Adapt.MigratedBytes.Load() > 0 {
					migrated = true
					break
				}
				t.Logf("seed=%d: reshaped without migrating (divisible trajectory); trying next seed", seed)
			}
			if !migrated {
				t.Fatal("no seed produced a migrating reshape")
			}
		})
	}
}

// TestAdaptiveStaticNeverReshapes pins the baseline: a Static policy routes
// through the same machinery but keeps its matrix.
func TestAdaptiveStaticNeverReshapes(t *testing.T) {
	topo, g := buildAdaptiveTopo(t, 300, 30, 6, func() Bolt { return &pairBolt{} })
	pol := &AdaptivePolicy{
		Component: "join", RStream: "R", SStream: "S",
		InitialRows: 1, InitialCols: 6,
		ReportEvery: 8, MinObserved: 16, MinGain: 0.01,
		Static: true,
	}
	m, err := Run(topo, Options{Seed: 3, Adaptive: pol})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Adapt.Reshapes.Load(); got != 0 {
		t.Fatalf("static run reshaped %d times", got)
	}
	if got := m.Adapt.MigratedTuples.Load(); got != 0 {
		t.Fatalf("static run migrated %d tuples", got)
	}
	if len(g.Rows()) != 300*30 {
		t.Fatalf("got %d pairs, want %d", len(g.Rows()), 300*30)
	}
}

// TestAdaptiveBoltErrorAborts makes sure a bolt failure with the control
// plane installed unwinds the gate, the controller and every task instead
// of deadlocking.
func TestAdaptiveBoltErrorAborts(t *testing.T) {
	boom := errors.New("boom")
	topo, _ := buildAdaptiveTopo(t, 500, 500, 4, func() Bolt { return &pairBolt{fail: boom, failAfter: 64} })
	pol := &AdaptivePolicy{
		Component: "join", RStream: "R", SStream: "S",
		ReportEvery: 8, MinObserved: 16, MinGain: 0.01,
	}
	_, err := Run(topo, Options{Seed: 1, Adaptive: pol, ChannelBuf: 4})
	if !errors.Is(err, boom) {
		t.Fatalf("want bolt error, got %v", err)
	}
}

// TestAdaptivePolicyValidation rejects malformed policies before starting.
func TestAdaptivePolicyValidation(t *testing.T) {
	mk := func() Bolt { return &pairBolt{} }
	cases := []struct {
		name string
		pol  AdaptivePolicy
	}{
		{"unknown component", AdaptivePolicy{Component: "nope", RStream: "R", SStream: "S"}},
		{"unknown stream", AdaptivePolicy{Component: "join", RStream: "R", SStream: "nope"}},
		{"same streams", AdaptivePolicy{Component: "join", RStream: "R", SStream: "R"}},
		{"oversized matrix", AdaptivePolicy{Component: "join", RStream: "R", SStream: "S", InitialRows: 3, InitialCols: 3}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			topo, _ := buildAdaptiveTopo(t, 4, 4, 4, mk)
			if _, err := Run(topo, Options{Adaptive: &c.pol}); err == nil {
				t.Fatal("want validation error")
			}
		})
	}
}

// TestAdaptiveNonRepartitioner rejects adaptive components whose bolts lack
// the migration hooks.
func TestAdaptiveNonRepartitioner(t *testing.T) {
	topo, _ := buildAdaptiveTopo(t, 64, 64, 2, func() Bolt { return FuncBolt{} })
	pol := &AdaptivePolicy{Component: "join", RStream: "R", SStream: "S"}
	if _, err := Run(topo, Options{Adaptive: pol}); err == nil {
		t.Fatal("want Repartitioner error")
	}
}

// adaptHarness drives the producer side of the adaptive edges by hand: an
// execution with the control plane installed but no tasks running, so a
// test can emit rows, move the live shape while rows sit in the per-target
// buffers, and read every frame the joiner inboxes received.
type adaptHarness struct {
	ex   *execution
	r, s *Collector
}

func newAdaptHarness(t *testing.T, par, batch int, m0 [2]int) *adaptHarness {
	t.Helper()
	topo, _ := buildAdaptiveTopo(t, 0, 0, par, func() Bolt { return &pairBolt{} })
	pol := &AdaptivePolicy{Component: "join", RStream: "R", SStream: "S", InitialRows: m0[0], InitialCols: m0[1]}
	ex := &execution{
		topo:    topo,
		opts:    Options{Seed: 1, BatchSize: batch, Adaptive: pol},
		inboxes: make(map[*node][]chan envelope),
		abort:   make(chan struct{}),
		metrics: &RunMetrics{Components: make(map[string]*ComponentMetrics)},
	}
	for _, n := range topo.nodes {
		cm := &ComponentMetrics{Name: n.name, Par: n.par, Tasks: make([]*TaskMetrics, n.par)}
		chans := make([]chan envelope, n.par)
		for i := range chans {
			chans[i] = make(chan envelope, 1<<14)
			cm.Tasks[i] = &TaskMetrics{}
		}
		ex.inboxes[n] = chans
		ex.metrics.Components[n.name] = cm
	}
	if err := ex.initControl(); err != nil {
		t.Fatal(err)
	}
	return &adaptHarness{ex: ex, r: ex.collector(topo.byN["R"], 0), s: ex.collector(topo.byN["S"], 0)}
}

// reshape installs a rows x cols shape the way a completed round does:
// close the gate, then reopen it under the new shape.
func (h *adaptHarness) reshape(t *testing.T, rows, cols int) {
	t.Helper()
	next, err := h.ex.adapt.matrix(rows, cols)
	if err != nil {
		t.Fatal(err)
	}
	if !h.ex.gate.pause() {
		t.Fatal("pause aborted")
	}
	h.ex.gate.resume(next)
}

// drain empties every joiner inbox, returning the data envelopes per task.
func (h *adaptHarness) drain() [][]envelope {
	join := h.ex.topo.byN["join"]
	out := make([][]envelope, join.par)
	for task, ch := range h.ex.inboxes[join] {
		for len(ch) > 0 {
			if env := <-ch; !env.eos {
				out[task] = append(out[task], env)
			}
		}
	}
	return out
}

// cellsOf maps each delivered row id to the sorted tasks that received it.
func cellsOf(t *testing.T, got [][]envelope) map[int64][]int {
	t.Helper()
	cells := map[int64][]int{}
	for task, envs := range got {
		for _, env := range envs {
			rows, _, err := wire.DecodeBatch(env.frame)
			if err != nil {
				t.Fatal(err)
			}
			if len(rows) != env.count {
				t.Fatalf("frame says %d rows, holds %d", env.count, len(rows))
			}
			for _, r := range rows {
				cells[r[0].I] = append(cells[r[0].I], task)
			}
		}
	}
	return cells
}

// pendingRows counts the rows sitting in a collector's adaptive buffers,
// each replicated row once: the count of its group's primary buffer.
func pendingRows(c *Collector) int {
	n := 0
	for ei, rel := range c.liveRel {
		if rel < 0 || c.routed == nil {
			continue
		}
		for target, rb := range c.out[ei] {
			if primaryCell(c.routed, rel, target) {
				n += rb.count
			}
		}
	}
	return n
}

// TestAdaptiveReshapeReroutesPendingRows: a reshape that lands while rows
// sit in the per-target buffers re-routes every pending row exactly once.
// Each R row must reach exactly one whole row of cells and each S row one
// whole column — of the matrix in force when its frame was flushed — which
// is what keeps every (R, S) pair meeting at exactly one cell.
func TestAdaptiveReshapeReroutesPendingRows(t *testing.T) {
	const par, perPhase = 4, 100
	for _, batch := range []int{1, 7, 64} {
		t.Run(fmt.Sprintf("batch=%d", batch), func(t *testing.T) {
			h := newAdaptHarness(t, par, batch, [2]int{2, 2})
			emit := func(from int) {
				for i := from; i < from+perPhase; i++ {
					if err := h.r.Emit(types.Tuple{types.Int(int64(i))}); err != nil {
						t.Fatal(err)
					}
					if err := h.s.Emit(types.Tuple{types.Int(int64(1_000_000 + i))}); err != nil {
						t.Fatal(err)
					}
				}
			}
			emit(0)
			before := cellsOf(t, h.drain())
			pending := pendingRows(h.r) + pendingRows(h.s)
			if batch > 1 && pending == 0 {
				t.Fatal("no rows pending at the reshape; the test exercises nothing")
			}
			h.reshape(t, 4, 1)
			emit(perPhase)
			h.r.eos()
			h.s.eos()
			after := cellsOf(t, h.drain())
			if got := pendingRows(h.r) + pendingRows(h.s); got != 0 {
				t.Fatalf("%d rows still buffered after EOS", got)
			}
			// R rows: a row of cells {2r, 2r+1} under 2x2, one cell under 4x1.
			// S rows: a column {c, 2+c} under 2x2, every cell under 4x1.
			isOld := func(id int64, cells []int) bool {
				if id < 1_000_000 {
					return len(cells) == 2 && cells[0]%2 == 0 && cells[1] == cells[0]+1
				}
				return len(cells) == 2 && cells[0] < 2 && cells[1] == cells[0]+2
			}
			isNew := func(id int64, cells []int) bool {
				if id < 1_000_000 {
					return len(cells) == 1
				}
				return len(cells) == par && cells[0] == 0 && cells[3] == 3
			}
			rerouted := 0
			for _, side := range []int64{0, 1_000_000} {
				for i := int64(0); i < 2*perPhase; i++ {
					id := side + i
					b, a := before[id], after[id]
					sort.Ints(a)
					switch {
					case len(b) > 0 && len(a) > 0:
						t.Fatalf("row %d delivered before and after the reshape: %v then %v", id, b, a)
					case len(b) > 0:
						sort.Ints(b)
						if i >= perPhase || !isOld(id, b) {
							t.Fatalf("row %d reached cells %v under the old matrix", id, b)
						}
					case !isNew(id, a):
						t.Fatalf("row %d reached cells %v under the new matrix", id, a)
					case i < perPhase:
						rerouted++
					}
				}
			}
			if rerouted != pending {
				t.Fatalf("%d rows were pending at the reshape, %d arrived re-routed", pending, rerouted)
			}
		})
	}
}

// TestAdaptiveFlushCopiesPerCell: a flush to an R row of k cells charges
// k x the frame length to BytesOut and hands every cell its own copy of the
// frame — no two cells' frames share a backing array, so one consumer
// recycling its buffer can never corrupt another's.
func TestAdaptiveFlushCopiesPerCell(t *testing.T) {
	const k, batch = 4, 8
	h := newAdaptHarness(t, k, batch, [2]int{1, k})
	for i := 0; i < batch; i++ {
		if err := h.r.Emit(types.Tuple{types.Int(int64(i)), types.Str("payload")}); err != nil {
			t.Fatal(err)
		}
	}
	got := h.drain()
	var frames [][]byte
	for task, envs := range got {
		if len(envs) != 1 || envs[0].count != batch {
			t.Fatalf("cell %d got %d frames, want one of %d rows", task, len(envs), batch)
		}
		if envs[0].pframe == nil {
			t.Fatalf("cell %d frame is not pooled", task)
		}
		frames = append(frames, envs[0].frame)
	}
	want := int64(k * len(frames[0]))
	if out := h.r.metrics.BytesOut.Load(); out != want {
		t.Fatalf("BytesOut = %d, want %d cells x %d bytes = %d", out, k, len(frames[0]), want)
	}
	for i := range frames {
		if !bytes.Equal(frames[i], frames[0]) {
			t.Fatalf("cell %d frame differs from cell 0", i)
		}
		lo := uintptr(unsafe.Pointer(unsafe.SliceData(frames[i])))
		for j := i + 1; j < len(frames); j++ {
			lo2 := uintptr(unsafe.Pointer(unsafe.SliceData(frames[j])))
			if lo < lo2+uintptr(cap(frames[j])) && lo2 < lo+uintptr(cap(frames[i])) {
				t.Fatalf("cells %d and %d share a frame backing array", i, j)
			}
		}
	}
}

// TestReshapePlanMatchesTable pins the migration rule: stated in hypercube
// coordinates, it must produce exactly the 2-D 1-Bucket exports the matrix
// rule produced before it — keep flag, primary flag and destination set for
// every old cell and relation of every (old, new) matrix pair over at most 8
// machines (testdata/reshape_plan.txt, captured from that rule).
func TestReshapePlanMatchesTable(t *testing.T) {
	table, err := os.ReadFile("testdata/reshape_plan.txt")
	if err != nil {
		t.Fatal(err)
	}
	shape := func(dims string) *core.Hypercube {
		var rows, cols int
		if _, err := fmt.Sscanf(dims, "%dx%d", &rows, &cols); err != nil {
			t.Fatalf("matrix %q: %v", dims, err)
		}
		hc, err := core.OneBucket(core.JoinSpec{Names: []string{"R", "S"}, Sizes: []int64{1, 1}}, 8, rows, cols)
		if err != nil {
			t.Fatal(err)
		}
		return hc
	}
	checked := 0
	for _, line := range strings.Split(strings.TrimSpace(string(table)), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		var oldDims, newDims, dests string
		var task, rel, keep, primary int
		if _, err := fmt.Sscan(line, &oldDims, &newDims, &task, &rel, &keep, &primary, &dests); err != nil {
			t.Fatalf("line %q: %v", line, err)
		}
		gotKeep, gotPrimary, gotDests := reshapePlan(shape(oldDims), shape(newDims), task, rel)
		got := "-"
		if len(gotDests) > 0 {
			got = strings.Trim(strings.Join(strings.Fields(fmt.Sprint(gotDests)), ","), "[]")
		}
		if gotKeep != (keep == 1) || gotPrimary != (primary == 1) || got != dests {
			t.Fatalf("%s -> %s cell %d rel %d: keep %v primary %v dests %s, want %q", oldDims, newDims, task, rel, gotKeep, gotPrimary, got, line)
		}
		checked++
	}
	// Every old cell of the 20 matrices that fit 8 machines, against each of
	// the 20 new matrices, for both relations.
	cells := 0
	for rows := 1; rows <= 8; rows++ {
		for cols := 1; rows*cols <= 8; cols++ {
			cells += rows * cols
		}
	}
	if want := cells * 20 * 2; checked != want {
		t.Fatalf("checked %d table rows, want %d", checked, want)
	}
}
