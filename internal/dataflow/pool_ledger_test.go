// Pool-lifecycle audits (PR 7 satellite): every run below executes under an
// installed pool ledger and asserts the recycling protocol the transport
// relies on. Clean runs must return every frame/batch box they took; abort
// paths (bolt error, panic without recovery, memory overflow, fault rounds)
// may leak boxes riding dropped envelopes but must never double-put one —
// a double-put hands the same buffer to two producers and corrupts frames.
//
// These tests share the process-global pools, so they must not run in
// parallel with each other or with other tests; keep t.Parallel() out.

package dataflow

import (
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"squall/internal/core"
	"squall/internal/expr"
	"squall/internal/recovery"
	"squall/internal/types"
)

// ledgerTopo builds spout(3) -> double(4) -> sink(1) — the same linear shape
// the transport tests use, deep enough to exercise pooled frames on both the
// shuffle and the global edge.
func ledgerTopo(t *testing.T, rows []types.Tuple, mid BoltFactory) (*Topology, *Gather) {
	t.Helper()
	g := NewGather()
	topo, err := NewBuilder().
		Spout("src", 3, sliceRows(rows)).
		Bolt("double", 4, mid).
		Bolt("sink", 1, g.Factory()).
		Input("double", "src", Shuffle()).
		Input("sink", "double", Global()).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return topo, g
}

func passBolt(int, int) Bolt {
	return FuncBolt{OnRow: func(in RowInput, out *Collector) error {
		return out.EmitRow(in.Row)
	}}
}

func assertNoDoublePut(t *testing.T, errs []string) {
	t.Helper()
	for _, e := range errs {
		t.Errorf("pool lifecycle violation: %s", e)
	}
}

// TestPoolLedgerCleanRuns: a run that finishes normally must return every box
// to the pools, across every transport mode. The adaptive case routes through
// the pooled coordinate frames, each flush copying its frame per cell.
func TestPoolLedgerCleanRuns(t *testing.T) {
	linear := func(t *testing.T) (*Topology, *Gather, int) {
		topo, g := ledgerTopo(t, intRows(500), passBolt)
		return topo, g, 500
	}
	adaptiveTopo := func(t *testing.T) (*Topology, *Gather, int) {
		topo, g := buildAdaptiveTopo(t, 300, 40, 4, func() Bolt { return &pairBolt{} })
		return topo, g, 300 * 40
	}
	pol := &AdaptivePolicy{
		Component: "join", RStream: "R", SStream: "S",
		InitialRows: 1, InitialCols: 4, ReportEvery: 8, MinObserved: 32, MinGain: 0.01,
	}
	cases := []struct {
		name  string
		build func(t *testing.T) (*Topology, *Gather, int)
		opts  Options
	}{
		{"packed", linear, Options{Seed: 1}},
		{"per-tuple", linear, Options{Seed: 1, BatchSize: 1}},
		{"tiny-buf", linear, Options{Seed: 1, ChannelBuf: 2, BatchSize: 4}},
		{"adaptive", adaptiveTopo, Options{Seed: 1, BatchSize: 16, ChannelBuf: 8, Adaptive: pol}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			startPoolLedger()
			topo, g, want := tc.build(t)
			_, err := Run(topo, tc.opts)
			outstanding, errs := stopPoolLedger()
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if got := len(g.Rows()); got != want {
				t.Fatalf("rows = %d, want %d", got, want)
			}
			assertNoDoublePut(t, errs)
			for _, site := range outstanding {
				t.Errorf("leaked pool box, checked out at %s", site)
			}
		})
	}
}

// TestPoolLedgerAbortPaths: runs that die mid-stream may drop boxes but must
// never double-put one.
func TestPoolLedgerAbortPaths(t *testing.T) {
	boom := errors.New("boom")
	cases := []struct {
		name    string
		opts    Options
		mid     BoltFactory
		wantErr string
	}{
		{
			name: "bolt error",
			opts: Options{Seed: 1},
			mid: func(task, _ int) Bolt {
				n := 0
				return FuncBolt{OnRow: func(in RowInput, out *Collector) error {
					n++
					if task == 1 && n > 40 {
						return boom
					}
					return out.EmitRow(in.Row)
				}}
			},
			wantErr: "boom",
		},
		{
			name: "panic without recovery",
			opts: Options{Seed: 1},
			mid: func(task, _ int) Bolt {
				n := 0
				return FuncBolt{OnRow: func(in RowInput, out *Collector) error {
					n++
					if task == 0 && n > 30 {
						panic("ledger-panic")
					}
					return out.EmitRow(in.Row)
				}}
			},
			wantErr: "ledger-panic",
		},
		{
			name:    "memory overflow",
			opts:    Options{Seed: 1, MemLimitPerTask: 64},
			mid:     func(int, int) Bolt { return &hoardBolt{} },
			wantErr: ErrMemoryOverflow.Error(),
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			startPoolLedger()
			topo, _ := ledgerTopo(t, intRows(500), tc.mid)
			_, err := Run(topo, tc.opts)
			_, errs := stopPoolLedger()
			if err == nil {
				t.Fatal("run succeeded, want abort")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("err = %v, want substring %q", err, tc.wantErr)
			}
			assertNoDoublePut(t, errs)
		})
	}
}

// hoardBolt retains every tuple and reports its growth, tripping
// MemLimitPerTask.
type hoardBolt struct{ rows []types.Tuple }

func (h *hoardBolt) ExecuteRow(in RowInput, _ *Collector) error {
	h.rows = append(h.rows, in.Cur.Tuple(nil))
	return nil
}
func (h *hoardBolt) Finish(*Collector) error { return nil }
func (h *hoardBolt) MemSize() int            { return len(h.rows) * 64 }

// TestPoolLedgerRecoveryRun: a kill/replay round churns envelopes through
// stash, checkpoint and replay paths; the run completes, so it must both
// avoid double-puts and return every box.
func TestPoolLedgerRecoveryRun(t *testing.T) {
	startPoolLedger()
	rRows, sRows := recWorkload(40, 300)
	bag, _ := runRecTopology(t, rRows, sRows, 3,
		recPolicy(3, &FaultPlan{Task: 1, AfterTuples: 40}, recovery.NewMemStore(), false, 24),
		nil, Options{Seed: 7})
	outstanding, errs := stopPoolLedger()
	if len(bag) == 0 {
		t.Fatal("recovered run produced no rows")
	}
	assertNoDoublePut(t, errs)
	for _, site := range outstanding {
		t.Errorf("leaked pool box after recovered run, checked out at %s", site)
	}
}

// TestBatchSizeOneAllocsPerTuple: one-row batches ride the ordinary pooled
// batch path, so once the pools are warm a tuple costs no more than a full
// batch costs per tuple — no per-tuple batch slice, envelope box or frame
// buffer — and every box taken goes back to the pools. Rows are read in
// place, so either costs well under one allocation per tuple.
func TestBatchSizeOneAllocsPerTuple(t *testing.T) {
	const n = 20_000
	rows := intRows(n)
	run := func(batch int) {
		var got int
		topo, err := NewBuilder().
			Spout("src", 1, sliceRows(rows)).
			Bolt("sink", 1, func(int, int) Bolt {
				return FuncBolt{OnRow: func(RowInput, *Collector) error { got++; return nil }}
			}).
			Input("sink", "src", Global()).
			Build()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Run(topo, Options{Seed: 1, BatchSize: batch}); err != nil {
			t.Fatal(err)
		}
		if got != n {
			t.Fatalf("batch=%d delivered %d of %d tuples", batch, got, n)
		}
	}
	startPoolLedger()
	run(1)
	outstanding, errs := stopPoolLedger()
	assertNoDoublePut(t, errs)
	for _, site := range outstanding {
		t.Errorf("batch=1 leaked pool box, checked out at %s", site)
	}

	perTuple := func(batch int) float64 { return testing.AllocsPerRun(3, func() { run(batch) }) / n }
	one, full := perTuple(1), perTuple(DefaultBatchSize)
	t.Logf("allocs/tuple: batch=1 %.3f, batch=%d %.3f", one, DefaultBatchSize, full)
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	if one-full > 0.1 {
		t.Errorf("batch=1 allocates %.2f objects per tuple beyond a full batch's %.2f; one-row frames are pooled, so want at most 0.1", one-full, full)
	}
	if full > 0.1 {
		t.Errorf("batch=%d allocates %.3f objects per tuple; want at most 0.1", DefaultBatchSize, full)
	}
}

// TestSpoutPanicFailsRun: a panic in a spout's goroutine — here the
// hypercube grouping evaluating a computed key, $0 + 1, over a string
// column — fails the run with an error naming the key and the relation
// instead of killing the process. The spout's deferred end-of-stream and
// close still run, so every goroutine exits. S starts only once the joiner
// has taken every row of R, so no frame is in flight when the run aborts
// and the pool ledger must balance.
func TestSpoutPanicFailsRun(t *testing.T) {
	spec := core.JoinSpec{
		Graph: expr.MustJoinGraph(2, expr.JoinConjunct{LRel: 0, RRel: 1, Op: expr.Eq,
			Left: expr.C(0), Right: expr.Arith{Op: expr.Add, L: expr.C(0), R: expr.I(1)}}),
		Names: []string{"R", "S"},
		Sizes: []int64{200, 200},
	}
	hc, err := core.BuildScheme(core.HashHypercube, spec, 2)
	if err != nil {
		t.Fatal(err)
	}
	var r, s []types.Tuple
	for i := 0; i < 200; i++ {
		r = append(r, types.Tuple{types.Int(int64(i))})
		s = append(s, types.Tuple{types.Str("a")})
	}
	var gotR atomic.Int64
	rDone := make(chan struct{})
	baseline := runtime.NumGoroutine()
	startPoolLedger()
	topo, err := NewBuilder().
		Spout("R", 1, sliceRows(r)).
		Spout("S", 1, encoded(func(int, int) Spout { return &gatedSpout{wait: rDone, rows: s} })).
		Bolt("join", hc.Machines(), func(int, int) Bolt {
			return FuncBolt{OnRow: func(in RowInput, _ *Collector) error {
				if in.Stream == "R" && gotR.Add(1) == int64(len(r)) {
					close(rDone)
				}
				return nil
			}}
		}).
		Input("join", "R", hc.GroupingFor(0)).
		Input("join", "S", hc.GroupingFor(1)).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(topo, Options{Seed: 1})
	outstanding, errs := stopPoolLedger()
	if err == nil {
		t.Fatal("run succeeded, want the spout's panic as its error")
	}
	for _, want := range []string{"spout S[0]", "core: key ($0 + 1) of S", "not numeric"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("err = %v, want substring %q", err, want)
		}
	}
	assertNoDoublePut(t, errs)
	for _, site := range outstanding {
		t.Errorf("leaked pool box, checked out at %s", site)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the run, %d before", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// gatedSpout emits rows once wait is closed.
type gatedSpout struct {
	wait <-chan struct{}
	rows []types.Tuple
}

func (g *gatedSpout) Next() (types.Tuple, bool) {
	<-g.wait
	if len(g.rows) == 0 {
		return nil, false
	}
	t := g.rows[0]
	g.rows = g.rows[1:]
	return t, true
}
