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
	"strings"
	"testing"

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
		Spout("src", 3, SliceSpout(rows)).
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
	return FuncBolt{OnTuple: func(in Input, out *Collector) error {
		return out.Emit(in.Tuple)
	}}
}

func assertNoDoublePut(t *testing.T, errs []string) {
	t.Helper()
	for _, e := range errs {
		t.Errorf("pool lifecycle violation: %s", e)
	}
}

// TestPoolLedgerCleanRuns: a run that finishes normally must return every box
// to the pools, across every transport mode. NoSerialize is the regression
// case: before Collector.close() the last flush of each output slot stranded
// one batch box per (task, edge, target) forever.
func TestPoolLedgerCleanRuns(t *testing.T) {
	cases := []struct {
		name string
		opts Options
	}{
		{"packed", Options{Seed: 1}},
		{"per-tuple", Options{Seed: 1, BatchSize: 1}},
		{"noserialize", Options{Seed: 1, NoSerialize: true}},
		{"vecexec", Options{Seed: 1, VecExec: true}},
		{"tiny-buf", Options{Seed: 1, ChannelBuf: 2, BatchSize: 4}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			startPoolLedger()
			topo, g := ledgerTopo(t, intRows(500), passBolt)
			_, err := Run(topo, tc.opts)
			outstanding, errs := stopPoolLedger()
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if got := len(g.Rows()); got != 500 {
				t.Fatalf("rows = %d, want 500", got)
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
				return FuncBolt{OnTuple: func(in Input, out *Collector) error {
					n++
					if task == 1 && n > 40 {
						return boom
					}
					return out.Emit(in.Tuple)
				}}
			},
			wantErr: "boom",
		},
		{
			name: "bolt error noserialize",
			opts: Options{Seed: 1, NoSerialize: true},
			mid: func(task, _ int) Bolt {
				n := 0
				return FuncBolt{OnTuple: func(in Input, out *Collector) error {
					n++
					if task == 2 && n > 25 {
						return boom
					}
					return out.Emit(in.Tuple)
				}}
			},
			wantErr: "boom",
		},
		{
			name: "panic without recovery",
			opts: Options{Seed: 1},
			mid: func(task, _ int) Bolt {
				n := 0
				return FuncBolt{OnTuple: func(in Input, out *Collector) error {
					n++
					if task == 0 && n > 30 {
						panic("ledger-panic")
					}
					return out.Emit(in.Tuple)
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

func (h *hoardBolt) Execute(in Input, _ *Collector) error {
	h.rows = append(h.rows, in.Tuple)
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
// batch path, so once the pools are warm a tuple costs only its decoded
// copy (the value arena a real network hop would allocate too) beyond what
// a full batch costs per tuple — no per-tuple batch slice, envelope box or
// frame buffer — and every box taken goes back to the pools.
func TestBatchSizeOneAllocsPerTuple(t *testing.T) {
	const n = 20_000
	rows := intRows(n)
	run := func(batch int) {
		var got int
		topo, err := NewBuilder().
			Spout("src", 1, SliceSpout(rows)).
			Bolt("sink", 1, func(int, int) Bolt {
				return FuncBolt{OnTuple: func(Input, *Collector) error { got++; return nil }}
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
	if one-full > 1.25 {
		t.Errorf("batch=1 allocates %.2f objects per tuple beyond a full batch's %.2f; want at most the decoded copy", one-full, full)
	}
}
