package dataflow

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"squall/internal/recovery"
	"squall/internal/types"
)

// mixedRows builds rows of every kind, with strings of varying length.
func mixedRows(n int, tag string) []types.Tuple {
	rows := make([]types.Tuple, n)
	for i := range rows {
		rows[i] = types.Tuple{
			types.Int(int64(i)),
			types.Str(fmt.Sprintf("%s%d-%s", tag, i, strings.Repeat("x", i%7))),
			types.Float(float64(i) / 3),
			types.Null(),
			types.Str(""),
		}
	}
	return rows
}

// runKeepers runs src(2) -> keep(2) -> sink(1), where keep is a FuncBolt
// that retains every tuple it is handed and re-emits it, and the sink is a
// Gather. It returns the keepers' and the sink's tuples.
func runKeepers(t *testing.T, rows []types.Tuple, batch int) (kept, gathered []types.Tuple) {
	t.Helper()
	var mu sync.Mutex
	g := NewGather()
	topo, err := NewBuilder().
		Spout("src", 2, encSpoutFactory(rows)).
		Bolt("keep", 2, func(int, int) Bolt {
			return FuncBolt{OnTuple: func(in Input, out *Collector) error {
				mu.Lock()
				kept = append(kept, in.Tuple)
				mu.Unlock()
				return out.Emit(in.Tuple)
			}}
		}).
		Bolt("sink", 1, g.Factory()).
		Input("keep", "src", Shuffle()).
		Input("sink", "keep", Global()).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(topo, Options{Seed: 3, BatchSize: batch}); err != nil {
		t.Fatal(err)
	}
	return kept, g.Rows()
}

// TestTupleFaceKeepsTuples: a TupleBolt may keep every tuple it is handed.
// Tuples kept by a FuncBolt and by a Gather, strings included, must stay
// intact after the pooled frames they were decoded from carry other rows.
func TestTupleFaceKeepsTuples(t *testing.T) {
	for _, batch := range []int{1, DefaultBatchSize} {
		t.Run(fmt.Sprintf("batch=%d", batch), func(t *testing.T) {
			rows := mixedRows(600, "a")
			kept, gathered := runKeepers(t, rows, batch)
			// A second run recycles the same pooled frames with other bytes.
			runKeepers(t, mixedRows(600, "zz"), batch)
			for name, got := range map[string][]types.Tuple{"FuncBolt": kept, "Gather": gathered} {
				if len(got) != len(rows) {
					t.Fatalf("%s kept %d tuples, want %d", name, len(got), len(rows))
				}
				bag := map[string]int{}
				for _, r := range rows {
					bag[r.Key()]++
				}
				for _, r := range got {
					if bag[r.Key()] == 0 {
						t.Fatalf("%s holds %v, which was never sent (or was overwritten)", name, r)
					}
					bag[r.Key()]--
				}
			}
		})
	}
}

// TestTaskRepartitionerResolvedPerInstance: a recovery-protected task
// resolves Repartitioner on every bolt instance it builds, at start and
// when a kill replaces the bolt, and a missing one fails the run loudly.
func TestTaskRepartitionerResolvedPerInstance(t *testing.T) {
	rRows, sRows := recWorkload(40, 200)
	for _, tc := range []struct {
		name  string
		plain func(calls int64) bool // whether the task's n-th instance lacks Repartitioner
		fault *FaultPlan
	}{
		{"start", func(int64) bool { return true }, nil},
		{"rebirth", func(calls int64) bool { return calls > 1 }, &FaultPlan{Task: 1, AfterTuples: 40}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var calls atomic.Int64
			b := NewBuilder()
			b.Spout("R", 1, SliceSpout(rRows))
			b.Spout("S", 1, SliceSpout(sRows))
			b.Bolt("join", 3, func(task, _ int) Bolt {
				if task == 1 && tc.plain(calls.Add(1)) {
					return FuncBolt{}
				}
				return &crossJoin{}
			})
			b.Bolt("sink", 1, NewGather().Factory())
			b.Input("join", "R", All())
			b.Input("join", "S", Fields(0))
			b.Input("sink", "join", Global())
			topo, err := b.Build()
			if err != nil {
				t.Fatal(err)
			}
			pol := recPolicy(3, tc.fault, recovery.NewMemStore(), false, 24)
			_, err = Run(topo, Options{Seed: 5, BatchSize: 4, Recovery: pol})
			if err == nil || !strings.Contains(err.Error(), "join[1] (dataflow.FuncBolt) does not implement Repartitioner") {
				t.Fatalf("err = %v, want join[1]'s missing Repartitioner", err)
			}
		})
	}
}

// finishPanic panics in Finish.
type finishPanic struct{ FuncBolt }

func (finishPanic) Finish(*Collector) error { panic("finish-boom") }

// TestTaskFinishPanicFails: a panic in Finish goes through the same capture
// as one in a row's callback and fails the run with its value and stack.
func TestTaskFinishPanicFails(t *testing.T) {
	topo, err := NewBuilder().
		Spout("src", 1, SliceSpout(intRows(10))).
		Bolt("b", 1, func(int, int) Bolt { return finishPanic{} }).
		Input("b", "src", Global()).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(topo, Options{})
	var pf *panicFault
	if err == nil || !strings.Contains(err.Error(), "b[0] finish: panicked: finish-boom") || !errors.As(err, &pf) || len(pf.stack) == 0 {
		t.Fatalf("err = %v, want b[0]'s finish panic with its stack", err)
	}
}
