package dataflow

import (
	"errors"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"squall/internal/core"
	"squall/internal/recovery"
)

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
			b.Spout("R", 1, sliceRows(rRows))
			b.Spout("S", 1, sliceRows(sRows))
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
		Spout("src", 1, sliceRows(intRows(10))).
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

// TestTaskDoubleFaultSourceFails: a task still restoring its own state
// when a move set names it as a source — a second fault concurrent with the
// round's — fails with an error naming the double fault. It never exports
// its empty state nor acks the round.
func TestTaskDoubleFaultSourceFails(t *testing.T) {
	rRows, sRows := recWorkload(4, 4)
	topo, err := NewBuilder().
		Spout("R", 1, sliceRows(rRows)).
		Spout("S", 1, sliceRows(sRows)).
		Bolt("join", 3, func(int, int) Bolt { return &crossJoin{} }).
		Input("join", "R", All()).
		Input("join", "S", Fields(0)).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	pol := recPolicy(3, nil, recovery.NewMemStore(), false, 24)
	ex, err := newExecution(topo, Options{Seed: 1, BatchSize: 4, Recovery: pol})
	if err != nil {
		t.Fatal(err)
	}
	join := topo.byN["join"]
	task := ex.newBoltTask(join, 0)
	if err := task.instance(); err != nil {
		t.Fatal(err)
	}
	if err := task.restart(true); err != nil { // task 0 is restoring after a panic
		t.Fatal(err)
	}
	// Killing task 1 of the 1 x 3 matrix: every task holds the same R copy,
	// and the lowest survivor, task 0, serves it.
	ms, err := core.Moves(pol.Shape, pol.Shape, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	if src := ms.From[0][1]; !slices.Equal(src, []int{0}) {
		t.Fatalf("R of task 1 comes from %v, want task 0", src)
	}
	err = task.handle(envelope{ctrl: ctrlMoves, cmd: &movesCmd{moves: ms, lost: []int{1}}})
	if err == nil || !strings.Contains(err.Error(), "join[0] named as the source of rel 0 while itself recovering (concurrent double fault)") {
		t.Fatalf("err = %v, want join[0]'s concurrent double fault", err)
	}
	ex.moveWG.Wait()
	if n := len(ex.inboxes[join][1]); n != 0 {
		t.Fatalf("the restoring task shipped %d envelopes to the victim", n)
	}
	if n := len(ex.acks); n != 0 {
		t.Fatalf("the restoring task acked the round (%d acks)", n)
	}
}
