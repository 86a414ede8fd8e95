package dataflow

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"squall/internal/types"
	"squall/internal/wire"
)

func intRows(n int) []types.Tuple {
	rows := make([]types.Tuple, n)
	for i := range rows {
		rows[i] = types.Tuple{types.Int(int64(i)), types.Int(int64(i % 10))}
	}
	return rows
}

func TestBuilderValidation(t *testing.T) {
	cases := []struct {
		name  string
		build func() (*Topology, error)
	}{
		{"no spouts", func() (*Topology, error) {
			return NewBuilder().Build()
		}},
		{"duplicate name", func() (*Topology, error) {
			return NewBuilder().
				Spout("a", 1, sliceRows(nil)).
				Spout("a", 1, sliceRows(nil)).Build()
		}},
		{"zero parallelism", func() (*Topology, error) {
			return NewBuilder().Spout("a", 0, sliceRows(nil)).Build()
		}},
		{"bolt without input", func() (*Topology, error) {
			return NewBuilder().
				Spout("a", 1, sliceRows(nil)).
				Bolt("b", 1, func(int, int) Bolt { return FuncBolt{} }).Build()
		}},
		{"input to spout", func() (*Topology, error) {
			return NewBuilder().
				Spout("a", 1, sliceRows(nil)).
				Spout("b", 1, sliceRows(nil)).
				Input("a", "b", Shuffle()).Build()
		}},
		{"unknown source", func() (*Topology, error) {
			return NewBuilder().
				Spout("a", 1, sliceRows(nil)).
				Bolt("b", 1, func(int, int) Bolt { return FuncBolt{} }).
				Input("b", "zzz", Shuffle()).Build()
		}},
		{"duplicate edge", func() (*Topology, error) {
			return NewBuilder().
				Spout("a", 1, sliceRows(nil)).
				Bolt("b", 1, func(int, int) Bolt { return FuncBolt{} }).
				Input("b", "a", Shuffle()).
				Input("b", "a", Shuffle()).Build()
		}},
		{"nil grouping", func() (*Topology, error) {
			return NewBuilder().
				Spout("a", 1, sliceRows(nil)).
				Bolt("b", 1, func(int, int) Bolt { return FuncBolt{} }).
				Input("b", "a", nil).Build()
		}},
	}
	for _, c := range cases {
		if _, err := c.build(); err == nil {
			t.Errorf("%s: expected build error", c.name)
		}
	}
}

func TestCycleDetection(t *testing.T) {
	pass := func(int, int) Bolt {
		return FuncBolt{OnRow: func(in RowInput, out *Collector) error { return out.EmitRow(in.Row) }}
	}
	_, err := NewBuilder().
		Spout("src", 1, sliceRows(nil)).
		Bolt("x", 1, pass).
		Bolt("y", 1, pass).
		Input("x", "src", Shuffle()).
		Input("x", "y", Shuffle()).
		Input("y", "x", Shuffle()).
		Build()
	if err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Errorf("cycle must be rejected, got %v", err)
	}
}

func TestLinearPipelineDeliversAll(t *testing.T) {
	rows := intRows(1000)
	sink := NewGather()
	double := func(int, int) Bolt {
		return FuncBolt{OnRow: func(in RowInput, out *Collector) error {
			return emit(out, types.Tuple{types.Int(in.Cur.Tuple(nil)[0].I * 2)})
		}}
	}
	topo, err := NewBuilder().
		Spout("src", 3, sliceRows(rows)).
		Bolt("double", 4, double).
		Bolt("sink", 1, sink.Factory()).
		Input("double", "src", Shuffle()).
		Input("sink", "double", Global()).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	m, err := Run(topo, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	got := sink.SortedRows()
	if len(got) != 1000 {
		t.Fatalf("sink received %d rows", len(got))
	}
	for i, r := range got {
		if r[0].I != int64(2*i) {
			t.Fatalf("row %d = %v", i, r)
		}
	}
	if m.Component("src").EmittedTotal() != 1000 {
		t.Errorf("src emitted %d", m.Component("src").EmittedTotal())
	}
	if m.Component("double").ReceivedTotal() != 1000 {
		t.Errorf("double received %d", m.Component("double").ReceivedTotal())
	}
}

func TestFieldsGroupingCoLocatesKeys(t *testing.T) {
	rows := intRows(500)
	var seen [4]map[int64]bool
	for i := range seen {
		seen[i] = map[int64]bool{}
	}
	factory := func(task, _ int) Bolt {
		return FuncBolt{OnRow: func(in RowInput, _ *Collector) error {
			seen[task][in.Cur.Tuple(nil)[1].I] = true // single-threaded per task
			return nil
		}}
	}
	topo, _ := NewBuilder().
		Spout("src", 2, sliceRows(rows)).
		Bolt("agg", 4, factory).
		Input("agg", "src", Fields(1)).
		Build()
	if _, err := Run(topo, Options{Seed: 2}); err != nil {
		t.Fatal(err)
	}
	owner := map[int64]int{}
	for task, keys := range seen {
		for k := range keys {
			if prev, dup := owner[k]; dup && prev != task {
				t.Fatalf("key %d seen at tasks %d and %d", k, prev, task)
			}
			owner[k] = task
		}
	}
	if len(owner) != 10 {
		t.Errorf("expected all 10 keys somewhere, got %d", len(owner))
	}
}

func TestAllGroupingBroadcasts(t *testing.T) {
	rows := intRows(100)
	sink := NewGather()
	topo, _ := NewBuilder().
		Spout("src", 1, sliceRows(rows)).
		Bolt("sink", 5, sink.Factory()).
		Input("sink", "src", All()).
		Build()
	m, err := Run(topo, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(sink.Rows()); got != 500 {
		t.Errorf("broadcast delivered %d, want 500", got)
	}
	if rf := m.ReplicationFactor("sink"); rf != 5.0 {
		t.Errorf("replication factor = %g, want 5", rf)
	}
}

func TestShuffleIsDeterministicPerSeed(t *testing.T) {
	run := func(seed int64) int64 {
		rows := intRows(300)
		topo, _ := NewBuilder().
			Spout("src", 1, sliceRows(rows)).
			Bolt("b", 4, func(int, int) Bolt { return FuncBolt{} }).
			Input("b", "src", Shuffle()).
			Build()
		m, err := Run(topo, Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return m.Component("b").Tasks[0].Received.Load()
	}
	if run(7) != run(7) {
		t.Error("same seed must give identical routing")
	}
}

func TestBoltErrorAbortsRun(t *testing.T) {
	rows := intRows(10000)
	boom := errors.New("boom")
	factory := func(int, int) Bolt {
		n := 0
		return FuncBolt{OnRow: func(RowInput, *Collector) error {
			n++
			if n == 50 {
				return boom
			}
			return nil
		}}
	}
	topo, _ := NewBuilder().
		Spout("src", 2, sliceRows(rows)).
		Bolt("b", 2, factory).
		Input("b", "src", Shuffle()).
		Build()
	_, err := Run(topo, Options{})
	if err == nil || !errors.Is(err, boom) {
		t.Errorf("expected boom, got %v", err)
	}
}

type hog struct{ sz int }

func (h *hog) ExecuteRow(RowInput, *Collector) error { h.sz += 1 << 12; return nil }
func (h *hog) Finish(*Collector) error               { return nil }
func (h *hog) MemSize() int                          { return h.sz }

func TestMemoryOverflowAborts(t *testing.T) {
	rows := intRows(5000)
	topo, _ := NewBuilder().
		Spout("src", 1, sliceRows(rows)).
		Bolt("state", 1, func(int, int) Bolt { return &hog{} }).
		Input("state", "src", Shuffle()).
		Build()
	m, err := Run(topo, Options{MemLimitPerTask: 1 << 20})
	if !errors.Is(err, ErrMemoryOverflow) {
		t.Fatalf("expected memory overflow, got %v", err)
	}
	if m == nil || m.Component("state").ReceivedTotal() == 0 {
		t.Error("partial metrics must be available after overflow")
	}
	if m.Component("state").Tasks[0].MaxMem.Load() == 0 {
		t.Error("MaxMem must have been recorded")
	}
}

func TestFinishRunsAfterAllEOS(t *testing.T) {
	rows := intRows(100)
	sink := NewGather()
	counter := func(int, int) Bolt {
		n := int64(0)
		return FuncBolt{
			OnRow:    func(RowInput, *Collector) error { n++; return nil },
			OnFinish: func(out *Collector) error { return emit(out, types.Tuple{types.Int(n)}) },
		}
	}
	topo, _ := NewBuilder().
		Spout("src", 3, sliceRows(rows)).
		Bolt("count", 2, counter).
		Bolt("sink", 1, sink.Factory()).
		Input("count", "src", Shuffle()).
		Input("sink", "count", Global()).
		Build()
	if _, err := Run(topo, Options{Seed: 5}); err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, r := range sink.Rows() {
		total += r[0].I
	}
	if total != 100 {
		t.Errorf("counted %d tuples across tasks, want 100", total)
	}
}

func TestMultipleInputStreamsAndEOSFanIn(t *testing.T) {
	a := intRows(50)
	b := intRows(70)
	sink := NewGather()
	tag := func(int, int) Bolt {
		return FuncBolt{OnRow: func(in RowInput, out *Collector) error {
			return emit(out, types.Tuple{types.Str(in.Stream)})
		}}
	}
	topo, _ := NewBuilder().
		Spout("A", 2, sliceRows(a)).
		Spout("B", 3, sliceRows(b)).
		Bolt("merge", 2, tag).
		Bolt("sink", 1, sink.Factory()).
		Input("merge", "A", Shuffle()).
		Input("merge", "B", Shuffle()).
		Input("sink", "merge", Global()).
		Build()
	if _, err := Run(topo, Options{Seed: 3}); err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, r := range sink.Rows() {
		counts[r[0].Str]++
	}
	if counts["A"] != 50 || counts["B"] != 70 {
		t.Errorf("stream counts = %v", counts)
	}
}

func TestSerializationHopProducesFreshTuples(t *testing.T) {
	rows := []types.Tuple{{types.Str("shared-backing")}}
	var got types.Tuple
	factory := func(int, int) Bolt {
		return FuncBolt{OnRow: func(in RowInput, _ *Collector) error {
			got = in.Cur.Tuple(nil)
			return nil
		}}
	}
	topo, _ := NewBuilder().
		Spout("src", 1, sliceRows(rows)).
		Bolt("b", 1, factory).
		Input("b", "src", Shuffle()).
		Build()
	m, err := Run(topo, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Compare(rows[0]) != 0 {
		t.Errorf("tuple mangled over the wire: %v", got)
	}
	if m.TotalBytesOut() == 0 {
		t.Error("serialized bytes must be accounted")
	}
	if m.TotalSent() != 1 {
		t.Errorf("TotalSent = %d", m.TotalSent())
	}
}

func TestKeyMappedRoundRobinBalances(t *testing.T) {
	// 15 distinct keys over 8 tasks: hash assignment very likely collides
	// (the paper's d≈p problem); round-robin guarantees ≤ 2 keys per task.
	keys := make([]types.Tuple, 15)
	for i := range keys {
		keys[i] = types.Tuple{types.Int(int64(i))}
	}
	g := RoundRobinKeyMap(keys, []int{0}, 8)
	perTask := map[int]int{}
	for i := 0; i < 15; i++ {
		perTask[rowTargets(g, types.Tuple{types.Int(int64(i))}, 8)[0]]++
	}
	for task, n := range perTask {
		if n > 2 {
			t.Errorf("task %d got %d keys, round-robin bound is 2", task, n)
		}
	}
	if len(perTask) != 8 {
		t.Errorf("all 8 tasks must receive keys, got %d", len(perTask))
	}
	// Unknown keys fall back to hashing rather than dropping.
	targets := rowTargets(g, types.Tuple{types.Int(999)}, 8)
	if len(targets) != 1 || targets[0] < 0 || targets[0] >= 8 {
		t.Errorf("fallback target = %v", targets)
	}
}

func TestIntermediateNetworkFactor(t *testing.T) {
	rows := intRows(100)
	pass := func(int, int) Bolt {
		return FuncBolt{OnRow: func(in RowInput, out *Collector) error { return out.EmitRow(in.Row) }}
	}
	topo, _ := NewBuilder().
		Spout("src", 1, sliceRows(rows)).
		Bolt("mid", 2, pass).
		Bolt("out", 1, pass).
		Input("mid", "src", Shuffle()).
		Input("out", "mid", Global()).
		Build()
	m, err := Run(topo, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The paper sums input+output over ALL component tasks (data sources
	// included): src 0+100, mid 100+100, out 100+0 = 400. Query input is 100
	// (spout emitted), query output 100 (sink emitted).
	want := float64(100+100+100+100) / float64(100+100)
	if got := m.IntermediateNetworkFactor(); got != want {
		t.Errorf("intermediate network factor = %g, want %g", got, want)
	}
}

// badGrouping routes every row past the last task.
type badGrouping struct{}

func (badGrouping) RowTargets(_ *wire.Cursor, ntasks int, _ *rand.Rand, buf []int) []int {
	return append(buf, ntasks+5)
}

func TestGroupingBadTargetAborts(t *testing.T) {
	rows := intRows(10)
	topo, _ := NewBuilder().
		Spout("src", 1, sliceRows(rows)).
		Bolt("b", 2, func(int, int) Bolt { return FuncBolt{} }).
		Input("b", "src", badGrouping{}).
		Build()
	_, err := Run(topo, Options{})
	if err == nil || !strings.Contains(err.Error(), "chose task") {
		t.Errorf("bad target must abort: %v", err)
	}
}

func ExampleRun() {
	rows := []types.Tuple{{types.Int(1)}, {types.Int(2)}, {types.Int(3)}}
	sum := int64(0)
	topo, _ := NewBuilder().
		Spout("numbers", 1, sliceRows(rows)).
		Bolt("sum", 1, func(int, int) Bolt {
			return FuncBolt{OnRow: func(in RowInput, _ *Collector) error {
				v, _ := in.Cur.Int(0)
				sum += v
				return nil
			}}
		}).
		Input("sum", "numbers", Global()).
		Build()
	if _, err := Run(topo, Options{}); err != nil {
		panic(err)
	}
	fmt.Println(sum)
	// Output: 6
}
