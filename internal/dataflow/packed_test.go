package dataflow

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"squall/internal/types"
	"squall/internal/wire"
)

// rowGather records the rows one task receives.
type rowGather struct {
	mu   sync.Mutex
	rows []types.Tuple
	task int
}

func (g *rowGather) ExecuteRow(in RowInput, _ *Collector) error {
	g.mu.Lock()
	g.rows = append(g.rows, in.Cur.Tuple(nil))
	g.mu.Unlock()
	return nil
}

func (g *rowGather) Finish(*Collector) error { return nil }

func packedTestRows(n int) []types.Tuple {
	rng := rand.New(rand.NewSource(3))
	rows := make([]types.Tuple, n)
	for i := range rows {
		rows[i] = types.Tuple{
			types.Int(int64(rng.Intn(16))),
			types.Str(fmt.Sprintf("p%d", rng.Intn(9))),
			types.Int(int64(i)),
		}
	}
	return rows
}

// TestPackedTransportToRowBolt runs a RowSpout through Fields routing into
// a bolt and checks every row arrives exactly once, on the task
// types.Tuple.Hash picks.
func TestPackedTransportToRowBolt(t *testing.T) {
	for _, batch := range []int{1, 3, 64} {
		rows := packedTestRows(500)
		const par = 4
		sinks := make([]*rowGather, par)
		b := NewBuilder().
			Spout("src", 1, sliceRows(rows)).
			Bolt("sink", par, func(task, ntasks int) Bolt {
				sinks[task] = &rowGather{task: task}
				return sinks[task]
			}).
			Input("sink", "src", Fields(0, 1))
		topo, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Run(topo, Options{Seed: 1, BatchSize: batch}); err != nil {
			t.Fatal(err)
		}
		got := map[string]int{}
		for task, g := range sinks {
			for _, r := range g.rows {
				got[r.Key()]++
				if want := int(r.Hash(0, 1) % uint64(par)); want != task {
					t.Fatalf("batch=%d: row %v landed on task %d, its hash says %d", batch, r, task, want)
				}
			}
		}
		for _, r := range rows {
			if got[r.Key()] == 0 {
				t.Fatalf("batch=%d: row %v lost", batch, r)
			}
			got[r.Key()]--
		}
	}
}

// TestPackedEmitRowMetrics pins the transport accounting: emitted/sent
// counts are one per row and bytes flow.
func TestPackedEmitRowMetrics(t *testing.T) {
	rows := packedTestRows(200)
	sink := &rowGather{}
	b := NewBuilder().
		Spout("src", 1, sliceRows(rows)).
		Bolt("sink", 1, func(task, ntasks int) Bolt { return sink }).
		Input("sink", "src", Global())
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	m, err := Run(topo, Options{Seed: 3, BatchSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	src := m.Components["src"].Tasks[0]
	if src.Emitted.Load() != int64(len(rows)) || src.Sent.Load() != int64(len(rows)) {
		t.Fatalf("emitted %d sent %d, want %d", src.Emitted.Load(), src.Sent.Load(), len(rows))
	}
	if src.BytesOut.Load() == 0 {
		t.Fatal("no bytes accounted on the packed path")
	}
	if got := m.Components["sink"].Tasks[0].Received.Load(); got != int64(len(rows)) {
		t.Fatalf("received %d, want %d", got, len(rows))
	}
}

// TestKeyMappedTargetsNoAlloc: the KeyMapped probe builds no per-row
// string key, and mapped and fallback-hashed keys land where the map and
// types.Tuple.Hash say.
func TestKeyMappedTargetsNoAlloc(t *testing.T) {
	keys := []types.Tuple{
		{types.Int(1)}, {types.Int(2)}, {types.Int(3)}, {types.Str("x")},
	}
	km := RoundRobinKeyMap(keys, []int{0}, 3)
	row := wire.Encode(nil, types.Tuple{types.Int(2), types.Str("payload")})
	var cur wire.Cursor
	if err := cur.Reset(row); err != nil {
		t.Fatal(err)
	}
	buf := make([]int, 0, 4)
	allocs := testing.AllocsPerRun(1000, func() {
		buf = km.RowTargets(&cur, 3, nil, buf[:0])
	})
	if allocs != 0 {
		t.Fatalf("KeyMapped.RowTargets allocates %.1f per call, want 0", allocs)
	}
	for _, probe := range []types.Tuple{{types.Int(2)}, {types.Int(99)}, {types.Str("x")}} {
		want, ok := km.M[probe.Key(0)]
		if !ok {
			want = int(probe.Hash(0) % 3)
		}
		if err := cur.Reset(wire.Encode(nil, probe)); err != nil {
			t.Fatal(err)
		}
		if got := km.RowTargets(&cur, 3, nil, nil); len(got) != 1 || got[0] != want {
			t.Fatalf("probe %v: RowTargets %v, want [%d]", probe, got, want)
		}
	}
}
