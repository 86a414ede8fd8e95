package dataflow

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"squall/internal/types"
	"squall/internal/wire"
)

// encSpout is a minimal RowSpout: it encodes a fixed slice of tuples into a
// reused buffer, one row per NextRow.
type encSpout struct {
	rows   []types.Tuple
	pos    int
	stride int
	buf    []byte
}

func (s *encSpout) Next() (types.Tuple, bool) {
	if s.pos >= len(s.rows) {
		return nil, false
	}
	t := s.rows[s.pos]
	s.pos += s.stride
	return t, true
}

func (s *encSpout) NextRow() ([]byte, bool) {
	t, ok := s.Next()
	if !ok {
		return nil, false
	}
	s.buf = wire.Encode(s.buf[:0], t)
	return s.buf, true
}

func encSpoutFactory(rows []types.Tuple) SpoutFactory {
	return func(task, ntasks int) Spout { return &encSpout{rows: rows, pos: task, stride: ntasks} }
}

// rowGather records rows arriving through the packed path and which method
// delivered them.
type rowGather struct {
	mu       sync.Mutex
	rows     []types.Tuple
	viaRow   int
	viaTuple int
	task     int
}

func (g *rowGather) Execute(in Input, _ *Collector) error {
	g.mu.Lock()
	g.rows = append(g.rows, in.Tuple)
	g.viaTuple++
	g.mu.Unlock()
	return nil
}

func (g *rowGather) ExecuteRow(in RowInput, _ *Collector) error {
	g.mu.Lock()
	g.rows = append(g.rows, in.Cur.Tuple(nil))
	g.viaRow++
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
// a RowBolt and checks every row arrives exactly once via the
// packed path, partitioned identically to the boxed grouping.
func TestPackedTransportToRowBolt(t *testing.T) {
	for _, batch := range []int{1, 3, 64} {
		rows := packedTestRows(500)
		const par = 4
		sinks := make([]*rowGather, par)
		b := NewBuilder().
			Spout("src", 1, encSpoutFactory(rows)).
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
			if g.viaTuple != 0 {
				t.Fatalf("batch=%d: %d rows bypassed the packed path", batch, g.viaTuple)
			}
			for _, r := range g.rows {
				got[r.Key()]++
				// Packed routing must agree with the boxed grouping.
				if want := int(r.Hash(0, 1) % uint64(par)); want != task {
					t.Fatalf("batch=%d: row %v landed on task %d, boxed grouping says %d", batch, r, task, want)
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

// TestPackedTransportDecodedForPlainBolt checks frames reaching a bolt
// without ExecuteRow arrive decoded and complete.
func TestPackedTransportDecodedForPlainBolt(t *testing.T) {
	rows := packedTestRows(300)
	g := NewGather()
	b := NewBuilder().
		Spout("src", 2, encSpoutFactory(rows)).
		Bolt("sink", 2, g.Factory()).
		Input("sink", "src", Shuffle())
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(topo, Options{Seed: 2, BatchSize: 8}); err != nil {
		t.Fatal(err)
	}
	if len(g.Rows()) != len(rows) {
		t.Fatalf("got %d rows, want %d", len(g.Rows()), len(rows))
	}
	got := map[string]int{}
	for _, r := range g.Rows() {
		got[r.Key()]++
	}
	for _, r := range rows {
		if got[r.Key()] == 0 {
			t.Fatalf("row %v lost", r)
		}
		got[r.Key()]--
	}
}

// TestPackedEmitRowMetrics pins the transport accounting: emitted/sent
// counts are one per row and bytes flow.
func TestPackedEmitRowMetrics(t *testing.T) {
	rows := packedTestRows(200)
	sink := &rowGather{}
	b := NewBuilder().
		Spout("src", 1, encSpoutFactory(rows)).
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

// TestKeyMappedTargetsNoAlloc pins the satellite fix: the per-tuple string
// key the old KeyMapped probe built is gone.
func TestKeyMappedTargetsNoAlloc(t *testing.T) {
	keys := []types.Tuple{
		{types.Int(1)}, {types.Int(2)}, {types.Int(3)}, {types.Str("x")},
	}
	km := RoundRobinKeyMap(keys, []int{0}, 3)
	tu := types.Tuple{types.Int(2), types.Str("payload")}
	buf := make([]int, 0, 4)
	allocs := testing.AllocsPerRun(1000, func() {
		buf = km.Targets(tu, 3, nil, buf[:0])
	})
	if allocs != 0 {
		t.Fatalf("KeyMapped.Targets allocates %.1f per call, want 0", allocs)
	}
	row := wire.Encode(nil, tu)
	var cur wire.Cursor
	if err := cur.Reset(row); err != nil {
		t.Fatal(err)
	}
	allocs = testing.AllocsPerRun(1000, func() {
		buf = km.RowTargets(&cur, 3, nil, buf[:0])
	})
	if allocs != 0 {
		t.Fatalf("KeyMapped.RowTargets allocates %.1f per call, want 0", allocs)
	}
	// Mapped and fallback-hashed keys must agree between the two paths.
	for _, probe := range []types.Tuple{{types.Int(2)}, {types.Int(99)}, {types.Str("x")}} {
		want := km.Targets(probe, 3, nil, nil)
		r := wire.Encode(nil, probe)
		if err := cur.Reset(r); err != nil {
			t.Fatal(err)
		}
		got := km.RowTargets(&cur, 3, nil, nil)
		if len(got) != 1 || got[0] != want[0] {
			t.Fatalf("probe %v: RowTargets %v, Targets %v", probe, got, want)
		}
	}
}
