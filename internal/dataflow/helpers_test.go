package dataflow

import (
	"sort"
	"sync"

	"squall/internal/types"
	"squall/internal/wire"
)

// encoded runs a tuple source as a spout component: each tuple is encoded
// once, into a reused buffer, as ops.PackedSpout does for planned sources.
func encoded(f SpoutFactory) RowSpoutFactory {
	return func(task, ntasks int) RowSpout { return &encodedSpout{inner: f(task, ntasks)} }
}

type encodedSpout struct {
	inner Spout
	buf   []byte
}

func (s *encodedSpout) NextRow() ([]byte, bool) {
	t, ok := s.inner.Next()
	if !ok {
		return nil, false
	}
	s.buf = wire.Encode(s.buf[:0], t)
	return s.buf, true
}

// sliceRows is SliceSpout run as a spout component.
func sliceRows(rows []types.Tuple) RowSpoutFactory { return encoded(SliceSpout(rows)) }

// genRows is GenSpout run as a spout component.
func genRows(n int, gen func(i int) types.Tuple) RowSpoutFactory { return encoded(GenSpout(n, gen)) }

// rowTargets routes t through g as the executor routes its encoded row.
func rowTargets(g Grouping, t types.Tuple, ntasks int) []int {
	var cur wire.Cursor
	if err := cur.Reset(wire.Encode(nil, t)); err != nil {
		panic(err)
	}
	return g.RowTargets(&cur, ntasks, nil, nil)
}

// emit encodes t and ships it.
func emit(out *Collector, t types.Tuple) error { return out.EmitRow(wire.Encode(nil, t)) }

// FuncBolt adapts plain functions to the Bolt interface. Both may be nil.
type FuncBolt struct {
	OnRow    func(in RowInput, out *Collector) error
	OnFinish func(out *Collector) error
}

// ExecuteRow calls OnRow when set.
func (f FuncBolt) ExecuteRow(in RowInput, out *Collector) error {
	if f.OnRow == nil {
		return nil
	}
	return f.OnRow(in, out)
}

// Finish calls OnFinish when set.
func (f FuncBolt) Finish(out *Collector) error {
	if f.OnFinish == nil {
		return nil
	}
	return f.OnFinish(out)
}

// Gather collects every row reaching any task of a sink component, decoded
// into tuples of their own. All tasks append into one mutex-guarded buffer;
// read Rows after Run returns.
type Gather struct {
	mu   sync.Mutex
	rows []types.Tuple
}

// NewGather returns an empty result gatherer.
func NewGather() *Gather { return &Gather{} }

// Factory returns the BoltFactory registering rows into the gatherer.
func (g *Gather) Factory() BoltFactory {
	return func(task, ntasks int) Bolt {
		return FuncBolt{OnRow: func(in RowInput, _ *Collector) error {
			t := in.Cur.Tuple(nil)
			g.mu.Lock()
			g.rows = append(g.rows, t)
			g.mu.Unlock()
			return nil
		}}
	}
}

// Rows returns the collected tuples (unordered).
func (g *Gather) Rows() []types.Tuple {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]types.Tuple(nil), g.rows...)
}

// SortedRows returns the collected tuples in lexicographic order, for
// deterministic assertions.
func (g *Gather) SortedRows() []types.Tuple {
	rows := g.Rows()
	sort.Slice(rows, func(i, j int) bool { return rows[i].Compare(rows[j]) < 0 })
	return rows
}
