package dataflow

import "squall/internal/types"

// SliceSpout replays a fixed tuple slice, partitioned evenly across the
// source's tasks. Useful in tests and examples.
func SliceSpout(rows []types.Tuple) SpoutFactory {
	return func(task, ntasks int) Spout {
		return &sliceSpout{rows: rows, pos: task, stride: ntasks}
	}
}

type sliceSpout struct {
	rows   []types.Tuple
	pos    int
	stride int
}

func (s *sliceSpout) Next() (types.Tuple, bool) {
	if s.pos >= len(s.rows) {
		return nil, false
	}
	t := s.rows[s.pos]
	s.pos += s.stride
	return t, true
}

// GenSpout produces n tuples per topology (split across tasks) from a
// generator function of the global row index.
func GenSpout(n int, gen func(i int) types.Tuple) SpoutFactory {
	return func(task, ntasks int) Spout {
		return &genSpout{n: n, gen: gen, pos: task, stride: ntasks}
	}
}

type genSpout struct {
	n      int
	gen    func(int) types.Tuple
	pos    int
	stride int
}

func (g *genSpout) Next() (types.Tuple, bool) {
	if g.pos >= g.n {
		return nil, false
	}
	t := g.gen(g.pos)
	g.pos += g.stride
	return t, true
}
