package serve

import (
	"encoding/binary"
	"fmt"

	"squall/internal/dataflow"
	"squall/internal/ops"
	"squall/internal/wire"
)

// TapSpout adapts a Tap into the spout installed in a query plan for a
// shared source. The query's Pre pipeline runs here, per query, over the
// shared rows — the scan and the encode are shared, the selection is not.
//
// Rows flow from the shared frame through the compiled packed pipeline
// without materializing tuples, as they do out of ops.PackedSpout.
//
// With SourcePar > 1 the factory's instances share the tap: tasks steal
// whole frames from one window, which splits the stream arbitrarily but
// preserves bag semantics.
//
// onErr, when non-nil, receives the first pipeline or framing error; the
// spout then ends its stream instead of panicking, so one query's bad
// pipeline never takes down the serving process.
func TapSpout(t *Tap, pre ops.Pipeline, onErr func(error)) dataflow.RowSpoutFactory {
	return func(task, ntasks int) dataflow.RowSpout {
		return &tapRowSpout{tap: t, onErr: onErr, pp: ops.CompilePipeline(pre)}
	}
}

// tapRowSpout walks the shared frames row by row, runs each row through the
// compiled per-query pipeline and hands on the encoded rows it keeps. Once
// per wait for the next shared frame it yields first, so the executor ships
// the rows this query has kept so far before the spout blocks.
type tapRowSpout struct {
	tap     *Tap
	onErr   func(error)
	pp      *ops.PackedPipeline
	frame   []byte // current frame
	pos     int    // read position in frame
	left    int    // rows left in frame
	failed  bool
	yielded bool // the last call yielded; this one may block
	cur     wire.Cursor
}

func (s *tapRowSpout) NextRow() ([]byte, bool) {
	for {
		row, ok := s.nextRaw()
		if !ok || row == nil {
			return nil, ok
		}
		out, _, keep, err := s.pp.RunOne(row, &s.cur)
		if err != nil {
			s.fail(fmt.Errorf("serve: query pipeline: %w", err))
			return nil, false
		}
		if keep {
			return out, true
		}
	}
}

// nextRaw returns the next raw encoded row across frames (no pipeline), or
// (nil, true) to yield when no frame is ready. The row aliases the shared
// frame; the cursor is left parsed on it.
func (s *tapRowSpout) nextRaw() ([]byte, bool) {
	if s.failed {
		return nil, false
	}
	for s.left == 0 {
		if !s.yielded && len(s.tap.ch) == 0 {
			s.yielded = true
			return nil, true
		}
		s.yielded = false
		f, ok := s.tap.NextFrame()
		if !ok {
			if err := s.tap.Err(); err != nil {
				s.fail(err)
			}
			return nil, false
		}
		n, hl := binary.Uvarint(f)
		if hl <= 0 {
			s.fail(fmt.Errorf("serve: tap on %s: bad frame header", s.tap.src.name))
			return nil, false
		}
		s.frame, s.pos, s.left = f, hl, int(n)
	}
	rl, err := s.cur.Parse(s.frame[s.pos:])
	if err != nil {
		s.fail(fmt.Errorf("serve: tap on %s: %w", s.tap.src.name, err))
		return nil, false
	}
	row := s.frame[s.pos : s.pos+rl]
	s.pos += rl
	s.left--
	return row, true
}

func (s *tapRowSpout) fail(err error) {
	if s.failed {
		return
	}
	s.failed = true
	s.tap.Detach()
	if s.onErr != nil {
		s.onErr(err)
	}
}
