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
		return &tapRowSpout{walk: walk{tap: t, onErr: onErr}, pp: ops.CompilePipeline(pre)}
	}
}

// walk is the shared frame-walking state: current frame, read position and
// rows left in it.
type walk struct {
	tap    *Tap
	onErr  func(error)
	frame  []byte
	pos    int
	left   int
	failed bool
	cur    wire.Cursor
}

// nextRaw returns the next raw encoded row across frames (no pipeline). The
// row aliases the shared frame; the cursor is left parsed on it.
func (w *walk) nextRaw() ([]byte, bool) {
	if w.failed {
		return nil, false
	}
	for w.left == 0 {
		f, ok := w.tap.NextFrame()
		if !ok {
			if err := w.tap.Err(); err != nil {
				w.fail(err)
			}
			return nil, false
		}
		n, hl := binary.Uvarint(f)
		if hl <= 0 {
			w.fail(fmt.Errorf("serve: tap on %s: bad frame header", w.tap.src.name))
			return nil, false
		}
		w.frame, w.pos, w.left = f, hl, int(n)
	}
	rl, err := w.cur.Parse(w.frame[w.pos:])
	if err != nil {
		w.fail(fmt.Errorf("serve: tap on %s: %w", w.tap.src.name, err))
		return nil, false
	}
	row := w.frame[w.pos : w.pos+rl]
	w.pos += rl
	w.left--
	return row, true
}

func (w *walk) fail(err error) {
	if w.failed {
		return
	}
	w.failed = true
	w.tap.Detach()
	if w.onErr != nil {
		w.onErr(err)
	}
}

// tapRowSpout is the packed consumer: shared rows run through the compiled
// per-query pipeline and leave as encoded rows.
type tapRowSpout struct {
	walk
	pp *ops.PackedPipeline
}

func (s *tapRowSpout) NextRow() ([]byte, bool) {
	for {
		row, ok := s.nextRaw()
		if !ok {
			return nil, false
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
