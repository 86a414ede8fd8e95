package ops

import (
	"fmt"

	"squall/internal/dataflow"
	"squall/internal/dbtoaster"
	"squall/internal/expr"
	"squall/internal/localjoin"
	"squall/internal/slab"
	"squall/internal/wire"
)

// JoinBolt runs a local multi-way join per task and emits delta result
// rows (concatenated relation order), optionally post-processed by a
// pipeline. relOf maps upstream component names to relation indexes.
// Arrivals blit into the slab without a decode/re-encode round trip and
// delta rows leave as spliced encoded bytes; a computed join key is
// evaluated inside the local join, where it is read.
//
// views picks the local-join core's index policy, as the plan decided it:
// Views keeps every connected intermediate view besides the base
// relations, Traditional the base relations alone. tier, when non-nil,
// puts the base-row arenas in tiered mode (sealed, checksummed, spillable
// segments — squall.Options.Tier).
func JoinBolt(g *expr.JoinGraph, views bool, relOf map[string]int, post Pipeline, tier *slab.TierConfig) dataflow.BoltFactory {
	return func(task, ntasks int) dataflow.Bolt {
		var tc *slab.TierConfig
		if tier != nil {
			c := *tier
			c.KeyPrefix = fmt.Sprintf("%s-t%d", tier.KeyPrefix, task)
			tc = &c
		}
		mk := func() dbtoaster.Join { return newLocalJoin(g, views, tc) }
		return &joinBolt{mk: mk, mj: mk(), relOf: relOf, pp: CompilePipeline(post)}
	}
}

// newLocalJoin builds one task's operator: the state layout (tiered or
// resident slab) crossed with the index policy.
func newLocalJoin(g *expr.JoinGraph, views bool, tc *slab.TierConfig) dbtoaster.Join {
	switch {
	case tc != nil && views:
		return localjoin.NewViewsTiered(g, *tc)
	case tc != nil:
		return localjoin.NewTraditionalTiered(g, *tc)
	case views:
		return localjoin.NewViews(g)
	}
	return localjoin.NewTraditional(g)
}

// joinBolt runs one task's local join over encoded rows: encoded arrivals
// in, encoded delta rows out. It stages a delivered frame's rows and joins
// them as one set on the frame's Last row (Join.OnRows), so a spilled
// segment is faulted in once per frame rather than once per matching
// arrival.
type joinBolt struct {
	mk     func() dbtoaster.Join // fresh operator for reshape rebuilds
	mj     dbtoaster.Join
	relOf  map[string]int
	pp     *PackedPipeline // compiled post pipeline (empty = pass-through)
	out    *dataflow.Collector
	emitFn func(row []byte) error
	rows   [][]byte // the current frame's rows, staged until its Last row
}

// ExecuteRow stages one encoded arrival; the frame's Last row feeds the
// staged frame through the local join. Every row of a frame comes from one
// stream.
func (b *joinBolt) ExecuteRow(in dataflow.RowInput, out *dataflow.Collector) error {
	rel, ok := b.relOf[in.Stream]
	if !ok {
		return fmt.Errorf("ops: join bolt has no relation for stream %q", in.Stream)
	}
	if b.emitFn == nil {
		// One collector serves the task for its whole life; bind the emit
		// closure once so the hot path allocates nothing.
		b.out = out
		var postCur wire.Cursor
		b.emitFn = func(row []byte) error {
			if b.pp.Empty() {
				return b.out.EmitRow(row)
			}
			if err := postCur.Reset(row); err != nil {
				return err
			}
			post, _, keep, err := b.pp.RunOne(row, &postCur)
			if err != nil || !keep {
				return err
			}
			return b.out.EmitRow(post)
		}
	}
	b.rows = append(b.rows, in.Row)
	if !in.Last {
		return nil
	}
	err := b.mj.OnRows(rel, b.rows, b.emitFn)
	clear(b.rows) // the frame is recycled once delivered
	b.rows = b.rows[:0]
	return err
}

func (b *joinBolt) Finish(*dataflow.Collector) error { return nil }

func (b *joinBolt) MemSize() int { return b.mj.MemSize() }

// SpilledBytes reports state bytes resident on disk only (slab.SpillReporter;
// MemSize already excludes them).
func (b *joinBolt) SpilledBytes() int { return b.mj.SpilledBytes() }

// ReleaseState refunds the operator's pressure-gauge charges
// (dataflow.StateReleaser); called when the task instance is dropped.
func (b *joinBolt) ReleaseState() { b.mj.ReleaseState() }

// ExportStateTier exports one relation for a checkpoint
// (dataflow.TierExporter): sealed segments by store reference and hot rows
// as bare frames when the relation is tiered with a checkpoint store, every
// row as frames otherwise.
func (b *joinBolt) ExportStateTier(rel, batchSize int, visit func(frame []byte, count int) bool) ([]slab.SegmentCk, error) {
	cks, tiered, err := b.mj.ExportRelTier(rel, batchSize, false, visit)
	if err == nil && !tiered {
		b.mj.ExportRelFrames(rel, batchSize, false, visit)
	}
	return cks, err
}

// Live-repartitioning hooks (dataflow.Repartitioner), backed by the local
// join's localjoin.Migrator frame export and silent row import. Sides are
// the adaptive 1-Bucket relation indexes (0 = rows, 1 = columns).
var _ dataflow.Repartitioner = (*joinBolt)(nil)

// StoredCount reports one side's stored tuples for the control plane's
// load reports.
func (b *joinBolt) StoredCount(side int) int { return b.mj.RelCount(side) }

// ExportStateFrames streams one side's state as bare wire batch frames
// blitted from the local join's slab rows.
func (b *joinBolt) ExportStateFrames(side, batchSize int, visit func(frame []byte, count int) bool) {
	b.mj.ExportRelFrames(side, batchSize, false, visit)
}

// reshapeFrameRows sizes the frames ResetForReshape streams kept state in.
const reshapeFrameRows = 256

// ResetForReshape rebuilds the local join from scratch, streaming only the
// sides this task keeps under the new matrix from the old operator's frames
// into the fresh one. Rebuilding (rather than deleting per-tuple) keeps the
// hook implementable by every local algorithm, including
// view-materializing ones.
func (b *joinBolt) ResetForReshape(keep [2]bool) error {
	if keep[0] && keep[1] {
		// Both sides stay in place (the cell's coordinates survived the
		// reshape): nothing to rebuild, and any merged-in state arrives
		// through ImportRow.
		return nil
	}
	fresh := b.mk()
	var cur wire.Cursor
	var err error
	for side, k := range keep {
		if !k {
			continue
		}
		b.mj.ExportRelFrames(side, reshapeFrameRows, false, func(frame []byte, _ int) bool {
			_, _, err = wire.EachRow(frame, &cur, func(row []byte) error {
				return fresh.ImportRow(side, row, &cur)
			})
			return err == nil
		})
		if err != nil {
			return err
		}
	}
	// The old operator is dropped: refund its pressure-gauge charges before
	// the fresh one starts accruing its own.
	b.mj.ReleaseState()
	b.mj = fresh
	return nil
}

// ImportRow silently inserts one migrated or restored row: no delta
// results, because every pair among that state already met.
func (b *joinBolt) ImportRow(side int, row []byte, cur *wire.Cursor) error {
	return b.mj.ImportRow(side, row, cur)
}

// AggJoinBolt runs the aggregate-view DBToaster operator (HyLD with a final
// aggregation pushed into the joiner). Each task emits partial rows
// (group..., cnt, sum) on Finish; route them to MergeBolt via Fields on the
// group columns (or Global for a single merger). Arrivals feed the views
// straight off the wire and Finish splices the partial rows out of the result arena.
func AggJoinBolt(g *expr.JoinGraph, spec dbtoaster.AggSpec, relOf map[string]int) dataflow.BoltFactory {
	return func(task, ntasks int) dataflow.Bolt {
		a, err := dbtoaster.NewAggJoin(g, spec)
		return &aggJoinBolt{a: a, err: err, relOf: relOf}
	}
}

type aggJoinBolt struct {
	a     *dbtoaster.AggJoin
	err   error
	relOf map[string]int
}

func (b *aggJoinBolt) ExecuteRow(in dataflow.RowInput, _ *dataflow.Collector) error {
	if b.err != nil {
		return b.err
	}
	rel, ok := b.relOf[in.Stream]
	if !ok {
		return fmt.Errorf("ops: agg join bolt has no relation for stream %q", in.Stream)
	}
	return b.a.OnRow(rel, in.Cur)
}

func (b *aggJoinBolt) Finish(out *dataflow.Collector) error {
	if b.err != nil {
		return b.err
	}
	return b.a.EachResultRow(out.EmitRow)
}

func (b *aggJoinBolt) MemSize() int {
	if b.a == nil {
		return 0
	}
	return b.a.MemSize()
}
