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

// LocalJoinKind selects the local algorithm run inside each joiner task
// (§3.3): traditional index-nested-loop, or DBToaster recursive IVM.
type LocalJoinKind uint8

const (
	// Traditional builds hash/tree indexes on base relations and
	// re-enumerates matching combinations on every arrival.
	Traditional LocalJoinKind = iota
	// DBToaster materializes intermediate views (tuple-level or aggregate)
	// and probes them instead — the HyLD operator's local half (§3.4).
	DBToaster
)

// String names the local join.
func (k LocalJoinKind) String() string {
	if k == DBToaster {
		return "DBToaster"
	}
	return "Traditional"
}

// JoinBolt runs a local multi-way join per task and emits delta result
// rows (concatenated relation order), optionally post-processed by a
// pipeline. relOf maps upstream component names to relation indexes. The
// bolt is a dataflow.RowBolt: arrivals blit into the slab without a
// decode/re-encode round trip and delta rows leave as spliced encoded
// bytes; a computed join key is evaluated inside the local join, where it
// is read.
//
// tier, when non-nil, puts the base-row arenas in tiered mode (sealed,
// checksummed, spillable segments — squall.Options.Tier).
func JoinBolt(g *expr.JoinGraph, kind LocalJoinKind, relOf map[string]int, post Pipeline, tier *slab.TierConfig) dataflow.BoltFactory {
	return func(task, ntasks int) dataflow.Bolt {
		var tc *slab.TierConfig
		if tier != nil {
			c := *tier
			c.KeyPrefix = fmt.Sprintf("%s-t%d", tier.KeyPrefix, task)
			tc = &c
		}
		mk := func() dbtoaster.Join { return newLocalJoin(g, kind, tc) }
		return &joinBolt{mk: mk, mj: mk(), relOf: relOf, pp: CompilePipeline(post)}
	}
}

// newLocalJoin builds one task's operator: the state layout (tiered or
// resident slab) crossed with the algorithm. What DBToaster means for this
// graph — the view operator, or the base-relation core when there is no
// view to keep — is dbtoaster's decision, not made here.
func newLocalJoin(g *expr.JoinGraph, kind LocalJoinKind, tc *slab.TierConfig) dbtoaster.Join {
	dbt := kind == DBToaster
	switch {
	case tc != nil && dbt:
		return dbtoaster.NewTupleJoinTiered(g, *tc)
	case tc != nil:
		return localjoin.NewTraditionalTiered(g, *tc)
	case dbt:
		return dbtoaster.NewTupleJoin(g)
	}
	return localjoin.NewTraditional(g)
}

// DescribeLocalJoin reports the plan as decided: the operator every joiner task
// runs for this graph under kind, and the one-line reason.
func DescribeLocalJoin(g *expr.JoinGraph, kind LocalJoinKind) (operator, reason string) {
	switch {
	case kind == DBToaster && dbtoaster.ViewLess(g):
		return "localjoin.Traditional", dbtoaster.ViewLessReason
	case kind == DBToaster:
		return "dbtoaster.TupleJoin", fmt.Sprintf("DBToaster on a %d-relation graph: intermediate views materialized and probed", g.NumRels)
	}
	return "localjoin.Traditional", "Traditional: base-relation indexes re-probed on every arrival"
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

var _ dataflow.RowBolt = (*joinBolt)(nil)

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
			return b.pp.EachRow(row, &postCur, func(r []byte, _ *wire.Cursor) error {
				return b.out.EmitRow(r)
			})
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

// ExportStateTier exports one relation for an incremental checkpoint: sealed
// segments by store reference, hot rows as bare frames
// (dataflow.TierExporter). ok=false sends the caller to the full-frame path.
func (b *joinBolt) ExportStateTier(rel, batchSize int, visit func(frame []byte, count int) bool) ([]slab.SegmentCk, bool, error) {
	return b.mj.ExportRelTier(rel, batchSize, false, visit)
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
// group columns (or Global for a single merger). The bolt is a
// dataflow.RowBolt: arrivals feed the views straight off the wire and
// Finish splices the partial rows out of the result arena.
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

var _ dataflow.RowBolt = (*aggJoinBolt)(nil)

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
