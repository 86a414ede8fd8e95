package ops

import (
	"fmt"

	"squall/internal/dataflow"
	"squall/internal/dbtoaster"
	"squall/internal/expr"
	"squall/internal/localjoin"
	"squall/internal/slab"
	"squall/internal/types"
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
// tuples (concatenated relation order), optionally post-processed by a
// pipeline. relOf maps upstream component names to relation indexes. When
// the local algorithm is packed-capable for this graph the bolt is a
// dataflow.RowBolt: arrivals blit into the slab without a decode/re-encode
// round trip and delta rows leave as spliced encoded bytes. Otherwise each
// arrival is decoded at the bolt's boundary.
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
		mk := func() localjoin.MultiJoin { return newLocalJoin(g, kind, tc) }
		jb := &joinBolt{mk: mk, mj: mk(), relOf: relOf, post: post}
		if pj, ok := jb.mj.(localjoin.PackedJoin); ok && pj.PackedCapable() {
			return &packedJoinBolt{joinBolt: jb, pp: CompilePipeline(post)}
		}
		return jb
	}
}

// newLocalJoin builds one task's operator: the state layout (tiered or
// resident slab) crossed with the algorithm. What DBToaster means for this
// graph — the view operator, or the base-relation core when there is no
// view to keep — is dbtoaster's decision, not made here.
func newLocalJoin(g *expr.JoinGraph, kind LocalJoinKind, tc *slab.TierConfig) localjoin.MultiJoin {
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

// packedJoinBolt is joinBolt's row face: encoded arrivals in, encoded delta
// rows out.
type packedJoinBolt struct {
	*joinBolt
	pp     *PackedPipeline // compiled post pipeline (empty = pass-through)
	out    *dataflow.Collector
	emitFn func(row []byte) error
}

var _ dataflow.RowBolt = (*packedJoinBolt)(nil)
var _ dataflow.Repartitioner = (*packedJoinBolt)(nil)

// ExecuteRow feeds one encoded arrival through the packed local join.
func (b *packedJoinBolt) ExecuteRow(in dataflow.RowInput, out *dataflow.Collector) error {
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
	// mk() preserves the concrete type, so reshape/recovery rebuilds stay
	// packed-capable; assert per call rather than caching across rebirths.
	return b.mj.(localjoin.PackedJoin).OnRow(rel, in.Row, in.Cur, b.emitFn)
}

type joinBolt struct {
	mk    func() localjoin.MultiJoin // fresh operator for reshape rebuilds
	mj    localjoin.MultiJoin
	relOf map[string]int
	post  Pipeline
}

func (b *joinBolt) Execute(in dataflow.Input, out *dataflow.Collector) error {
	rel, ok := b.relOf[in.Stream]
	if !ok {
		return fmt.Errorf("ops: join bolt has no relation for stream %q", in.Stream)
	}
	deltas, err := b.mj.OnTuple(rel, in.Tuple)
	if err != nil {
		return err
	}
	for _, d := range deltas {
		rows := []types.Tuple{d.Concat()}
		if b.post != nil {
			rows, err = b.post.Apply(rows[0])
			if err != nil {
				return err
			}
		}
		for _, r := range rows {
			if err := out.Emit(r); err != nil {
				return err
			}
		}
	}
	return nil
}

func (b *joinBolt) Finish(*dataflow.Collector) error { return nil }

func (b *joinBolt) MemSize() int { return b.mj.MemSize() }

// tierJoin is the tier surface the slab-backed local joins expose; the map
// layouts don't implement it, and the bolt degrades gracefully.
type tierJoin interface {
	SpilledBytes() int
	ReleaseState()
	ExportRelTier(rel, batchSize int, footer bool, visit func(frame []byte, count int) bool) ([]slab.SegmentCk, bool, error)
}

// SpilledBytes reports state bytes resident on disk only (slab.SpillReporter;
// MemSize already excludes them).
func (b *joinBolt) SpilledBytes() int {
	if tj, ok := b.mj.(tierJoin); ok {
		return tj.SpilledBytes()
	}
	return 0
}

// ReleaseState refunds the operator's pressure-gauge charges
// (dataflow.StateReleaser); called when the task instance is dropped.
func (b *joinBolt) ReleaseState() {
	if tj, ok := b.mj.(tierJoin); ok {
		tj.ReleaseState()
	}
}

// ExportStateTier exports one relation for an incremental checkpoint: sealed
// segments by store reference, hot rows as frames (dataflow.TierExporter).
// ok=false sends the caller to the full-frame path.
func (b *joinBolt) ExportStateTier(rel, batchSize int, footer bool, visit func(frame []byte, count int) bool) ([]slab.SegmentCk, bool, error) {
	tj, ok := b.mj.(tierJoin)
	if !ok {
		return nil, false, nil
	}
	return tj.ExportRelTier(rel, batchSize, footer, visit)
}

// Live-repartitioning hooks (dataflow.Repartitioner), backed by the local
// join's localjoin.Migrator snapshot/silent-insert primitives. Sides are
// the adaptive 1-Bucket relation indexes (0 = rows, 1 = columns).
var _ dataflow.Repartitioner = (*joinBolt)(nil)

// migrator returns the local join's migration hooks, or an error for local
// algorithms that cannot snapshot their state.
func (b *joinBolt) migrator() (localjoin.Migrator, error) {
	m, ok := b.mj.(localjoin.Migrator)
	if !ok {
		return nil, fmt.Errorf("ops: local join %T does not support state migration", b.mj)
	}
	return m, nil
}

// StoredCount reports one side's stored tuples for the control plane's
// load reports.
func (b *joinBolt) StoredCount(side int) int {
	m, err := b.migrator()
	if err != nil {
		return 0
	}
	return m.RelCount(side)
}

// ExportState snapshots one side's stored tuples for migration.
func (b *joinBolt) ExportState(side int) []types.Tuple {
	m, err := b.migrator()
	if err != nil {
		return nil
	}
	return m.ExportRel(side)
}

// ExportStateFrames streams one side's state as ready wire batch frames
// (dataflow.FrameExporter) by blitting the local join's packed slab rows
// without materializing tuples. Reports false when the local algorithm
// stores no slab rows, sending the caller to ExportState.
func (b *joinBolt) ExportStateFrames(side, batchSize int, footer bool, visit func(frame []byte, count int) bool) bool {
	fe, ok := b.mj.(localjoin.FrameExporter)
	if !ok {
		return false
	}
	fe.ExportRelFrames(side, batchSize, footer, visit)
	return true
}

// ResetForReshape rebuilds the local join from scratch, re-inserting only
// the sides this task keeps under the new matrix. Rebuilding (rather than
// deleting per-tuple) keeps the hook implementable by every local
// algorithm, including view-materializing ones.
func (b *joinBolt) ResetForReshape(keep [2]bool) error {
	if keep[0] && keep[1] {
		// Both sides stay in place (the cell's coordinates survived the
		// reshape): nothing to rebuild, and any merged-in state arrives
		// through ImportState.
		return nil
	}
	m, err := b.migrator()
	if err != nil {
		return err
	}
	var kept [2][]types.Tuple
	for side, k := range keep {
		if k {
			kept[side] = m.ExportRel(side)
		}
	}
	fresh := b.mk()
	fm, ok := fresh.(localjoin.Migrator)
	if !ok {
		return fmt.Errorf("ops: local join %T does not support state migration", fresh)
	}
	for side, ts := range kept {
		for _, t := range ts {
			if err := fm.Insert(side, t); err != nil {
				return err
			}
		}
	}
	// The old operator is dropped: refund its pressure-gauge charges before
	// the fresh one starts accruing its own.
	if tj, ok := b.mj.(tierJoin); ok {
		tj.ReleaseState()
	}
	b.mj = fresh
	return nil
}

// ImportState silently inserts migrated tuples: no delta results, because
// every pair among pre-barrier state already met at exactly one old cell.
func (b *joinBolt) ImportState(side int, tuples []types.Tuple) error {
	m, err := b.migrator()
	if err != nil {
		return err
	}
	for _, t := range tuples {
		if err := m.Insert(side, t); err != nil {
			return err
		}
	}
	return nil
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
