// Package dbtoaster implements Squall's state-of-the-art local multi-way
// join (§3.3): DBToaster-style recursive incremental view maintenance. For
// an n-way join it materializes every *connected* intermediate join (2-way,
// 3-way, ..., (n-1)-way); a new tuple produces its delta by probing the
// materialized views of its complement instead of re-enumerating the
// sub-joins from base-relation indexes, and pays for it by extending every
// view that contains its relation (Figure 8).
//
// Two operators are provided:
//
//   - Tuple-level views, which emit delta result tuples and support
//     arbitrary theta joins (equality, band, inequality). They run on
//     internal/localjoin's one local-join core under its Views index
//     policy: the core that runs the traditional join, indexing ref-combo
//     views besides the base relations. NewTupleJoin builds them. On
//     localjoin's BenchmarkOnRows (3-way chain, 64-row frames, 8192 stored
//     rows per relation, 2 vCPUs) an arrival costs 2.1 µs at about one
//     delta per arrival, 5.9 µs at 8.4 deltas and 58 µs on a selective
//     chain, against 1.5, 3.6 and 37 µs under the traditional policy: on
//     these shapes view maintenance costs more than view reuse saves.
//   - AggJoin (aggjoin.go) maintains aggregate-annotated views for
//     COUNT/SUM/AVG group-by queries over equi-joins; its per-tuple work is
//     proportional to the number of distinct groups rather than the number
//     of matching combinations, the core of DBToaster's advantage. It keeps
//     each view in the layout ops.Agg uses for groups — signatures as
//     encoded rows in a slab arena, accumulators in a dense slice, RefHash
//     indexes verified against the encoded bytes — and takes arrivals as
//     encoded rows (OnRow): its probes and signatures are field splices, so
//     it never decodes what it stores.
package dbtoaster

import (
	"squall/internal/expr"
	"squall/internal/localjoin"
	"squall/internal/slab"
)

// Join is what the NewTupleJoin constructors return: the local-join surface
// the engine drives (ops.JoinBolt, the recovery and adaptation planes) and
// nothing of the operator behind it, which the constructors choose from the
// shape of the graph.
type Join interface {
	localjoin.MultiJoin
	localjoin.Migrator
	localjoin.FrameExporter
	localjoin.PackedJoin
	// OnRows joins a frame of encoded arrivals of one relation, emitting
	// the bag OnRow would emit row by row; rows need only outlive the call.
	OnRows(rel int, rows [][]byte, emit func(row []byte) error) error
	ExportRelTier(rel, batchSize int, footer bool, visit func(frame []byte, count int) bool) ([]slab.SegmentCk, bool, error)
	SpilledBytes() int
	ReleaseState()
}

var _ Join = (*localjoin.Traditional)(nil)

// ViewLess reports that the graph has no intermediate view to materialize:
// with two relations the only connected non-full subsets are the base
// relations themselves, so the Views policy would keep exactly the state
// the Traditional policy keeps and gain nothing from it. The constructors
// below then build the core under the Traditional policy; Figure 8's
// DBToaster-vs-traditional comparison is about view reuse on n-way joins,
// which starts at three relations.
func ViewLess(g *expr.JoinGraph) bool { return g.NumRels == 2 }

// NewTupleJoin builds the tuple-level DBToaster operator: the local-join
// core materializing a view for every connected, non-full subset of
// relations, or its base relations alone when the graph is view-less.
func NewTupleJoin(g *expr.JoinGraph) Join {
	if ViewLess(g) {
		return localjoin.NewTraditional(g)
	}
	return localjoin.NewViews(g)
}

// NewTupleJoinTiered is NewTupleJoin with tiered base arenas: base rows
// seal into checksummed segments and spill to tc.Store under memory
// pressure, faulting back in on probes. View combos (flat ref arrays) and
// indexes stay resident — they are the operator's working set; the
// base-row payload is the bulk of its bytes.
func NewTupleJoinTiered(g *expr.JoinGraph, tc slab.TierConfig) Join {
	if ViewLess(g) {
		return localjoin.NewTraditionalTiered(g, tc)
	}
	return localjoin.NewViewsTiered(g, tc)
}
