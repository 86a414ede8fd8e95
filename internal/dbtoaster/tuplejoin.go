// Package dbtoaster implements Squall's state-of-the-art local multi-way
// join (§3.3): DBToaster-style recursive incremental view maintenance. For
// an n-way join it materializes every *connected* intermediate join (2-way,
// 3-way, ..., (n-1)-way); a new tuple produces its delta by probing the
// materialized views of its complement instead of re-enumerating the
// sub-joins from base-relation indexes — which is exactly why it outruns the
// traditional local join by an order of magnitude (Figure 8), with the gap
// growing in the number of relations.
//
// Two operators are provided:
//
//   - TupleJoin materializes tuple-level views and emits delta result tuples;
//     it supports arbitrary theta joins (equality, band, inequality).
//   - AggJoin (aggjoin.go) maintains aggregate-annotated views for
//     COUNT/SUM/AVG group-by queries over equi-joins; its per-tuple work is
//     proportional to the number of distinct groups rather than the number
//     of matching combinations, the core of DBToaster's advantage.
//
// The NewTupleJoin constructors return TupleJoin only for graphs that have an
// intermediate view to keep; on 2-relation graphs they hand back
// localjoin.Traditional's packed base-relation core (see ViewLess).
//
// TupleJoin state is slab-backed: base tuples live as packed rows in
// per-relation arenas and every materialized combo is a fixed-stride array
// of 32-bit refs into them — an n-way combo costs 4n bytes instead of n
// boxed tuple headers — with open-addressing RefHash indexes on the boundary
// conjuncts. AggJoin keeps each view in the layout ops.Agg uses for groups — signatures as encoded rows in a slab
// arena, accumulators in a dense slice, RefHash indexes verified against the
// encoded bytes — and takes arrivals as encoded rows (OnRow): its probes and
// signatures are field splices, so it never decodes what it stores.
package dbtoaster

import (
	"fmt"
	"math/bits"
	"sort"

	"squall/internal/expr"
	"squall/internal/index"
	"squall/internal/localjoin"
	"squall/internal/slab"
	"squall/internal/types"
	"squall/internal/wire"
)

// tview is one materialized intermediate join: the combos of a connected
// relation subset, with indexes on every boundary-crossing conjunct.
//
// Singleton views own a slab arena of base rows; every view (singleton
// included) stores combos as a flat []slab.Ref with stride len(rels), ref
// i·stride+k addressing rels[k]'s base row in that relation's singleton
// arena. eqRef postings and rngIdx items are combo ordinals.
type tview struct {
	mask      uint64
	rels      []int       // relations of mask, ascending; stride of refCombos
	arena     *slab.Arena // singleton views only: the relation's base rows
	refCombos []slab.Ref
	eqRef     map[int]*index.RefHash
	rngIdx    map[int]*index.Tree
}

// size returns the number of materialized combos.
func (v *tview) size() int { return len(v.refCombos) / len(v.rels) }

// TupleJoin is the tuple-level DBToaster operator.
type TupleJoin struct {
	g     *expr.JoinGraph
	views map[uint64]*tview
	// updateOrder[rel] lists connected subsets containing rel (excluding the
	// full set), ascending popcount: the views refreshed on each arrival.
	// Ascending popcount puts rel's singleton view first, so the arriving
	// tuple's ref exists before any combo referencing it.
	updateOrder [][]uint64
	full        uint64
	refScratch  []uint32 // probe scratch
	// packed-path scratch (packed.go): OnRows' row cursor, arrival
	// materialization and delta emission buffers.
	rowCur  wire.Cursor
	decBuf  types.Tuple
	emitBuf []byte
	// merged is insert scratch: the ref combo under assembly, one slot per
	// relation.
	merged []slab.Ref
}

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

var (
	_ Join = (*TupleJoin)(nil)
	_ Join = (*localjoin.Traditional)(nil)
)

// ViewLess reports that the graph has no intermediate view to materialize:
// with two relations the only connected non-full subsets are the base
// relations themselves, so TupleJoin would keep exactly the state
// localjoin.Traditional keeps and gain nothing from it. The constructors
// below then hand back the traditional operator's packed base-relation
// core; Figure 8's DBToaster-vs-traditional comparison is about view reuse
// on n-way joins, which starts at three relations.
func ViewLess(g *expr.JoinGraph) bool { return g.NumRels == 2 }

// ViewLessReason is the one-line account of that rule for plan output.
const ViewLessReason = "DBToaster on a 2-relation graph: no intermediate view, base-relation core"

// NewTupleJoin builds the operator, materializing a view for every connected, non-full subset of relations.
func NewTupleJoin(g *expr.JoinGraph) Join {
	if ViewLess(g) {
		return localjoin.NewTraditional(g)
	}
	return newTupleJoin(g)
}

// NewTupleJoinTiered builds the operator with tiered
// singleton arenas (PR 10): base rows seal into checksummed segments and
// spill to tc.Store under memory pressure, faulting back in on probes.
// View combos (flat ref arrays) and indexes stay resident — they are the
// operator's working set; the base-row payload is the bulk of its bytes.
func NewTupleJoinTiered(g *expr.JoinGraph, tc slab.TierConfig) Join {
	if ViewLess(g) {
		return localjoin.NewTraditionalTiered(g, tc)
	}
	j := newTupleJoin(g)
	base := tc.KeyPrefix
	for mask, v := range j.views {
		if v.arena == nil {
			continue
		}
		rc := tc
		rc.KeyPrefix = fmt.Sprintf("%s-r%d", base, bits.TrailingZeros64(mask))
		v.arena.EnableTier(rc)
	}
	return j
}

func newTupleJoin(g *expr.JoinGraph) *TupleJoin {
	j := &TupleJoin{g: g, views: map[uint64]*tview{}, full: (uint64(1) << g.NumRels) - 1,
		merged: make([]slab.Ref, g.NumRels)}
	j.updateOrder = make([][]uint64, g.NumRels)
	for mask := uint64(1); mask < j.full; mask++ {
		if !g.Connected(mask) {
			continue
		}
		v := &tview{mask: mask, eqRef: map[int]*index.RefHash{}, rngIdx: map[int]*index.Tree{}}
		for rel := 0; rel < g.NumRels; rel++ {
			if mask&(1<<rel) != 0 {
				v.rels = append(v.rels, rel)
			}
		}
		if len(v.rels) == 1 {
			v.arena = slab.New()
		}
		for ci, c := range g.Conjuncts {
			lin := mask&(1<<c.LRel) != 0
			rin := mask&(1<<c.RRel) != 0
			if lin == rin {
				continue // fully inside or fully outside
			}
			switch c.Op {
			case expr.Eq:
				v.eqRef[ci] = index.NewRefHash()
			case expr.Lt, expr.Le, expr.Gt, expr.Ge:
				v.rngIdx[ci] = index.NewTree()
			}
		}
		j.views[mask] = v
		for rel := 0; rel < g.NumRels; rel++ {
			if mask&(1<<rel) != 0 {
				j.updateOrder[rel] = append(j.updateOrder[rel], mask)
			}
		}
	}
	for rel := range j.updateOrder {
		sort.Slice(j.updateOrder[rel], func(a, b int) bool {
			ma, mb := j.updateOrder[rel][a], j.updateOrder[rel][b]
			if pa, pb := bits.OnesCount64(ma), bits.OnesCount64(mb); pa != pb {
				return pa < pb
			}
			return ma < mb
		})
	}
	return j
}

// baseTuple decodes relation rel's base row ref.
func (j *TupleJoin) baseTuple(rel int, ref slab.Ref) types.Tuple {
	return j.views[uint64(1)<<rel].arena.Decode(ref)
}

// comboDelta materializes one combo of a view as a Delta.
func (j *TupleJoin) comboDelta(v *tview, idx int) localjoin.Delta {
	d := make(localjoin.Delta, j.g.NumRels)
	stride := len(v.rels)
	for k, rel := range v.rels {
		d[rel] = j.baseTuple(rel, v.refCombos[idx*stride+k])
	}
	return d
}

// OnTuple computes the delta result (t joined with the materialized views of
// its complement's components) and refreshes every view containing rel.
func (j *TupleJoin) OnTuple(rel int, t types.Tuple) ([]localjoin.Delta, error) {
	if rel < 0 || rel >= j.g.NumRels {
		return nil, fmt.Errorf("dbtoaster: relation %d out of range", rel)
	}
	out, err := j.joinWith(rel, t, j.full&^(1<<rel))
	if err != nil {
		return nil, err
	}
	return out, j.Insert(rel, t)
}

// Insert stores a tuple with full view maintenance but without computing
// the delta result — the silent path used by state preload. Every view
// containing rel is refreshed with ref combos: the arriving tuple lands in
// its singleton arena first (updateOrder is popcount-ascending), then each
// larger view's delta combos are assembled by crossing the passing combos of
// its complement's component views — pure ref merges, no tuple
// re-materialization.
func (j *TupleJoin) Insert(rel int, t types.Tuple) error {
	if rel < 0 || rel >= j.g.NumRels {
		return fmt.Errorf("dbtoaster: relation %d out of range", rel)
	}
	tRef := slab.NoRef
	for _, mask := range j.updateOrder[rel] {
		v := j.views[mask]
		if mask == uint64(1)<<rel {
			tRef = v.arena.Append(t)
			if err := j.appendCombo(v, []slab.Ref{tRef}, rel, t); err != nil {
				return err
			}
			continue
		}
		if err := j.crossInsert(v, mask, rel, t, tRef); err != nil {
			return err
		}
	}
	return nil
}

// crossInsert refreshes one non-singleton view for an arrival already stored
// at tRef: the delta combos are assembled by crossing the passing combos of
// the complement's component views — pure ref merges. Shared by the boxed
// and packed insert paths.
func (j *TupleJoin) crossInsert(v *tview, mask uint64, rel int, t types.Tuple, tRef slab.Ref) error {
	merged := j.merged
	comps := j.g.Components(mask &^ (uint64(1) << rel))
	lists := make([][]int, len(comps))
	for i, cm := range comps {
		cv := j.views[cm]
		if cv == nil {
			return fmt.Errorf("dbtoaster: missing view for component %b", cm)
		}
		idxs, _, err := j.probeView(cv, rel, t, false)
		if err != nil {
			return err
		}
		if len(idxs) == 0 {
			return nil
		}
		lists[i] = idxs
	}
	// Cross product of component combos, merged ref-wise.
	var rec func(ci int) error
	rec = func(ci int) error {
		if ci == len(comps) {
			refs := make([]slab.Ref, 0, len(v.rels))
			for _, r := range v.rels {
				refs = append(refs, merged[r])
			}
			return j.appendCombo(v, refs, rel, t)
		}
		cv := j.views[comps[ci]]
		stride := len(cv.rels)
		for _, idx := range lists[ci] {
			for k, r := range cv.rels {
				merged[r] = cv.refCombos[idx*stride+k]
			}
			if err := rec(ci + 1); err != nil {
				return err
			}
		}
		return nil
	}
	merged[rel] = tRef
	return rec(0)
}

// appendCombo stores one ref combo in a view and maintains
// its boundary indexes. t is the arriving tuple of relation rel, saving a
// decode when a boundary expression reads it.
func (j *TupleJoin) appendCombo(v *tview, refs []slab.Ref, rel int, t types.Tuple) error {
	idx := v.size()
	v.refCombos = append(v.refCombos, refs...)
	for ci, c := range j.g.Conjuncts {
		var inside expr.Expr
		var insideRel int
		switch {
		case v.mask&(1<<c.LRel) != 0 && v.mask&(1<<c.RRel) == 0:
			inside, insideRel = c.Left, c.LRel
		case v.mask&(1<<c.RRel) != 0 && v.mask&(1<<c.LRel) == 0:
			inside, insideRel = c.Right, c.RRel
		default:
			continue
		}
		tu := t
		if insideRel != rel {
			for k, r := range v.rels {
				if r == insideRel {
					tu = j.baseTuple(insideRel, refs[k])
					break
				}
			}
		}
		val, err := inside.Eval(tu)
		if err != nil {
			return fmt.Errorf("dbtoaster: view key %s: %w", inside, err)
		}
		if h, ok := v.eqRef[ci]; ok {
			h.Insert(val.Hash(), uint32(idx))
		}
		if tr, ok := v.rngIdx[ci]; ok {
			tr.Insert(val, index.Item{T: types.Tuple{types.Int(int64(idx))}, W: 1})
		}
	}
	return nil
}

// RelCount returns the stored base tuples of one relation (its singleton
// view's combos).
func (j *TupleJoin) RelCount(rel int) int {
	v := j.views[uint64(1)<<rel]
	if v == nil {
		return 0
	}
	return v.arena.Rows()
}

// ExportRelFrames streams one relation's base rows as wire batch frames by
// blitting the packed rows (localjoin.FrameExporter).
func (j *TupleJoin) ExportRelFrames(rel, batchSize int, footer bool, visit func(frame []byte, count int) bool) {
	v := j.views[uint64(1)<<rel]
	if v == nil {
		return
	}
	if footer {
		v.arena.EachFooterFrame(batchSize, nil, visit)
	} else {
		v.arena.EachFrame(batchSize, nil, visit)
	}
}

// joinWith extends tuple t of relation rel across the connected components
// of `others`, probing each component's materialized view.
func (j *TupleJoin) joinWith(rel int, t types.Tuple, others uint64) ([]localjoin.Delta, error) {
	base := make(localjoin.Delta, j.g.NumRels)
	base[rel] = t
	acc := []localjoin.Delta{base}
	if others == 0 {
		return acc, nil
	}
	for _, comp := range j.g.Components(others) {
		v := j.views[comp]
		if v == nil {
			return nil, fmt.Errorf("dbtoaster: missing view for component %b", comp)
		}
		_, matches, err := j.probeView(v, rel, t, true)
		if err != nil {
			return nil, err
		}
		var next []localjoin.Delta
		for _, partial := range acc {
			for _, m := range matches {
				merged := make(localjoin.Delta, j.g.NumRels)
				copy(merged, partial)
				for r := 0; r < j.g.NumRels; r++ {
					if m[r] != nil {
						merged[r] = m[r]
					}
				}
				next = append(next, merged)
			}
		}
		acc = next
		if len(acc) == 0 {
			return nil, nil
		}
	}
	return acc, nil
}

// probeView finds the view combos joinable with t: one conjunct between rel
// and the view is used as the index probe, the rest as filters. It returns
// the passing combo ordinals and, when materialize is set, their Deltas.
// An equality probe matches by 64-bit key hash, so the probe conjunct itself
// is re-verified — a hash collision can never
// fabricate a result.
func (j *TupleJoin) probeView(v *tview, rel int, t types.Tuple, materialize bool) ([]int, []localjoin.Delta, error) {
	var incident []int
	for ci, c := range j.g.Conjuncts {
		inL := v.mask&(1<<c.LRel) != 0
		inR := v.mask&(1<<c.RRel) != 0
		if (c.LRel == rel && inR) || (c.RRel == rel && inL) {
			incident = append(incident, ci)
		}
	}
	probeCi := -1
	for _, ci := range incident {
		if j.g.Conjuncts[ci].Op == expr.Eq {
			probeCi = ci
			break
		}
	}
	if probeCi < 0 {
		for _, ci := range incident {
			switch j.g.Conjuncts[ci].Op {
			case expr.Lt, expr.Le, expr.Gt, expr.Ge:
				probeCi = ci
			}
			if probeCi >= 0 {
				break
			}
		}
	}
	var candidates []int // combo ordinals
	if probeCi < 0 {
		candidates = make([]int, v.size())
		for i := range candidates {
			candidates[i] = i
		}
	} else {
		c := j.g.Conjuncts[probeCi].Oriented(rel) // Left on t, Right inside view
		val, err := c.Left.Eval(t)
		if err != nil {
			return nil, nil, err
		}
		switch c.Op {
		case expr.Eq:
			j.refScratch = v.eqRef[probeCi].AppendRefs(j.refScratch[:0], val.Hash())
			candidates = make([]int, len(j.refScratch))
			for i, r := range j.refScratch {
				candidates[i] = int(r)
			}
		case expr.Lt: // val < key
			candidates = treeRefs(v.rngIdx[probeCi], index.Excl(val), index.Unbounded())
		case expr.Le:
			candidates = treeRefs(v.rngIdx[probeCi], index.Incl(val), index.Unbounded())
		case expr.Gt: // key < val
			candidates = treeRefs(v.rngIdx[probeCi], index.Unbounded(), index.Excl(val))
		case expr.Ge:
			candidates = treeRefs(v.rngIdx[probeCi], index.Unbounded(), index.Incl(val))
		}
	}
	scratch := make([]types.Tuple, j.g.NumRels)
	var outIdx []int
	var outDeltas []localjoin.Delta
	for _, idx := range candidates {
		combo := j.comboDelta(v, idx)
		ok := true
		for _, ci := range incident {
			copy(scratch, combo)
			scratch[rel] = t
			holds, err := j.g.Conjuncts[ci].Holds(scratch)
			if err != nil {
				return nil, nil, err
			}
			if !holds {
				ok = false
				break
			}
		}
		if ok {
			outIdx = append(outIdx, idx)
			if materialize {
				outDeltas = append(outDeltas, combo)
			}
		}
	}
	return outIdx, outDeltas, nil
}

func treeRefs(tr *index.Tree, lo, hi index.Bound) []int {
	var out []int
	tr.Range(lo, hi, func(_ types.Value, it index.Item) bool {
		out = append(out, int(it.T[0].I))
		return true
	})
	return out
}

// MemSize reports total view state — DBToaster's memory-for-CPU trade —
// as the real footprint: base-row slabs, 4-byte ref combos and flat index
// arrays.
func (j *TupleJoin) MemSize() int {
	n := 0
	for _, v := range j.views {
		if v.arena != nil {
			n += v.arena.MemSize()
		}
		n += 4*cap(v.refCombos) + 48
		for _, h := range v.eqRef {
			n += h.MemSize()
		}
		for _, t := range v.rngIdx {
			n += t.MemSize()
		}
	}
	return n
}

// StoredTuples counts base-relation tuples (popcount-1 views).
func (j *TupleJoin) StoredTuples() int {
	n := 0
	for mask, v := range j.views {
		if bits.OnesCount64(mask) == 1 {
			n += v.size()
		}
	}
	return n
}

// SpilledBytes reports base-row bytes currently resident on disk only
// (slab.SpillReporter; 0 unless tiered).
func (j *TupleJoin) SpilledBytes() int {
	n := 0
	for _, v := range j.views {
		if v.arena != nil {
			n += v.arena.SpilledBytes()
		}
	}
	return n
}

// ReleaseState refunds the arenas' pressure-gauge charges; called when the
// operator instance is dropped (task rebirth, reshape, run end).
func (j *TupleJoin) ReleaseState() {
	for _, v := range j.views {
		if v.arena != nil {
			v.arena.ReleaseTier()
		}
	}
}

// ExportRelTier exports one relation for an incremental (v2) checkpoint:
// sealed segments as store references and hot rows as frames. ok=false
// falls back to full-frame export (not tiered / no checkpoint store / no
// singleton view).
func (j *TupleJoin) ExportRelTier(rel, batchSize int, footer bool, visit func(frame []byte, count int) bool) ([]slab.SegmentCk, bool, error) {
	v := j.views[uint64(1)<<rel]
	if v == nil || v.arena == nil || !v.arena.Tiered() {
		return nil, false, nil
	}
	cks, err := v.arena.SealedSegmentCks()
	if err != nil {
		return nil, false, nil
	}
	v.arena.EachHotFrame(batchSize, footer, nil, visit)
	return cks, true, nil
}

// ViewSizes reports combos per materialized view, for tests and monitoring.
func (j *TupleJoin) ViewSizes() map[uint64]int {
	out := make(map[uint64]int, len(j.views))
	for mask, v := range j.views {
		out[mask] = v.size()
	}
	return out
}
