// Package localjoin implements Squall's online local joins (§3.3): each
// machine stores the tuples it has received per relation, builds indexes on
// the fly — hash indexes for equi-join keys, balanced binary trees for band
// and inequality keys — and, on every arrival, probes stored state to
// produce the delta result.
//
// One core runs both local joins of Figure 8. They differ only in what is
// indexed, an index policy fixed at construction:
//
//   - Traditional (NewTraditional) materializes the base relations only and
//     re-enumerates all matching combinations from their indexes on every
//     arrival.
//   - Views (NewViews), the tuple-level DBToaster operator, also
//     materializes every connected proper subset of the relations as a
//     view of ref combos, so an arrival probes one view per connected
//     component of its complement and reuses the intermediate joins.
//
// Stored state is slab-backed: each relation's tuples are packed rows in a
// slab.Arena addressed by 32-bit refs, a combo view holds fixed-stride
// arrays of those refs (an n-way combo costs 4n bytes), equi-conjunct
// indexes are open-addressing index.RefHash multimaps keyed by the 64-bit
// canonical value hash, and tree indexes hold view ordinals. State keeps
// full history: a stored tuple is never removed, so refs, combos and
// indexes only grow.
package localjoin

import (
	"fmt"
	"math/bits"

	"squall/internal/expr"
	"squall/internal/index"
	"squall/internal/slab"
	"squall/internal/types"
	"squall/internal/wire"
)

// MultiJoin is the state face every online local multi-way join shares:
// how much it holds.
type MultiJoin interface {
	MemSize() int
	StoredTuples() int
}

// Migrator is implemented by local joins whose per-relation state can be
// exported as frames and silently rebuilt row by row — the hooks live
// repartitioning (the adaptive 1-Bucket operator's state migration) and
// recovery restores are built on.
type Migrator interface {
	// RelCount returns the stored tuples of one relation.
	RelCount(rel int) int
	FrameExporter
	// ImportRow stores one encoded row (cur views it) with index/view
	// maintenance but produces no delta results. The row is copied; it
	// need not outlive the call.
	ImportRow(rel int, row []byte, cur *wire.Cursor) error
}

// FrameExporter is implemented by local joins that store relation state
// wire-encoded in slab arenas and can therefore stream it as ready-made wire
// batch frames without materializing []types.Value tuples.
type FrameExporter interface {
	// ExportRelFrames passes one relation's stored tuples as wire batch
	// frames of up to batchSize tuples to visit (frame buffer valid only
	// during the callback; visit returning false stops the stream). With
	// footer set, uniform-arity frames carry a column-offset footer (PR 6)
	// so vectorized importers can view them column-wise; footers are
	// advisory, so every consumer decodes footered frames identically.
	ExportRelFrames(rel, batchSize int, footer bool, visit func(frame []byte, count int) bool)
}

// store is one materialized view: the rows of a connected relation subset
// (its ordinals), with an index on every boundary conjunct — one side
// inside the view, the other outside. A base view holds one relation's
// rows in its arena and its ordinals are the rows' refs; a combo view
// holds refCombos, ordinal i assigning rels[k] the row
// refCombos[i·len(rels)+k] of that relation's arena.
type store struct {
	mask      uint64
	rels      []int       // relations of mask, ascending: the combo stride
	arena     *slab.Arena // base view only
	refCombos []slab.Ref  // combo view only
	// eqRef holds ordinals by key hash and rngIdx Tuple{Int(ordinal)} items
	// (refTuple), each keyed by boundary conjunct id.
	eqRef  map[int]*index.RefHash
	rngIdx map[int]*index.Tree
	refBuf []uint32 // probe scratch
}

// size returns the number of ordinals the view holds.
func (v *store) size() int {
	if v.arena != nil {
		return v.arena.Rows()
	}
	return len(v.refCombos) / len(v.rels)
}

var (
	_ Migrator      = (*Traditional)(nil)
	_ FrameExporter = (*Traditional)(nil)
)

// Traditional is the index-nested-loop online multi-way join, under either
// index policy.
type Traditional struct {
	g *expr.JoinGraph
	// stores[rel] is relation rel's base view; views are the combo views
	// (none under the Traditional policy).
	stores []*store
	views  []*store
	// keys[c][rel] is the rel side of conjunct c as the row path reads it
	// (the zero key when rel is not a side of c).
	keys   [][]expr.Key
	packed packedState
	// plan[rel] is the expansion an arrival of rel drives and maint[rel]
	// the combo views it extends (plan.go).
	plan  [][]probeStep
	maint [][]maintStep
}

// NewTraditional builds the operator for a join graph under the
// Traditional policy, creating hash indexes for equality conjuncts and tree
// indexes for order conjuncts (§3.3's example: R.A = S.A AND 2·R.B < S.C
// builds hash indexes on R.A, S.A and tree indexes on 2·R.B and S.C). Each
// conjunct side resolves once, to a column read in place or to an
// expression evaluated where it is read.
func NewTraditional(g *expr.JoinGraph) *Traditional { return newJoin(g, false) }

// NewViews builds the operator under the Views policy: DBToaster's
// tuple-level views. Besides the base relations it materializes every
// connected proper subset of them as a view of ref combos, indexed on its
// boundary conjuncts, and keeps each view current on every arrival.
func NewViews(g *expr.JoinGraph) *Traditional { return newJoin(g, true) }

// NewTraditionalTiered builds the operator with tiered arenas: relation
// state seals into checksummed segments and spills to tc.Store under memory
// pressure. Refs stay stable across seals and spills, so the indexes never
// see a remap.
func NewTraditionalTiered(g *expr.JoinGraph, tc slab.TierConfig) *Traditional {
	return NewTraditional(g).tier(tc)
}

// NewViewsTiered is NewViews with tiered base arenas. Combos and view
// indexes stay resident: they are the operator's working set, and the
// base-row payload the bulk of its bytes.
func NewViewsTiered(g *expr.JoinGraph, tc slab.TierConfig) *Traditional {
	return NewViews(g).tier(tc)
}

func newJoin(g *expr.JoinGraph, views bool) *Traditional {
	j := &Traditional{g: g}
	j.keys = make([][]expr.Key, len(g.Conjuncts))
	for ci, c := range g.Conjuncts {
		j.keys[ci] = make([]expr.Key, g.NumRels)
		j.keys[ci][c.LRel] = expr.KeyOf(c.Left)
		j.keys[ci][c.RRel] = expr.KeyOf(c.Right)
	}
	j.stores = make([]*store, g.NumRels)
	for rel := range j.stores {
		j.stores[rel] = j.newView(uint64(1) << uint(rel))
		j.stores[rel].arena = slab.New()
	}
	if views {
		full := uint64(1)<<uint(g.NumRels) - 1
		for mask := uint64(1); mask < full; mask++ {
			if bits.OnesCount64(mask) > 1 && g.Connected(mask) {
				j.views = append(j.views, j.newView(mask))
			}
		}
	}
	j.packed.curs = make([]*wire.Cursor, g.NumRels)
	j.packed.own = make([]wire.Cursor, g.NumRels)
	j.packed.refs = make([]slab.Ref, g.NumRels)
	for r := range j.packed.curs {
		j.packed.curs[r] = &j.packed.own[r]
	}
	j.packed.one = make([][]byte, 1)
	j.compilePlan(views)
	return j
}

// newView builds an empty view of mask with its boundary indexes.
func (j *Traditional) newView(mask uint64) *store {
	v := &store{mask: mask, eqRef: map[int]*index.RefHash{}, rngIdx: map[int]*index.Tree{}}
	for rel := 0; rel < j.g.NumRels; rel++ {
		if mask&(1<<uint(rel)) != 0 {
			v.rels = append(v.rels, rel)
		}
	}
	for ci, c := range j.g.Conjuncts {
		if j.inside(mask, ci) < 0 {
			continue
		}
		switch c.Op {
		case expr.Eq:
			v.eqRef[ci] = index.NewRefHash()
		case expr.Lt, expr.Le, expr.Gt, expr.Ge:
			v.rngIdx[ci] = index.NewTree()
		}
	}
	return v
}

// inside returns the side of conjunct ci that lies in mask when ci crosses
// mask's boundary, and -1 when ci lies wholly inside or outside it.
func (j *Traditional) inside(mask uint64, ci int) int {
	c := &j.g.Conjuncts[ci]
	lin, rin := mask&(1<<uint(c.LRel)) != 0, mask&(1<<uint(c.RRel)) != 0
	switch {
	case lin && !rin:
		return c.LRel
	case rin && !lin:
		return c.RRel
	}
	return -1
}

// tier enables tiering on every base arena.
func (j *Traditional) tier(tc slab.TierConfig) *Traditional {
	base := tc.KeyPrefix
	for rel, s := range j.stores {
		rc := tc
		rc.KeyPrefix = fmt.Sprintf("%s-r%d", base, rel)
		s.arena.EnableTier(rc)
	}
	return j
}

// refTuple wraps an ordinal as the single-int tuple tree indexes store.
func refTuple(ord uint32) types.Tuple { return types.Tuple{types.Int(int64(ord))} }

// RelCount returns the stored tuples of one relation.
func (j *Traditional) RelCount(rel int) int { return j.stores[rel].arena.Rows() }

// ExportRelFrames streams one relation's stored rows as wire batch frames by
// blitting the packed rows — no tuple materialization.
func (j *Traditional) ExportRelFrames(rel, batchSize int, footer bool, visit func(frame []byte, count int) bool) {
	if footer {
		j.stores[rel].arena.EachFooterFrame(batchSize, nil, visit)
	} else {
		j.stores[rel].arena.EachFrame(batchSize, nil, visit)
	}
}

// ImportRow stores one encoded row without producing results (migration
// import, recovery restore): the row is blitted into the arena, keys its
// indexes and extends the views containing its relation like an arrival
// does.
func (j *Traditional) ImportRow(rel int, row []byte, cur *wire.Cursor) error {
	if rel < 0 || rel >= j.g.NumRels {
		return fmt.Errorf("localjoin: relation %d out of range", rel)
	}
	ps := &j.packed
	ps.curs[rel] = cur
	err := j.insertRow(rel, row)
	ps.curs[rel] = &ps.own[rel]
	return err
}

// MemSize reports operator state (stored tuples, combos and indexes): the
// real byte footprint of the slabs and arrays rather than a per-tuple
// estimate.
func (j *Traditional) MemSize() int {
	n := 0
	for _, v := range j.stores {
		n += v.arena.MemSize() + v.indexBytes()
	}
	for _, v := range j.views {
		n += 4*cap(v.refCombos) + v.indexBytes()
	}
	return n
}

func (v *store) indexBytes() int {
	n := 0
	for _, h := range v.eqRef {
		n += h.MemSize()
	}
	for _, t := range v.rngIdx {
		n += t.MemSize()
	}
	return n
}

// StoredTuples counts tuples across relations.
func (j *Traditional) StoredTuples() int {
	n := 0
	for rel := range j.stores {
		n += j.RelCount(rel)
	}
	return n
}

// ViewSizes reports the ordinals of every materialized view by relation
// mask, base views included, for tests and monitoring.
func (j *Traditional) ViewSizes() map[uint64]int {
	out := make(map[uint64]int, len(j.stores)+len(j.views))
	for _, vs := range [][]*store{j.stores, j.views} {
		for _, v := range vs {
			out[v.mask] = v.size()
		}
	}
	return out
}

// SpilledBytes reports state bytes currently resident on disk only
// (slab.SpillReporter; 0 unless tiered).
func (j *Traditional) SpilledBytes() int {
	n := 0
	for _, s := range j.stores {
		n += s.arena.SpilledBytes()
	}
	return n
}

// ReleaseState refunds the arenas' pressure-gauge charges; called when the
// operator instance is dropped (task rebirth, reshape, run end).
func (j *Traditional) ReleaseState() {
	for _, s := range j.stores {
		s.arena.ReleaseTier()
	}
}

// ExportRelTier exports one relation for an incremental checkpoint: sealed
// segments as store references (persisted to the tier's checkpoint store
// on first export) and hot rows as wire batch frames. Reports ok=false,
// having visited nothing, when the relation is not tiered or its tier has
// no checkpoint store; the caller then exports it with ExportRelFrames. A
// failed segment write is an error, not a fallback.
func (j *Traditional) ExportRelTier(rel, batchSize int, footer bool, visit func(frame []byte, count int) bool) ([]slab.SegmentCk, bool, error) {
	a := j.stores[rel].arena
	if !a.HasCkStore() {
		return nil, false, nil
	}
	cks, err := a.SealedSegmentCks()
	if err != nil {
		return nil, false, err
	}
	a.EachHotFrame(batchSize, footer, nil, visit)
	return cks, true, nil
}
