// Package localjoin implements Squall's traditional online local joins
// (§3.3): each machine stores the tuples it has received per relation,
// builds indexes on the fly — hash indexes for equi-join keys, balanced
// binary trees for band and inequality keys — and, on every arrival, probes
// the other relations' indexes to produce the delta result.
//
// This is the baseline DBToaster is compared against in Figure 8: for an
// n-way join it re-enumerates all matching combinations from base-relation
// indexes on every arrival, where DBToaster (internal/dbtoaster) reuses
// materialized intermediate views.
//
// Stored state is slab-backed: each relation's tuples are packed rows in a
// slab.Arena addressed by 32-bit refs, equi-conjunct indexes are
// open-addressing index.RefHash multimaps keyed by the 64-bit canonical
// value hash, and tree indexes hold refs. State keeps full history: a stored
// tuple is never removed, so refs and indexes only grow.
package localjoin

import (
	"fmt"

	"squall/internal/expr"
	"squall/internal/index"
	"squall/internal/slab"
	"squall/internal/types"
	"squall/internal/wire"
)

// Delta is one output increment: the joined tuples, one per relation, in
// relation order. Concat() flattens it into a result row.
type Delta []types.Tuple

// Concat renders the delta as a single concatenated tuple.
func (d Delta) Concat() types.Tuple {
	n := 0
	for _, t := range d {
		n += len(t)
	}
	out := make(types.Tuple, 0, n)
	for _, t := range d {
		out = append(out, t...)
	}
	return out
}

// MultiJoin is an online local multi-way join operator: OnTuple feeds one
// new tuple and returns the delta results it completes.
type MultiJoin interface {
	OnTuple(rel int, t types.Tuple) ([]Delta, error)
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

// store holds one relation's tuples as packed rows addressed by refs, plus
// its per-conjunct indexes over those refs.
type store struct {
	arena  *slab.Arena
	eqRef  map[int]*index.RefHash // conjunct id -> refs by key hash
	refBuf []uint32               // probe scratch
	// candBuf is the reusable candidate slice: a store is probed at most
	// once per expand chain, and the slice is only read during that chain,
	// so reuse is safe (the decoded tuples themselves escape, the slice
	// header does not).
	candBuf []types.Tuple
	// rngIdx holds Tuple{Int(ref)} items (refTuple).
	rngIdx map[int]*index.Tree
}

var (
	_ Migrator      = (*Traditional)(nil)
	_ FrameExporter = (*Traditional)(nil)
)

// Traditional is the index-nested-loop online multi-way join.
type Traditional struct {
	g      *expr.JoinGraph
	stores []*store
	// sideExpr[c][rel] is the rel-side expression of conjunct c (nil if rel
	// is not a side of c).
	sideExpr [][]expr.Expr
	// sideCol[c][rel] is sideExpr[c][rel]'s column index when it is a plain
	// column ref (-1 otherwise); packedOK reports every side expression
	// lowered, enabling the packed OnRow path (packed.go).
	sideCol  [][]int
	packedOK bool
	packed   packedState
	decBuf   types.Tuple // ImportRow scratch on computed-key graphs
	// plan[rel] is the expansion an arrival of rel drives (plan.go).
	plan [][]probeStep
}

// NewTraditional builds the operator for a join graph, creating hash indexes
// for equality conjuncts and tree indexes for order conjuncts (§3.3's
// example: R.A = S.A AND 2·R.B < S.C builds hash indexes on R.A, S.A and
// tree indexes on 2·R.B and S.C).
func NewTraditional(g *expr.JoinGraph) *Traditional {
	j := &Traditional{g: g, packedOK: true}
	j.sideExpr = make([][]expr.Expr, len(g.Conjuncts))
	j.sideCol = make([][]int, len(g.Conjuncts))
	for ci, c := range g.Conjuncts {
		j.sideExpr[ci] = make([]expr.Expr, g.NumRels)
		j.sideExpr[ci][c.LRel] = c.Left
		j.sideExpr[ci][c.RRel] = c.Right
		j.sideCol[ci] = make([]int, g.NumRels)
		for rel := range j.sideCol[ci] {
			j.sideCol[ci][rel] = -1
		}
		for _, rel := range [2]int{c.LRel, c.RRel} {
			if col, ok := expr.ColIndex(j.sideExpr[ci][rel]); ok {
				j.sideCol[ci][rel] = col
			} else {
				j.packedOK = false
			}
		}
	}
	j.stores = make([]*store, g.NumRels)
	for rel := range j.stores {
		s := &store{arena: slab.New(), eqRef: map[int]*index.RefHash{}, rngIdx: map[int]*index.Tree{}}
		for ci, c := range g.Conjuncts {
			if c.LRel != rel && c.RRel != rel {
				continue
			}
			switch c.Op {
			case expr.Eq:
				s.eqRef[ci] = index.NewRefHash()
			case expr.Lt, expr.Le, expr.Gt, expr.Ge:
				s.rngIdx[ci] = index.NewTree()
			}
		}
		j.stores[rel] = s
	}
	j.packed.curs = make([]*wire.Cursor, g.NumRels)
	j.packed.own = make([]wire.Cursor, g.NumRels)
	j.packed.one = make([][]byte, 1)
	j.compilePlan()
	return j
}

// NewTraditionalTiered builds the operator with tiered arenas: relation
// state seals into checksummed segments and spills to tc.Store under memory
// pressure. Refs stay stable across seals and spills, so the indexes never
// see a remap.
func NewTraditionalTiered(g *expr.JoinGraph, tc slab.TierConfig) *Traditional {
	j := NewTraditional(g)
	base := tc.KeyPrefix
	for rel, s := range j.stores {
		rc := tc
		rc.KeyPrefix = fmt.Sprintf("%s-r%d", base, rel)
		s.arena.EnableTier(rc)
	}
	return j
}

// refTuple wraps a row ref as the single-int tuple tree indexes store.
func refTuple(ref slab.Ref) types.Tuple { return types.Tuple{types.Int(int64(ref))} }

// OnTuple joins t against the stored tuples of all other relations and then
// stores t (with index maintenance) for future arrivals.
func (j *Traditional) OnTuple(rel int, t types.Tuple) ([]Delta, error) {
	if rel < 0 || rel >= j.g.NumRels {
		return nil, fmt.Errorf("localjoin: relation %d out of range", rel)
	}
	partial := make([]types.Tuple, j.g.NumRels)
	partial[rel] = t
	var out []Delta
	if err := j.expand(j.plan[rel], partial, &out); err != nil {
		return nil, err
	}
	if err := j.Insert(rel, t); err != nil {
		return nil, err
	}
	return out, nil
}

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
// import, recovery restore). A lowered graph blits the row and keys its
// indexes off the encoded fields; computed keys need the tuple for Eval.
func (j *Traditional) ImportRow(rel int, row []byte, cur *wire.Cursor) error {
	if rel < 0 || rel >= j.g.NumRels {
		return fmt.Errorf("localjoin: relation %d out of range", rel)
	}
	if j.packedOK {
		return j.insertRow(rel, row, cur)
	}
	j.decBuf = cur.Tuple(j.decBuf)
	return j.Insert(rel, j.decBuf)
}

// Insert stores a tuple with its index maintenance but produces no results
// (state preload).
func (j *Traditional) Insert(rel int, t types.Tuple) error {
	s := j.stores[rel]
	ref := s.arena.Append(t)
	for ci := range j.g.Conjuncts {
		e := j.sideExpr[ci][rel]
		if e == nil {
			continue
		}
		v, err := e.Eval(t)
		if err != nil {
			return fmt.Errorf("localjoin: index key %s: %w", e, err)
		}
		if h, ok := s.eqRef[ci]; ok {
			h.Insert(v.Hash(), uint32(ref))
		}
		if tr, ok := s.rngIdx[ci]; ok {
			tr.Insert(v, index.Item{T: refTuple(ref), W: 1})
		}
	}
	return nil
}

// expand recursively extends a partial assignment along the arrival's
// compiled steps, probing each next relation's index.
func (j *Traditional) expand(steps []probeStep, partial []types.Tuple, out *[]Delta) error {
	if len(steps) == 0 {
		d := make(Delta, len(partial))
		copy(d, partial)
		*out = append(*out, d)
		return nil
	}
	st := &steps[0]
	candidates, err := j.probe(st, partial)
	if err != nil {
		return err
	}
candidates:
	for _, cand := range candidates {
		partial[st.next] = cand
		for i := range st.filters {
			holds, err := j.g.Conjuncts[st.filters[i].ci].Holds(partial)
			if err != nil {
				return err
			}
			if !holds {
				continue candidates
			}
		}
		if err := j.expand(steps[1:], partial, out); err != nil {
			return err
		}
	}
	partial[st.next] = nil
	return nil
}

// probe returns the candidate tuples of the step's relation that pass its
// probe conjunct against the partial assignment; the step's filters are
// left to the caller.
func (j *Traditional) probe(st *probeStep, partial []types.Tuple) ([]types.Tuple, error) {
	s := j.stores[st.next]
	if st.ci < 0 {
		return j.scanAll(s), nil // cross join or Ne-only: scan
	}
	// The conjunct reads key(t_next) op v, v off the assigned side.
	v, err := j.sideExpr[st.ci][st.other].Eval(partial[st.other])
	if err != nil {
		return nil, err
	}
	if v.IsNull() {
		return nil, nil // a comparison with NULL holds for no key (CmpOp.Apply)
	}
	if st.op != expr.Eq {
		lo, hi := st.bounds(v)
		return j.treeCollect(s, s.rngIdx[st.ci], lo, hi), nil
	}
	// The equi probe matches by 64-bit key hash; verify each candidate's
	// key value so a hash collision can never fabricate a result (one
	// expression eval + compare per candidate, cheaper than re-running the
	// conjunct as a filter).
	s.refBuf = s.eqRef[st.ci].AppendRefs(s.refBuf[:0], v.Hash())
	keyE := j.sideExpr[st.ci][st.next]
	out := s.candBuf[:0]
	for _, ref := range s.refBuf {
		cand := s.arena.Decode(slab.Ref(ref))
		kv, err := keyE.Eval(cand)
		if err != nil {
			return nil, err
		}
		if kv.Equal(v) {
			out = append(out, cand)
		}
	}
	s.candBuf = out
	return out, nil
}

// scanAll returns every stored tuple of a relation (cross joins).
func (j *Traditional) scanAll(s *store) []types.Tuple {
	out := make([]types.Tuple, 0, s.arena.Rows())
	for r := range s.arena.Rows() {
		out = append(out, s.arena.Decode(slab.Ref(r)))
	}
	return out
}

func (j *Traditional) treeCollect(s *store, tr *index.Tree, lo, hi index.Bound) []types.Tuple {
	out := s.candBuf[:0]
	tr.Range(lo, hi, func(_ types.Value, it index.Item) bool {
		out = append(out, s.arena.Decode(slab.Ref(it.T[0].I)))
		return true
	})
	s.candBuf = out
	return out
}

// MemSize reports operator state (stored tuples + indexes): the real byte
// footprint of the slabs and index arrays rather than a per-tuple estimate.
func (j *Traditional) MemSize() int {
	n := 0
	for _, s := range j.stores {
		n += s.arena.MemSize()
		for _, h := range s.eqRef {
			n += h.MemSize()
		}
		for _, t := range s.rngIdx {
			n += t.MemSize()
		}
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

// ExportRelTier exports one relation for an incremental (v2) checkpoint:
// sealed segments as store references (persisted to the tier's checkpoint
// store on first export) and hot rows as wire batch frames. Reports
// ok=false when the relation is not tiered or has no checkpoint store —
// the caller falls back to full-frame export.
func (j *Traditional) ExportRelTier(rel, batchSize int, footer bool, visit func(frame []byte, count int) bool) ([]slab.SegmentCk, bool, error) {
	if !j.stores[rel].arena.Tiered() {
		return nil, false, nil
	}
	a := j.stores[rel].arena
	cks, err := a.SealedSegmentCks()
	if err != nil {
		return nil, false, nil // no checkpoint store: v1 fallback
	}
	a.EachHotFrame(batchSize, footer, nil, visit)
	return cks, true, nil
}
