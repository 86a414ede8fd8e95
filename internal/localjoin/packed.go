// Packed execution (PR 5): the traditional local join consuming
// wire-encoded arrivals directly. The arriving row is blitted into the
// relation's slab arena (no wire.Encode round trip), index keys hash off
// the encoded field bytes, probe candidates are verified by field-view
// comparison instead of decode-then-Eval, and delta results are emitted as
// spliced encoded rows — the inner loop of a join task touches no
// []types.Value from wire to slab to wire.
package localjoin

import (
	"encoding/binary"
	"fmt"

	"squall/internal/expr"
	"squall/internal/index"
	"squall/internal/slab"
	"squall/internal/types"
	"squall/internal/wire"
)

// PackedJoin is implemented by local joins that can consume one
// wire-encoded arrival without materializing it.
type PackedJoin interface {
	// PackedCapable reports whether OnRow is usable for this operator's
	// graph; when false the caller must stay on OnTuple.
	PackedCapable() bool
	// OnRow is the packed OnTuple: it joins the encoded arrival against
	// stored state, passes each delta result to emit as one encoded row
	// (valid only during the callback), then stores the arrival.
	OnRow(rel int, row []byte, cur *wire.Cursor, emit func(row []byte) error) error
}

var _ PackedJoin = (*Traditional)(nil)

// PackedCapable reports the packed fast path applies: every conjunct side
// expression is a plain column ref (offset reads). Anything else falls back
// to the boxed OnTuple.
func (j *Traditional) PackedCapable() bool { return j.packedOK }

// packedState is the reusable per-arrival scratch of the packed expansion,
// sized at construction.
type packedState struct {
	curs []wire.Cursor // per-relation cursor over the assigned row
	out  []byte        // spliced result row
}

// OnRow joins the encoded arrival against the stored relations and stores
// it — the packed mirror of OnTuple. The emitted rows are the
// relation-order concatenations OnTuple's Delta.Concat would produce,
// byte-identical to their wire encoding.
func (j *Traditional) OnRow(rel int, row []byte, cur *wire.Cursor, emit func(row []byte) error) error {
	if !j.PackedCapable() {
		return fmt.Errorf("localjoin: OnRow on a non-packed-capable operator")
	}
	if rel < 0 || rel >= j.g.NumRels {
		return fmt.Errorf("localjoin: relation %d out of range", rel)
	}
	ps := &j.packed
	// Re-scan the row into the operator-owned cursor: a struct copy of the
	// caller's cursor would alias its offset slice, and a later Reset of
	// either would silently clobber the other's view.
	if err := ps.curs[rel].Reset(row); err != nil {
		return fmt.Errorf("localjoin: OnRow: %w", err)
	}
	if err := j.expandPacked(ps, j.plan[rel], emit); err != nil {
		return err
	}
	return j.insertRow(rel, row, &ps.curs[rel])
}

// fieldOf bound-checks a conjunct's column against a row's arity, mirroring
// expr.Col.Eval's range error.
func fieldOf(cur *wire.Cursor, col int) error {
	if col < 0 || col >= cur.Arity() {
		return fmt.Errorf("localjoin: column %d out of range for arity %d", col, cur.Arity())
	}
	return nil
}

// insertRow blits the arrival into the relation's arena and maintains its
// per-conjunct indexes off the encoded fields. The key hashes are
// types.Value hashes of the fields, so packed inserts and Insert share one
// index.
func (j *Traditional) insertRow(rel int, row []byte, cur *wire.Cursor) error {
	s := j.stores[rel]
	ref := s.arena.AppendEncoded(row)
	for ci := range j.g.Conjuncts {
		if j.sideExpr[ci][rel] == nil {
			continue
		}
		col := j.sideCol[ci][rel]
		if err := fieldOf(cur, col); err != nil {
			return fmt.Errorf("localjoin: index key: %w", err)
		}
		if h, ok := s.eqRef[ci]; ok {
			h.Insert(cur.ValueHash(col), uint32(ref))
		}
		if tr, ok := s.rngIdx[ci]; ok {
			tr.Insert(cur.Value(col), index.Item{T: refTuple(ref), W: 1})
		}
	}
	return nil
}

// expandPacked is expand over encoded rows: partial assignments are row
// cursors and completed assignments splice straight into the emit row. A
// candidate's stored row is touched once — one arena.RowBytes, one cursor
// scan — and key verification, filters and the splice all read that view:
// on a tiered arena every RowBytes is a possible fault-in, and a later call
// on the same arena may evict the segment an earlier slice points into.
// Relations have an arena each and a relation is assigned once per chain,
// so the view stays valid while deeper levels run.
func (j *Traditional) expandPacked(ps *packedState, steps []probeStep, emit func([]byte) error) error {
	if len(steps) == 0 {
		total := 0
		for r := range ps.curs {
			total += ps.curs[r].Arity()
		}
		out := binary.AppendUvarint(ps.out[:0], uint64(total))
		for r := range ps.curs {
			out = append(out, ps.curs[r].Payload()...)
		}
		ps.out = out
		return emit(out)
	}
	st := &steps[0]
	s := j.stores[st.next]
	cand := &ps.curs[st.next]
	var ocur *wire.Cursor
	if st.ci >= 0 {
		ocur = &ps.curs[st.other]
		if err := fieldOf(ocur, st.otherCol); err != nil {
			return err
		}
		if ocur.Kind(st.otherCol) == types.KindNull {
			return nil // a comparison with NULL holds for no key (CmpOp.Apply)
		}
	}
	verify := st.ci >= 0 && st.op == expr.Eq
	s.refBuf = s.refBuf[:0]
	switch {
	case verify:
		// Same 64-bit key hash the boxed path indexes under; a match by
		// hash is verified per candidate below.
		s.refBuf = s.eqRef[st.ci].AppendRefs(s.refBuf, ocur.ValueHash(st.otherCol))
	case st.ci >= 0:
		// The range bound is the only value the packed path materializes
		// (numeric fields do it without allocating).
		lo, hi := st.bounds(ocur.Value(st.otherCol))
		s.rngIdx[st.ci].Range(lo, hi, func(_ types.Value, it index.Item) bool {
			s.refBuf = append(s.refBuf, uint32(it.T[0].I))
			return true
		})
	default: // cross join or Ne-only: scan
		for r := range s.arena.Rows() {
			s.refBuf = append(s.refBuf, uint32(r))
		}
	}
candidates:
	for _, ref := range s.refBuf {
		if err := cand.Reset(s.arena.RowBytes(slab.Ref(ref))); err != nil {
			return fmt.Errorf("localjoin: corrupt stored row: %w", err)
		}
		if verify {
			// Field-view verification, so a hash collision can never
			// fabricate a result: the same Compare-equality the boxed path
			// verifies with.
			if err := fieldOf(cand, st.nextCol); err != nil {
				return err
			}
			if cmp, _ := wire.CompareFields(cand, st.nextCol, ocur, st.otherCol); cmp != 0 {
				continue
			}
		}
		for i := range st.filters {
			holds, err := filterHoldsPacked(ps, &st.filters[i])
			if err != nil {
				return err
			}
			if !holds {
				continue candidates
			}
		}
		if err := j.expandPacked(ps, steps[1:], emit); err != nil {
			return err
		}
	}
	return nil
}

// filterHoldsPacked evaluates one filter conjunct between two assigned rows
// under CmpOp.Apply semantics (NULL operands collapse to false).
func filterHoldsPacked(ps *packedState, f *stepFilter) (bool, error) {
	lcur, rcur := &ps.curs[f.lrel], &ps.curs[f.rrel]
	if err := fieldOf(lcur, f.lcol); err != nil {
		return false, err
	}
	if err := fieldOf(rcur, f.rcol); err != nil {
		return false, err
	}
	cmp, anyNull := wire.CompareFields(lcur, f.lcol, rcur, f.rcol)
	if anyNull {
		return false, nil
	}
	return expr.CmpHolds(f.op, cmp), nil
}
