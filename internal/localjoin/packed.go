// Packed execution: the local join consuming wire-encoded arrivals
// directly — its one path, under either index policy. The arriving row is
// blitted into its relation's slab arena (no wire.Encode round trip),
// column keys hash off the encoded field bytes, probe candidates — a stored
// row, or a combo of them — are verified by field-view comparison, and
// delta results are emitted as spliced encoded rows, or appended to a view
// as ref combos: the inner loop of a join task decodes no row from wire to
// slab to wire. Conjunct sides are read as expr.Keys: a column key in
// place, a computed key evaluated over the fields it names where it is
// read, hashing and comparing as the same types.Value.
package localjoin

import (
	"encoding/binary"
	"fmt"
	"slices"

	"squall/internal/expr"
	"squall/internal/index"
	"squall/internal/slab"
	"squall/internal/types"
	"squall/internal/wire"
)

// PackedJoin is implemented by local joins that consume wire-encoded
// arrivals.
type PackedJoin interface {
	// PackedCapable reports whether OnRow is usable for this operator's
	// graph. Every operator answers true; the benchmark's replay still asks.
	PackedCapable() bool
	// OnRow joins the encoded arrival against stored state, passes each
	// delta result to emit as one encoded row (valid only during the
	// callback), then stores the arrival.
	OnRow(rel int, row []byte, cur *wire.Cursor, emit func(row []byte) error) error
}

var _ PackedJoin = (*Traditional)(nil)

// PackedCapable reports true: every graph runs on encoded rows.
func (j *Traditional) PackedCapable() bool { return true }

// packedState is the reusable scratch of the packed expansion, sized at
// construction and grown to the largest frame.
type packedState struct {
	// curs[r] is the cursor relation r is assigned through: own[r] for a
	// stored candidate, or the staged cursor of the arriving row for the
	// arrival's relation; refs[r] is that row's ref.
	curs []*wire.Cursor
	own  []wire.Cursor
	refs []slab.Ref
	// into is the combo view a completed assignment is appended to during
	// view maintenance; nil while probing, when it is emitted.
	into *store
	rows []wire.Cursor // one parsed cursor per row of the frame being joined
	one  [][]byte      // OnRow's one-row frame
	// The first step's candidates over a whole frame: candRef[k] is a
	// stored ref, candRow[k] the staged row it was probed for, and order
	// their positions keyed by segment.
	candRow, candRef []uint32
	order            []uint64
	out              []byte // spliced result row
}

// OnRow joins the encoded arrival against the stored relations and stores
// it: OnRows of a one-row frame. Each emitted row is the relation-order
// concatenation of the joined rows' fields, wire-encoded. cur is not read:
// OnRows scans the row into a cursor of its own.
func (j *Traditional) OnRow(rel int, row []byte, _ *wire.Cursor, emit func(row []byte) error) error {
	ps := &j.packed
	ps.one[0] = row
	err := j.OnRows(rel, ps.one, emit)
	ps.one[0] = nil
	return err
}

// OnRows joins a frame of encoded arrivals of relation rel against the
// stored relations, then stores them, each extending the views that
// contain rel. When the base arena the first plan step probes has spilled,
// that step gathers every row's candidates — hash, range or scan — before
// any stored row is read and walks them bucketed by segment (ref /
// SegmentRows), so a spilled segment faults in at most once per frame; on
// a resident arena there is one bucket and the walk keeps arrival order,
// and a combo view first step walks each row's candidates in gather order.
// Deeper steps run per candidate. The rows are stored only after every
// probe: no plan step of rel reads a view containing rel, so an arrival
// never probes its own relation's rows and the frame's rows cannot meet one
// another, just as when they arrive one by one; nor does any step that
// extends a view for a row of rel. The emitted bag is OnRow's row by row;
// only its order within the frame differs. Each row is scanned once, into a
// staged cursor the probes and the insert share.
func (j *Traditional) OnRows(rel int, rows [][]byte, emit func(row []byte) error) error {
	if rel < 0 || rel >= j.g.NumRels {
		return fmt.Errorf("localjoin: relation %d out of range", rel)
	}
	ps := &j.packed
	for len(ps.rows) < len(rows) {
		ps.rows = append(ps.rows, wire.Cursor{})
	}
	for i, row := range rows {
		if err := ps.rows[i].Reset(row); err != nil {
			return fmt.Errorf("localjoin: OnRows: %w", err)
		}
	}
	for r := range ps.curs {
		ps.curs[r] = &ps.own[r]
	}
	if err := j.probeFrame(ps, rel, len(rows), emit); err != nil {
		return err
	}
	for i, row := range rows {
		ps.curs[rel] = &ps.rows[i]
		if err := j.insertRow(rel, row); err != nil {
			return err
		}
	}
	return nil
}

// probeFrame runs rel's plan for the first n staged rows. While the first
// step's view is a combo view or a resident arena its candidates form one
// bucket, and walking it in arrival order is expanding row by row. Once
// the arena has spilled, a scan's candidates are every stored row, walked
// segment by segment without being listed; an index probe's are gathered
// for the whole frame and sorted by segment, keeping gather order inside
// each.
func (j *Traditional) probeFrame(ps *packedState, rel, n int, emit func([]byte) error) error {
	steps := j.plan[rel]
	span := 0
	if len(steps) > 0 && steps[0].view.arena != nil {
		span = steps[0].view.arena.FaultSpan()
	}
	if span == 0 {
		for i := 0; i < n; i++ {
			ps.curs[rel] = &ps.rows[i]
			if err := j.expandPacked(ps, steps, emit); err != nil {
				return err
			}
		}
		return nil
	}
	st, rest := &steps[0], steps[1:]
	if st.ci < 0 { // cross join or Ne-only: scan
		total := st.view.arena.Rows()
		for lo := 0; lo < total; lo += span {
			for i := 0; i < n; i++ {
				ps.curs[rel] = &ps.rows[i]
				for ref := lo; ref < min(lo+span, total); ref++ {
					if err := j.tryCand(ps, st, uint32(ref), rest, emit); err != nil {
						return err
					}
				}
			}
		}
		return nil
	}
	ps.candRow, ps.candRef, ps.order = ps.candRow[:0], ps.candRef[:0], ps.order[:0]
	for i := 0; i < n; i++ {
		ps.curs[rel] = &ps.rows[i]
		from := len(ps.candRef)
		var err error
		if ps.candRef, err = j.appendCands(ps, st, ps.candRef); err != nil {
			return err
		}
		for _, ref := range ps.candRef[from:] {
			// Segment in the high word, gather position in the low.
			ps.order = append(ps.order, uint64(ref/uint32(span))<<32|uint64(len(ps.candRow)))
			ps.candRow = append(ps.candRow, uint32(i))
		}
	}
	slices.Sort(ps.order)
	for _, o := range ps.order {
		k := uint32(o)
		ps.curs[rel] = &ps.rows[ps.candRow[k]]
		if err := j.tryCand(ps, st, ps.candRef[k], rest, emit); err != nil {
			return err
		}
	}
	return nil
}

// insertRow stores the arrival staged at curs[rel]: blits it into the
// relation's arena, files the ref under the base view's indexes, then
// extends every combo view containing rel by the arrival's joins with the
// rest of the view.
func (j *Traditional) insertRow(rel int, row []byte) error {
	ps := &j.packed
	s := j.stores[rel]
	ref := s.arena.AppendEncoded(row)
	ps.refs[rel] = ref
	if err := j.indexOrdinal(s, uint32(ref)); err != nil {
		return err
	}
	for i := range j.maint[rel] {
		m := &j.maint[rel][i]
		ps.into = m.view
		err := j.expandPacked(ps, m.steps, nil)
		ps.into = nil
		if err != nil {
			return err
		}
	}
	return nil
}

// appendCombo appends the assigned refs of view v's relations to it as one
// combo and indexes the new ordinal.
func (j *Traditional) appendCombo(ps *packedState, v *store) error {
	ord := uint32(v.size())
	for _, r := range v.rels {
		v.refCombos = append(v.refCombos, ps.refs[r])
	}
	return j.indexOrdinal(v, ord)
}

// indexOrdinal files ordinal ord of view v under each boundary index,
// reading the key off the assigned cursor of its inside relation: hash
// indexes under the key's types.Value hash, tree indexes under its value.
func (j *Traditional) indexOrdinal(v *store, ord uint32) error {
	ps := &j.packed
	for ci := range j.g.Conjuncts {
		in := j.inside(v.mask, ci)
		if in < 0 {
			continue
		}
		k := j.keys[ci][in]
		if h, ok := v.eqRef[ci]; ok {
			hash, _, err := k.Hash(ps.curs[in])
			if err != nil {
				return fmt.Errorf("localjoin: index key: %w", err)
			}
			h.Insert(hash, ord)
		}
		if tr, ok := v.rngIdx[ci]; ok {
			val, err := k.Value(ps.curs[in])
			if err != nil {
				return fmt.Errorf("localjoin: index key: %w", err)
			}
			tr.Insert(val, index.Item{T: refTuple(ord), W: 1})
		}
	}
	return nil
}

// expandPacked runs the remaining steps of a chain: partial assignments are
// row cursors, and a completed assignment splices straight into the emit
// row — or, during view maintenance, is appended to ps.into as a combo.
// Relations have an arena each and a relation is assigned once per chain,
// so a candidate's view stays valid while deeper levels run.
func (j *Traditional) expandPacked(ps *packedState, steps []probeStep, emit func([]byte) error) error {
	if len(steps) == 0 {
		if ps.into != nil {
			return j.appendCombo(ps, ps.into)
		}
		total := 0
		for _, c := range ps.curs {
			total += c.Arity()
		}
		out := binary.AppendUvarint(ps.out[:0], uint64(total))
		for _, c := range ps.curs {
			out = append(out, c.Payload()...)
		}
		ps.out = out
		return emit(out)
	}
	st, rest := &steps[0], steps[1:]
	v := st.view
	if st.ci < 0 { // cross join or Ne-only: scan
		for ord := range v.size() {
			if err := j.tryCand(ps, st, uint32(ord), rest, emit); err != nil {
				return err
			}
		}
		return nil
	}
	var err error
	if v.refBuf, err = j.appendCands(ps, st, v.refBuf[:0]); err != nil {
		return err
	}
	for _, ord := range v.refBuf {
		if err := j.tryCand(ps, st, ord, rest, emit); err != nil {
			return err
		}
	}
	return nil
}

// appendCands appends to dst the ordinals st's view index returns for the
// key of the assigned relation st.other: by 64-bit key hash for an equality
// (tryCand verifies each), by tree range otherwise. A NULL key matches
// nothing (CmpOp.Apply).
func (j *Traditional) appendCands(ps *packedState, st *probeStep, dst []uint32) ([]uint32, error) {
	ocur, k := ps.curs[st.other], st.otherKey
	s := st.view
	if st.op == expr.Eq {
		h, null, err := k.Hash(ocur)
		if err != nil || null {
			return dst, err
		}
		return s.eqRef[st.ci].AppendRefs(dst, h), nil
	}
	v, err := k.Value(ocur)
	if err != nil || v.IsNull() {
		return dst, err
	}
	lo, hi := st.bounds(v)
	s.rngIdx[st.ci].Range(lo, hi, func(_ types.Value, it index.Item) bool {
		dst = append(dst, uint32(it.T[0].I))
		return true
	})
	return dst, nil
}

// tryCand assigns ordinal ord of st.view to its relations and, when its
// probe key verifies and every filter of the step holds, expands the
// remaining steps. Each stored row is touched once — one arena.RowBytes,
// one cursor scan — and verification, filters, the splice and the combo
// leaf all read that view: on a tiered arena every RowBytes is a possible
// fault-in, and a later call on the same arena may evict the segment an
// earlier slice points into.
func (j *Traditional) tryCand(ps *packedState, st *probeStep, ord uint32, rest []probeStep, emit func([]byte) error) error {
	if v := st.view; v.arena != nil { // a base view: the ordinal is the ref
		if err := j.assignRow(ps, st.next, slab.Ref(ord)); err != nil {
			return err
		}
	} else {
		combo := v.refCombos[int(ord)*len(v.rels):][:len(v.rels)]
		for k, r := range v.rels {
			if err := j.assignRow(ps, r, combo[k]); err != nil {
				return err
			}
		}
	}
	if st.ci >= 0 && st.op == expr.Eq {
		// Verify the key, so a hash collision can never fabricate a result
		// (appendCands already dropped a NULL probe key).
		cmp, _, err := expr.CompareKeys(ps.curs[st.next], st.nextKey, ps.curs[st.other], st.otherKey)
		if err != nil || cmp != 0 {
			return err
		}
	}
	for i := range st.filters {
		if holds, err := filterHoldsPacked(ps, &st.filters[i]); err != nil || !holds {
			return err
		}
	}
	return j.expandPacked(ps, rest, emit)
}

// assignRow points relation r's cursor at its stored row ref.
func (j *Traditional) assignRow(ps *packedState, r int, ref slab.Ref) error {
	ps.refs[r] = ref
	if err := ps.curs[r].Reset(j.stores[r].arena.RowBytes(ref)); err != nil {
		return fmt.Errorf("localjoin: corrupt stored row: %w", err)
	}
	return nil
}

// filterHoldsPacked evaluates one filter conjunct between two assigned rows
// under CmpOp.Apply semantics (NULL operands collapse to false).
func filterHoldsPacked(ps *packedState, f *stepFilter) (bool, error) {
	cmp, anyNull, err := expr.CompareKeys(ps.curs[f.lrel], f.lkey, ps.curs[f.rrel], f.rkey)
	if err != nil || anyNull {
		return false, err
	}
	return expr.CmpHolds(f.op, cmp), nil
}
