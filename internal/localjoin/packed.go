// Packed execution: the traditional local join consuming wire-encoded
// arrivals directly — its one path. The arriving row is blitted into the
// relation's slab arena (no wire.Encode round trip), column keys hash off
// the encoded field bytes, probe candidates are verified by field-view
// comparison, and delta results are emitted as spliced encoded rows — on
// column keys the inner loop of a join task touches no []types.Value from
// wire to slab to wire. A computed key is evaluated over the decoded row
// where it is read, and hashes and compares as the same types.Value.
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

// key is one conjunct side as the row path reads it: column col of the
// row, read in place, or — when e is set — the expression evaluated over
// the decoded row. Both hash as types.Value.Hash (wire.Cursor.ValueHash on
// a column) and order as types.Value.Compare (wire.CompareFields).
type key struct {
	col int
	e   expr.Expr
}

// keyOf resolves a conjunct side.
func keyOf(e expr.Expr) key {
	if col, ok := expr.ColIndex(e); ok {
		return key{col: col}
	}
	return key{e: e}
}

// packedState is the reusable scratch of the packed expansion, sized at
// construction and grown to the largest frame.
type packedState struct {
	// curs[r] is the cursor relation r is assigned through: own[r] for a
	// stored candidate, or the staged cursor of the arriving row for the
	// arrival's relation.
	curs []*wire.Cursor
	own  []wire.Cursor
	rows []wire.Cursor // one parsed cursor per row of the frame being joined
	one  [][]byte      // OnRow's one-row frame
	// The first step's candidates over a whole frame: candRef[k] is a
	// stored ref, candRow[k] the staged row it was probed for, and order
	// their positions keyed by segment.
	candRow, candRef []uint32
	order            []uint64
	out              []byte      // spliced result row
	tup              types.Tuple // decoded row a computed key evaluates over
}

// value reads k off cur: the field for a column key, the expression's
// value over the decoded row for a computed one.
func (ps *packedState) value(cur *wire.Cursor, k key) (types.Value, error) {
	if k.e == nil {
		if err := fieldOf(cur, k.col); err != nil {
			return types.Value{}, err
		}
		return cur.Value(k.col), nil
	}
	ps.tup = cur.Tuple(ps.tup)
	v, err := k.e.Eval(ps.tup)
	if err != nil {
		return v, fmt.Errorf("localjoin: key %s: %w", k.e, err)
	}
	return v, nil
}

// hash is k's index hash on cur: types.Value.Hash of its value, read off
// the encoded field for a column key.
func (ps *packedState) hash(cur *wire.Cursor, k key) (uint64, error) {
	if k.e == nil {
		if err := fieldOf(cur, k.col); err != nil {
			return 0, err
		}
		return cur.ValueHash(k.col), nil
	}
	v, err := ps.value(cur, k)
	return v.Hash(), err
}

// compare orders key a of acur against key b of bcur under
// types.Value.Compare; anyNull reports a NULL operand (see
// wire.Cursor.CompareValue). Two column keys compare in place.
func (ps *packedState) compare(acur *wire.Cursor, a key, bcur *wire.Cursor, b key) (cmp int, anyNull bool, err error) {
	if a.e == nil && b.e == nil {
		if err := fieldOf(acur, a.col); err != nil {
			return 0, false, err
		}
		if err := fieldOf(bcur, b.col); err != nil {
			return 0, false, err
		}
		cmp, anyNull = wire.CompareFields(acur, a.col, bcur, b.col)
		return cmp, anyNull, nil
	}
	av, err := ps.value(acur, a)
	if err != nil {
		return 0, false, err
	}
	bv, err := ps.value(bcur, b)
	if err != nil {
		return 0, false, err
	}
	return av.Compare(bv), av.IsNull() || bv.IsNull(), nil
}

// OnRow joins the encoded arrival against the stored relations and stores
// it: OnRows of a one-row frame. Each emitted row is the relation-order
// concatenation of the joined rows (Delta.Concat, wire-encoded). cur is not
// read: OnRows scans the row into a cursor of its own.
func (j *Traditional) OnRow(rel int, row []byte, _ *wire.Cursor, emit func(row []byte) error) error {
	ps := &j.packed
	ps.one[0] = row
	err := j.OnRows(rel, ps.one, emit)
	ps.one[0] = nil
	return err
}

// OnRows joins a frame of encoded arrivals of relation rel against the
// stored relations, then stores them. When the arena the first plan step
// probes has spilled, that step gathers every row's candidates — hash,
// range or scan — before any stored row is read and walks them bucketed by
// segment (ref / SegmentRows), so a spilled segment faults in at most once
// per frame; on a resident arena there is one bucket and the walk keeps
// arrival order. Deeper steps run per candidate. The rows are stored only after
// every probe: no plan step of rel assigns rel, so an arrival never probes
// its own relation's arena and the frame's rows cannot meet one another,
// just as when they arrive one by one. The emitted bag is OnRow's row by
// row; only its order within the frame differs. Each row is scanned once,
// into a staged cursor the probes and the insert share.
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
		if err := j.insertRow(rel, row, &ps.rows[i]); err != nil {
			return err
		}
	}
	return nil
}

// probeFrame runs rel's plan for the first n staged rows. While the first
// step's arena is resident its candidates form one bucket, and walking it in
// arrival order is expanding row by row. Once it has spilled, a scan's
// candidates are every stored row, walked segment by segment without being
// listed; an index probe's are gathered for the whole frame and sorted by
// segment, keeping gather order inside each.
func (j *Traditional) probeFrame(ps *packedState, rel, n int, emit func([]byte) error) error {
	steps := j.plan[rel]
	span := 0
	if len(steps) > 0 {
		span = j.stores[steps[0].next].arena.FaultSpan()
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
		total := j.stores[st.next].arena.Rows()
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

// fieldOf bound-checks a conjunct's column against a row's arity, mirroring
// expr.Col.Eval's range error.
func fieldOf(cur *wire.Cursor, col int) error {
	if col < 0 || col >= cur.Arity() {
		return fmt.Errorf("localjoin: column %d out of range for arity %d", col, cur.Arity())
	}
	return nil
}

// insertRow blits the arrival into the relation's arena and maintains its
// per-conjunct indexes: hash indexes under the key's types.Value hash, tree
// indexes under its value.
func (j *Traditional) insertRow(rel int, row []byte, cur *wire.Cursor) error {
	s := j.stores[rel]
	ref := s.arena.AppendEncoded(row)
	for ci := range j.g.Conjuncts {
		if c := &j.g.Conjuncts[ci]; c.LRel != rel && c.RRel != rel {
			continue
		}
		k := j.keys[ci][rel]
		if h, ok := s.eqRef[ci]; ok {
			hash, err := j.packed.hash(cur, k)
			if err != nil {
				return fmt.Errorf("localjoin: index key: %w", err)
			}
			h.Insert(hash, uint32(ref))
		}
		if tr, ok := s.rngIdx[ci]; ok {
			v, err := j.packed.value(cur, k)
			if err != nil {
				return fmt.Errorf("localjoin: index key: %w", err)
			}
			tr.Insert(v, index.Item{T: refTuple(ref), W: 1})
		}
	}
	return nil
}

// expandPacked runs the remaining steps of a chain: partial assignments are
// row cursors and completed assignments splice straight into the emit row.
// Relations have an arena each and a relation is assigned once per chain,
// so a candidate's view stays valid while deeper levels run.
func (j *Traditional) expandPacked(ps *packedState, steps []probeStep, emit func([]byte) error) error {
	if len(steps) == 0 {
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
	s := j.stores[st.next]
	if st.ci < 0 { // cross join or Ne-only: scan
		for ref := range s.arena.Rows() {
			if err := j.tryCand(ps, st, uint32(ref), rest, emit); err != nil {
				return err
			}
		}
		return nil
	}
	var err error
	if s.refBuf, err = j.appendCands(ps, st, s.refBuf[:0]); err != nil {
		return err
	}
	for _, ref := range s.refBuf {
		if err := j.tryCand(ps, st, ref, rest, emit); err != nil {
			return err
		}
	}
	return nil
}

// appendCands appends to dst the refs st's index returns for the key of
// the assigned relation st.other: by 64-bit key hash for an equality
// (tryCand verifies each), by tree range otherwise. A NULL key matches
// nothing (CmpOp.Apply).
func (j *Traditional) appendCands(ps *packedState, st *probeStep, dst []uint32) ([]uint32, error) {
	ocur, k := ps.curs[st.other], st.otherKey
	s := j.stores[st.next]
	if k.e == nil && st.op == expr.Eq {
		if err := fieldOf(ocur, k.col); err != nil {
			return dst, err
		}
		if ocur.Kind(k.col) == types.KindNull {
			return dst, nil
		}
		return s.eqRef[st.ci].AppendRefs(dst, ocur.ValueHash(k.col)), nil
	}
	// The key's value: a range bound (numeric fields materialize without
	// allocating), or a computed key.
	v, err := ps.value(ocur, k)
	if err != nil || v.IsNull() {
		return dst, err
	}
	if st.op == expr.Eq {
		return s.eqRef[st.ci].AppendRefs(dst, v.Hash()), nil
	}
	lo, hi := st.bounds(v)
	s.rngIdx[st.ci].Range(lo, hi, func(_ types.Value, it index.Item) bool {
		dst = append(dst, uint32(it.T[0].I))
		return true
	})
	return dst, nil
}

// tryCand assigns stored row ref to st.next and, when its probe key
// verifies and every filter of the step holds, expands the remaining steps.
// The stored row is touched once — one arena.RowBytes, one cursor scan —
// and verification, filters and the splice all read that view: on a tiered
// arena every RowBytes is a possible fault-in, and a later call on the same
// arena may evict the segment an earlier slice points into.
func (j *Traditional) tryCand(ps *packedState, st *probeStep, ref uint32, rest []probeStep, emit func([]byte) error) error {
	cand := ps.curs[st.next]
	if err := cand.Reset(j.stores[st.next].arena.RowBytes(slab.Ref(ref))); err != nil {
		return fmt.Errorf("localjoin: corrupt stored row: %w", err)
	}
	if st.ci >= 0 && st.op == expr.Eq {
		// Verify the key, so a hash collision can never fabricate a result
		// (appendCands already dropped a NULL probe key).
		cmp, _, err := ps.compare(cand, st.nextKey, ps.curs[st.other], st.otherKey)
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

// filterHoldsPacked evaluates one filter conjunct between two assigned rows
// under CmpOp.Apply semantics (NULL operands collapse to false).
func filterHoldsPacked(ps *packedState, f *stepFilter) (bool, error) {
	cmp, anyNull, err := ps.compare(ps.curs[f.lrel], f.lkey, ps.curs[f.rrel], f.rkey)
	if err != nil || anyNull {
		return false, err
	}
	return expr.CmpHolds(f.op, cmp), nil
}
