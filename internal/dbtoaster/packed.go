// Packed execution (PR 5) for the tuple-level DBToaster operator. The view
// machinery (recursive probes over materialized combos, boundary-index
// maintenance on arbitrary expressions) still works on one materialized
// tuple per arrival, but the two slab touchpoints go packed: the arriving
// row blits into its singleton arena without a wire.Encode round trip, and
// delta results are emitted as hand-assembled encoded rows instead of
// Concat-then-encode tuple copies.
package dbtoaster

import (
	"encoding/binary"
	"fmt"

	"squall/internal/slab"
	"squall/internal/types"
	"squall/internal/wire"
)

// PackedCapable reports whether OnRow applies: always, since every arrival
// blits into a slab arena.
func (j *TupleJoin) PackedCapable() bool { return true }

// OnRow is the packed OnTuple: one tuple materialization per arrival (the
// views need evaluated expressions), a blitted arena insert, and encoded
// delta emission. Emitted rows are valid only during the callback.
func (j *TupleJoin) OnRow(rel int, row []byte, cur *wire.Cursor, emit func(row []byte) error) error {
	if rel < 0 || rel >= j.g.NumRels {
		return fmt.Errorf("dbtoaster: relation %d out of range", rel)
	}
	j.decBuf = cur.Tuple(j.decBuf)
	t := j.decBuf
	deltas, err := j.joinWith(rel, t, j.full&^(1<<uint(rel)))
	if err != nil {
		return err
	}
	for _, d := range deltas {
		n := 0
		for _, part := range d {
			n += len(part)
		}
		out := binary.AppendUvarint(j.emitBuf[:0], uint64(n))
		for _, part := range d {
			out = wire.EncodeValues(out, part)
		}
		j.emitBuf = out
		if err := emit(out); err != nil {
			return err
		}
	}
	return j.insertEncoded(rel, t, row)
}

// OnRows is OnRow over a frame, row by row: the views are probed per
// materialized arrival, so there is no set to batch.
func (j *TupleJoin) OnRows(rel int, rows [][]byte, emit func(row []byte) error) error {
	for _, row := range rows {
		if err := j.rowCur.Reset(row); err != nil {
			return fmt.Errorf("dbtoaster: OnRows: %w", err)
		}
		if err := j.OnRow(rel, row, &j.rowCur, emit); err != nil {
			return err
		}
	}
	return nil
}

// insertEncoded is insertCompact with the arriving row's bytes blitted into
// the singleton arena instead of re-encoding the tuple.
func (j *TupleJoin) insertEncoded(rel int, t types.Tuple, row []byte) error {
	tRef := slab.NoRef
	for _, mask := range j.updateOrder[rel] {
		v := j.views[mask]
		if mask == uint64(1)<<uint(rel) {
			tRef = v.arena.AppendEncoded(row)
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

// ImportRow stores one encoded row with full view maintenance and no delta
// results (localjoin.Migrator): migration imports and recovery restores.
func (j *TupleJoin) ImportRow(rel int, row []byte, cur *wire.Cursor) error {
	if rel < 0 || rel >= j.g.NumRels {
		return fmt.Errorf("dbtoaster: relation %d out of range", rel)
	}
	j.decBuf = cur.Tuple(j.decBuf)
	return j.insertEncoded(rel, j.decBuf, row)
}
