package dbtoaster

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"

	"squall/internal/expr"
	"squall/internal/index"
	"squall/internal/slab"
	"squall/internal/types"
	"squall/internal/wire"
)

// AggKind selects the maintained aggregate.
type AggKind uint8

const (
	// AggCount maintains COUNT(*).
	AggCount AggKind = iota
	// AggSum maintains SUM(expr) (and the count, so AVG = Sum/Cnt is free).
	AggSum
)

// ColRef names an expression over one relation's tuples.
type ColRef struct {
	Rel int
	E   expr.Expr
}

// AggSpec describes the aggregation query the operator maintains:
// SELECT GroupBy..., AGG(...) FROM joined relations GROUP BY GroupBy...
type AggSpec struct {
	GroupBy []ColRef
	Kind    AggKind
	Sum     *ColRef // required when Kind == AggSum
}

// AggDelta is one increment to the query result: the group key, a count
// delta and a sum delta.
type AggDelta struct {
	Group types.Tuple
	Cnt   int64
	Sum   float64
}

// slotSpec describes one signature slot of a view: either the inside side of
// a boundary-crossing conjunct or a group-by column of an inside relation.
type slotSpec struct {
	rel int
	e   expr.Expr
	// identity for wiring: conjunct id (>=0) or -1-groupIdx for group slots.
	id int
}

// aggAcc aggregates all join combinations of a view sharing one signature.
type aggAcc struct {
	cnt int64
	sum float64
}

// aview is one aggregate-annotated materialized view in the layout ops.Agg
// keeps its groups in: signatures are wire-encoded rows in a slab
// arena, accumulators a dense slice updated in place, and the signature
// index hashes the encoded bytes and verifies by byte equality. Views only
// grow, so accumulator i's signature is arena row i: a probe reads both
// without one waiting on the other.
type aview struct {
	mask   uint64
	sig    []slotSpec
	arena  *slab.Arena
	accs   []aggAcc
	idx    *index.RefHash // BytesHash(signature row) -> accs slot
	probes []*probeIndex  // one per adjacent outside relation
}

// probeIndex indexes a view's signatures by the slots of the conjuncts
// connecting it to one outside relation, under Cursor.Hash — the
// types.Value hash, so Int(5) and Float(5) probe alike and a field compare
// decides the match. Signatures with a NULL probe slot are left out: a
// comparison with NULL holds for no key (expr.CmpOp.Apply).
type probeIndex struct {
	rel   int
	slots []int
	h     *index.RefHash // Cursor.Hash(slots...) -> accs slot
}

// compProbe is one component view a wiring probes: the arrival columns
// matched, position by position, against the probe index's slots.
type compProbe struct {
	v    *aview
	p    *probeIndex
	cols []int
}

// sigSrc sources one target signature slot: column col of the arrival
// (comp -1) or slot col of component comp's signature.
type sigSrc struct{ comp, col int }

// wiring is the delta propagation into one target view on arrival of one
// relation, compiled at construction to column indexes.
type wiring struct {
	target *aview
	comps  []compProbe
	sig    []sigSrc
	// sumComp is the component holding the SUM relation (-1 when it is the
	// arriving relation or absent).
	sumComp int
}

// arrival is the compiled plan of one relation: its wirings (one per view
// holding the relation) and how they read the arriving row. When every
// expression over the relation is a plain column ref they read the row's
// columns directly; otherwise (computed) they read the row of the values
// evals take over the arrival.
type arrival struct {
	wires    []*wiring
	computed bool
	evals    []expr.Expr
	maxCol   int // highest column read directly, -1 when none
	sumCol   int // -1 when SUM is not over this relation
}

// col resolves an expression over the relation to the column the wirings
// read it from.
func (ar *arrival) col(e expr.Expr) int {
	if ar.computed {
		ar.evals = append(ar.evals, e)
		return len(ar.evals) - 1
	}
	c, _ := expr.ColIndex(e)
	ar.maxCol = max(ar.maxCol, c)
	return c
}

// AggJoin is the aggregate-view DBToaster operator for equi-joins. Its
// per-tuple cost scales with the number of distinct signatures (groups ×
// boundary keys) touched rather than the number of matching combinations —
// the higher-order delta idea of [9].
type AggJoin struct {
	g      *expr.JoinGraph
	spec   AggSpec
	views  map[uint64]*aview
	rels   []arrival
	result *aview

	// Per-arrival scratch. One bolt task drives an operator, so these are
	// reused across calls and the steady state allocates nothing; nothing
	// here outlives one OnRow.
	ccurs  []wire.Cursor // per component: the selected signature
	sel    []uint32      // per component: the selected accs slot
	cands  [][]uint32    // per component: probe candidates
	refs   []uint32      // merge: signature index candidates
	dbuf   []byte        // delta signature rows, back to back
	deltas []pendingDelta
	sigCur wire.Cursor
	// OnTuple, evaluate and EachResultRow encode into enc.
	enc     []byte
	encCur  wire.Cursor
	evalRow types.Tuple
}

// pendingDelta is one collected delta into view v; its signature is
// dbuf[start:end].
type pendingDelta struct {
	v          *aview
	start, end int
	cnt        int64
	sum        float64
}

// NewAggJoin builds the operator. The join must be equi-only (theta joins go
// through the tuple-level views plus external aggregation).
func NewAggJoin(g *expr.JoinGraph, spec AggSpec) (*AggJoin, error) {
	if !g.IsEquiOnly() {
		return nil, fmt.Errorf("dbtoaster: AggJoin supports equi-joins only")
	}
	if spec.Kind == AggSum && spec.Sum == nil {
		return nil, fmt.Errorf("dbtoaster: AggSum needs a Sum expression")
	}
	for _, gcol := range spec.GroupBy {
		if gcol.Rel < 0 || gcol.Rel >= g.NumRels {
			return nil, fmt.Errorf("dbtoaster: group-by relation %d out of range", gcol.Rel)
		}
	}
	a := &AggJoin{g: g, spec: spec, views: map[uint64]*aview{}}
	full := uint64(1)<<g.NumRels - 1
	var masks []uint64
	for mask := uint64(1); mask <= full; mask++ {
		if g.Connected(mask) {
			a.views[mask] = a.newView(mask)
			masks = append(masks, mask)
		}
	}
	if a.views[full] == nil {
		return nil, fmt.Errorf("dbtoaster: join graph is disconnected; AggJoin needs a connected query")
	}
	a.result = a.views[full]
	a.rels = make([]arrival, g.NumRels)
	maxComps := 0
	for rel := range a.rels {
		ar := a.newArrival(rel)
		for _, mask := range masks {
			if mask&(1<<rel) == 0 {
				continue
			}
			w, err := a.wire(ar, mask, rel)
			if err != nil {
				return nil, err
			}
			ar.wires = append(ar.wires, w)
			maxComps = max(maxComps, len(w.comps))
		}
	}
	a.ccurs = make([]wire.Cursor, maxComps)
	a.sel = make([]uint32, maxComps)
	a.cands = make([][]uint32, maxComps)
	return a, nil
}

// newView lays out a view's signature: the inside sides of boundary-crossing
// conjuncts (by conjunct id) then the inside group-by columns (by position).
func (a *AggJoin) newView(mask uint64) *aview {
	v := &aview{mask: mask, arena: slab.New(), idx: index.NewRefHash()}
	for ci, c := range a.g.Conjuncts {
		lin := mask&(1<<c.LRel) != 0
		rin := mask&(1<<c.RRel) != 0
		if lin && !rin {
			v.sig = append(v.sig, slotSpec{rel: c.LRel, e: c.Left, id: ci})
		} else if rin && !lin {
			v.sig = append(v.sig, slotSpec{rel: c.RRel, e: c.Right, id: ci})
		}
	}
	for gi, gcol := range a.spec.GroupBy {
		if mask&(1<<gcol.Rel) != 0 {
			v.sig = append(v.sig, slotSpec{rel: gcol.Rel, e: gcol.E, id: -1 - gi})
		}
	}
	for r := 0; r < a.g.NumRels; r++ {
		if mask&(1<<r) != 0 {
			continue
		}
		p := &probeIndex{rel: r, h: index.NewRefHash()}
		for si, s := range v.sig {
			if s.id >= 0 && (a.g.Conjuncts[s.id].LRel == r || a.g.Conjuncts[s.id].RRel == r) {
				p.slots = append(p.slots, si)
			}
		}
		if len(p.slots) > 0 {
			v.probes = append(v.probes, p)
		}
	}
	return v
}

// newArrival decides how rel's wirings read an arriving row: directly when
// every expression over rel — the slots of its singleton view, and the SUM
// when it is over rel — is a column ref, through evals otherwise.
func (a *AggJoin) newArrival(rel int) *arrival {
	ar := &a.rels[rel]
	ar.maxCol, ar.sumCol = -1, -1
	direct := func(e expr.Expr) bool {
		c, ok := expr.ColIndex(e)
		return ok && c >= 0
	}
	for _, s := range a.views[1<<rel].sig {
		ar.computed = ar.computed || !direct(s.e)
	}
	if sum := a.spec.Sum; sum != nil && sum.Rel == rel {
		ar.computed = ar.computed || !direct(sum.E)
		ar.sumCol = ar.col(sum.E)
	}
	return ar
}

// wire compiles the delta propagation for target view `mask` on arrival of
// relation rel.
func (a *AggJoin) wire(ar *arrival, mask uint64, rel int) (*wiring, error) {
	w := &wiring{target: a.views[mask], sumComp: -1}
	for _, cm := range a.g.Components(mask &^ (1 << rel)) {
		cv := a.views[cm]
		if cv == nil {
			return nil, fmt.Errorf("dbtoaster: component %b has no view", cm)
		}
		cp := compProbe{v: cv}
		for _, p := range cv.probes {
			if p.rel == rel {
				cp.p = p
			}
		}
		if cp.p == nil {
			return nil, fmt.Errorf("dbtoaster: view %b has no probe index for relation %d", cm, rel)
		}
		for _, si := range cp.p.slots {
			c := a.g.Conjuncts[cv.sig[si].id]
			e := c.Left
			if c.RRel == rel {
				e = c.Right
			}
			cp.cols = append(cp.cols, ar.col(e))
		}
		w.comps = append(w.comps, cp)
		if a.spec.Sum != nil && cm&(1<<a.spec.Sum.Rel) != 0 {
			w.sumComp = len(w.comps) - 1
		}
	}
	for _, s := range w.target.sig {
		if s.rel == rel {
			w.sig = append(w.sig, sigSrc{comp: -1, col: ar.col(s.e)})
			continue
		}
		src := sigSrc{comp: -1}
		for j, cp := range w.comps {
			if cp.v.mask&(1<<s.rel) == 0 {
				continue
			}
			for si, cs := range cp.v.sig {
				if cs.id == s.id && cs.rel == s.rel {
					src = sigSrc{comp: j, col: si}
					break
				}
			}
		}
		if src.comp < 0 {
			return nil, fmt.Errorf("dbtoaster: signature slot (rel %d, id %d) of view %b unreachable from rel %d",
				s.rel, s.id, mask, rel)
		}
		w.sig = append(w.sig, src)
	}
	return w, nil
}

// OnRow feeds one wire-encoded arrival of relation rel. Probe keys,
// signatures and the SUM operand are read off the cursor; delta signatures
// are spliced from its field bytes and the component views' arena rows.
// Deltas are collected for every target first (all reads hit views without
// rel) and merged after, preserving incremental semantics. cur is only read,
// and only during the call.
func (a *AggJoin) OnRow(rel int, cur *wire.Cursor) error {
	if rel < 0 || rel >= len(a.rels) {
		return fmt.Errorf("dbtoaster: relation %d out of range", rel)
	}
	ar := &a.rels[rel]
	if ar.computed {
		var err error
		if cur, err = a.evaluate(ar, cur); err != nil {
			return err
		}
	} else if ar.maxCol >= 0 {
		if err := expr.C(ar.maxCol).Check(cur.Arity()); err != nil {
			return fmt.Errorf("dbtoaster: %w", err)
		}
	}
	tSum := 0.0
	if ar.sumCol >= 0 {
		f, ok := cur.FieldFloat(ar.sumCol)
		if !ok && cur.Kind(ar.sumCol) != types.KindNull {
			return fmt.Errorf("dbtoaster: sum expr %s yields non-numeric %v", a.spec.Sum.E, cur.Value(ar.sumCol))
		}
		tSum = f
	}
	a.dbuf, a.deltas = a.dbuf[:0], a.deltas[:0]
	for _, w := range ar.wires {
		a.collect(w, cur, tSum)
	}
	for _, d := range a.deltas {
		a.merge(d.v, a.dbuf[d.start:d.end], d.cnt, d.sum)
	}
	return nil
}

// evaluate serves relations with non-column expressions: it evaluates the
// relation's expressions over the fields of the arrival they name and hands
// the wirings a cursor over the encoded values (cur may be encCur: it is
// read in full before enc is overwritten).
func (a *AggJoin) evaluate(ar *arrival, cur *wire.Cursor) (*wire.Cursor, error) {
	a.evalRow = a.evalRow[:0]
	for _, e := range ar.evals {
		v, err := e.EvalRow(cur)
		if err != nil {
			return nil, fmt.Errorf("dbtoaster: %s: %w", e, err)
		}
		a.evalRow = append(a.evalRow, v)
	}
	a.enc = wire.Encode(a.enc[:0], a.evalRow)
	return &a.encCur, a.encCur.Reset(a.enc)
}

// collect appends the deltas of one target view for the arrival under cur.
// tSum is the SUM operand when the arrival carries it, 0 otherwise.
func (a *AggJoin) collect(w *wiring, cur *wire.Cursor, tSum float64) {
	for j := range w.comps {
		cp := &w.comps[j]
		if a.cands[j] = cp.p.h.AppendRefs(a.cands[j][:0], cur.Hash(cp.cols...)); len(a.cands[j]) == 0 {
			return
		}
	}
	a.walk(w, 0, cur, tSum)
}

// walk selects, component by component, each candidate signature that joins
// the arrival, and appends one delta per complete combination. With one
// component — the common case — it is a single loop over the candidates.
func (a *AggJoin) walk(w *wiring, j int, cur *wire.Cursor, tSum float64) {
	if j == len(w.comps) {
		a.appendDelta(w, cur, tSum)
		return
	}
	cp, ccur := &w.comps[j], &a.ccurs[j]
	for _, s := range a.cands[j] {
		a.sel[j] = s
		mustReset(ccur, cp.v.arena.RowBytes(slab.Ref(s)))
		if matches(cp, ccur, cur) {
			a.walk(w, j+1, cur, tSum)
		}
	}
}

// matches reports whether the signature under ccur joins the arrival on
// every probe conjunct, under CmpOp.Apply semantics.
func matches(cp *compProbe, ccur, cur *wire.Cursor) bool {
	for i, si := range cp.p.slots {
		if cmp, anyNull := wire.CompareFields(ccur, si, cur, cp.cols[i]); cmp != 0 || anyNull {
			return false
		}
	}
	return true
}

// mustReset points cur at a row the operator encoded itself (an arena row or
// a spliced delta); a malformed one means memory corruption, so it panics,
// as slab decoding does.
func mustReset(cur *wire.Cursor, row []byte) {
	if err := cur.Reset(row); err != nil {
		panic(fmt.Sprintf("dbtoaster: corrupt signature row: %v", err))
	}
}

// appendDelta collects the delta of the selected component combination: the
// product of the counts, the SUM carried by its relation scaled by the
// other counts, and the target signature spliced field by field.
func (a *AggJoin) appendDelta(w *wiring, cur *wire.Cursor, tSum float64) {
	cnt := int64(1)
	for j := range w.comps {
		cnt *= w.comps[j].v.accs[a.sel[j]].cnt
	}
	sum := tSum * float64(cnt)
	if w.sumComp >= 0 {
		sum = w.comps[w.sumComp].v.accs[a.sel[w.sumComp]].sum
		for j := range w.comps {
			if j != w.sumComp {
				sum *= float64(w.comps[j].v.accs[a.sel[j]].cnt)
			}
		}
	}
	start := len(a.dbuf)
	a.dbuf = binary.AppendUvarint(a.dbuf, uint64(len(w.sig)))
	for _, s := range w.sig {
		src := cur
		if s.comp >= 0 {
			src = &a.ccurs[s.comp]
		}
		a.dbuf = append(a.dbuf, src.FieldBytes(s.col)...)
	}
	a.deltas = append(a.deltas, pendingDelta{w.target, start, len(a.dbuf), cnt, sum})
}

// merge folds a delta into view v: bump the accumulator of the signature
// whose encoding is sig, or store a new signature and register it in the
// probe indexes.
func (a *AggJoin) merge(v *aview, sig []byte, cnt int64, sum float64) {
	h := index.BytesHash(sig)
	a.refs = v.idx.AppendRefs(a.refs[:0], h)
	for _, s := range a.refs {
		if bytes.Equal(v.arena.RowBytes(slab.Ref(s)), sig) {
			v.accs[s].cnt += cnt
			v.accs[s].sum += sum
			return
		}
	}
	slot := uint32(len(v.accs))
	v.arena.AppendEncoded(sig)
	v.accs = append(v.accs, aggAcc{cnt: cnt, sum: sum})
	v.idx.Insert(h, slot)
	mustReset(&a.sigCur, sig)
probes:
	for _, p := range v.probes {
		for _, si := range p.slots {
			if a.sigCur.Kind(si) == types.KindNull {
				continue probes // can never join (CmpOp.Apply)
			}
		}
		p.h.Insert(a.sigCur.Hash(p.slots...), slot)
	}
}

// OnTuple feeds one tuple and returns the per-group aggregate increments of
// the full join result: the boxed adapter over OnRow.
func (a *AggJoin) OnTuple(rel int, t types.Tuple) ([]AggDelta, error) {
	a.enc = wire.Encode(a.enc[:0], t)
	if err := a.encCur.Reset(a.enc); err != nil {
		return nil, err
	}
	if err := a.OnRow(rel, &a.encCur); err != nil {
		return nil, err
	}
	var out []AggDelta
	for _, d := range a.deltas {
		if d.v == a.result {
			mustReset(&a.sigCur, a.dbuf[d.start:d.end])
			out = append(out, AggDelta{Group: a.sigCur.Tuple(nil), Cnt: d.cnt, Sum: d.sum})
		}
	}
	return out, nil
}

// Result returns the current full-join aggregates, one per group, in
// unspecified order.
func (a *AggJoin) Result() []AggDelta {
	v := a.result
	out := make([]AggDelta, len(v.accs))
	for i, acc := range v.accs {
		out[i] = AggDelta{Group: v.arena.Decode(slab.Ref(i)), Cnt: acc.cnt, Sum: acc.sum}
	}
	return out
}

// EachResultRow passes every group's aggregate to fn as one encoded row
// (group..., cnt, sum), spliced from the arena without decoding; the row is
// valid only during the call.
func (a *AggJoin) EachResultRow(fn func(row []byte) error) error {
	v := a.result
	for i, acc := range v.accs {
		sig := v.arena.RowBytes(slab.Ref(i))
		_, hl := binary.Uvarint(sig)
		a.enc = binary.AppendUvarint(a.enc[:0], uint64(len(v.sig)+2))
		a.enc = append(a.enc, sig[hl:]...)
		a.enc = binary.AppendVarint(append(a.enc, byte(types.KindInt)), acc.cnt)
		a.enc = binary.LittleEndian.AppendUint64(append(a.enc, byte(types.KindFloat)), math.Float64bits(acc.sum))
		if err := fn(a.enc); err != nil {
			return err
		}
	}
	return nil
}

// MemSize reports the views' real footprint: arenas, signature and probe
// indexes, and accumulator capacity.
func (a *AggJoin) MemSize() int {
	n := 0
	for _, v := range a.views {
		n += v.arena.MemSize() + v.idx.MemSize() + 16*cap(v.accs)
		for _, p := range v.probes {
			n += p.h.MemSize()
		}
	}
	return n
}
