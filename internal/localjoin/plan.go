// The probe plan: everything about an arrival's expansion that depends only
// on the join graph and the index policy — which view is probed next, which
// conjunct is probed through its index and from which side, which
// conjuncts are left as filters, which combo views the arrival extends — is
// decided once at construction, per arrival relation, so the per-arrival
// path (probeFrame, expandPacked, insertRow) walks slices of steps and
// allocates nothing.
package localjoin

import (
	"fmt"
	"math/bits"

	"squall/internal/expr"
	"squall/internal/index"
	"squall/internal/types"
)

// probeStep is one level of an expansion: assign the relations of view
// their rows from each ordinal its index returns for the probe conjunct,
// keep those passing the filters, recurse. A base view assigns one
// relation; a combo view assigns all of its relations from one combo.
type probeStep struct {
	view *store
	// ci is the conjunct probed through view's index (equality beats
	// range), -1 when none applies (cross join, Ne-only) and view is
	// scanned. It reads key(t_next) op value(t_other) — op already
	// oriented — with next the relation of view ci reads and other an
	// assigned relation; nextKey/otherKey are the two sides' keys.
	ci                int
	op                expr.CmpOp
	next, other       int
	nextKey, otherKey expr.Key
	// filters are the remaining conjuncts between view and the assigned
	// relations, checked per candidate.
	filters []stepFilter
}

// maintStep extends one combo view for an arrival of one of its relations:
// the arrival expanded over the components of the rest of the view, each
// completed assignment appended to view as a combo.
type maintStep struct {
	view  *store
	steps []probeStep
}

// stepFilter is one filter conjunct with its sides resolved: Left(t_lrel)
// op Right(t_rrel).
type stepFilter struct {
	op         expr.CmpOp
	lrel, rrel int
	lkey, rkey expr.Key
}

// bounds is the tree range holding the keys k with k op v, for a non-NULL
// v. NULL keys sort first and satisfy no comparison, so the ranges open
// below start just above them.
func (st *probeStep) bounds(v types.Value) (lo, hi index.Bound) {
	switch st.op {
	case expr.Lt:
		return index.Excl(types.Null()), index.Excl(v)
	case expr.Le:
		return index.Excl(types.Null()), index.Incl(v)
	case expr.Gt:
		return index.Excl(v), index.Unbounded()
	default: // Ge
		return index.Incl(v), index.Unbounded()
	}
}

// compilePlan fixes, for every arrival relation, the views its expansion
// probes and each level's probe and filters. Under the Traditional policy
// the other relations are assigned one at a time from their base views;
// under Views each connected component of the complement is one step
// probing that component's view, and maint lists every combo view
// containing the relation with the steps that extend it. No step of
// plan[rel] or maint[rel] reads a view containing rel.
func (j *Traditional) compilePlan(views bool) {
	n := j.g.NumRels
	full := uint64(1)<<uint(n) - 1
	j.plan = make([][]probeStep, n)
	j.maint = make([][]maintStep, n)
	for rel := range j.plan {
		have := uint64(1) << uint(rel)
		if views {
			j.plan[rel] = j.compileComponents(have, full&^have)
			continue
		}
		for next := j.pickNext(have); next >= 0; next = j.pickNext(have) {
			j.plan[rel] = append(j.plan[rel], j.compileStep(have, j.stores[next]))
			have |= 1 << uint(next)
		}
	}
	for _, v := range j.views {
		for _, rel := range v.rels {
			bit := uint64(1) << uint(rel)
			j.maint[rel] = append(j.maint[rel], maintStep{view: v, steps: j.compileComponents(bit, v.mask&^bit)})
		}
	}
}

// compileComponents plans one step per connected component of rest, each
// probing the component's view.
func (j *Traditional) compileComponents(have, rest uint64) []probeStep {
	var steps []probeStep
	for _, comp := range j.g.Components(rest) {
		steps = append(steps, j.compileStep(have, j.viewOf(comp)))
		have |= comp
	}
	return steps
}

// viewOf returns the materialized view of a connected mask.
func (j *Traditional) viewOf(mask uint64) *store {
	if bits.OnesCount64(mask) == 1 {
		return j.stores[bits.TrailingZeros64(mask)]
	}
	for _, v := range j.views {
		if v.mask == mask {
			return v
		}
	}
	panic(fmt.Sprintf("localjoin: no view materializes relations %b", mask))
}

// pickNext prefers a relation connected to the current partial assignment
// (so an index probe applies); disconnected relations (cross joins) come
// last and are scanned.
func (j *Traditional) pickNext(have uint64) int {
	firstMissing := -1
	for rel := 0; rel < j.g.NumRels; rel++ {
		if have&(1<<uint(rel)) != 0 {
			continue
		}
		if firstMissing < 0 {
			firstMissing = rel
		}
		if len(j.g.Between(have, 1<<uint(rel))) > 0 {
			return rel
		}
	}
	return firstMissing
}

// compileStep chooses view's probe conjunct among those between it and the
// assigned relations: equality beats range beats scan.
func (j *Traditional) compileStep(have uint64, view *store) probeStep {
	st := probeStep{view: view, ci: -1, next: view.rels[0]}
	var incident []int
	for ci, c := range j.g.Conjuncts {
		in := j.inside(view.mask, ci)
		if in < 0 {
			continue
		}
		other := c.LRel
		if other == in {
			other = c.RRel
		}
		if have&(1<<uint(other)) != 0 {
			incident = append(incident, ci)
		}
	}
	for _, ci := range incident {
		if j.g.Conjuncts[ci].Op == expr.Eq {
			st.ci = ci
			break
		}
	}
	if st.ci < 0 {
		for _, ci := range incident {
			if j.g.Conjuncts[ci].Op != expr.Ne { // no Eq among them: a range op
				st.ci = ci
				break
			}
		}
	}
	for _, ci := range incident {
		c := &j.g.Conjuncts[ci]
		if ci == st.ci {
			// Oriented so LRel == next: Left(t_next) op Right(t_other).
			next := j.inside(view.mask, ci)
			o := c.Oriented(next)
			st.next, st.op, st.other = next, o.Op, o.RRel
			st.nextKey, st.otherKey = j.keys[ci][next], j.keys[ci][o.RRel]
			continue
		}
		st.filters = append(st.filters, stepFilter{
			op: c.Op, lrel: c.LRel, rrel: c.RRel,
			lkey: j.keys[ci][c.LRel], rkey: j.keys[ci][c.RRel],
		})
	}
	return st
}
