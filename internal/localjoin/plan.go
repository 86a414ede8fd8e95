// The probe plan: everything about an arrival's expansion that depends only
// on the join graph — which relation is assigned next, which conjunct is
// probed through an index and from which side, which conjuncts are left as
// filters — is decided once at construction, per arrival relation, so the
// per-arrival path (probeFrame, expandPacked) walks a slice of steps and
// allocates nothing.
package localjoin

import (
	"squall/internal/expr"
	"squall/internal/index"
	"squall/internal/types"
)

// probeStep is one level of an expansion: assign relation next from the
// candidates its index returns for the probe conjunct, keep those passing
// the filters, recurse.
type probeStep struct {
	next int
	// ci is the conjunct probed through next's index (equality beats range),
	// -1 when none applies (cross join, Ne-only) and next is scanned. It
	// reads key(t_next) op value(t_other) — op already oriented — with other
	// an assigned relation; nextKey/otherKey are the two sides' keys.
	ci                int
	op                expr.CmpOp
	other             int
	nextKey, otherKey key
	// filters are the remaining conjuncts between next and the assigned
	// relations, checked per candidate.
	filters []stepFilter
}

// stepFilter is one filter conjunct with its sides resolved: Left(t_lrel)
// op Right(t_rrel).
type stepFilter struct {
	op         expr.CmpOp
	lrel, rrel int
	lkey, rkey key
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

// compilePlan fixes, for every arrival relation, the order the other
// relations are assigned in and each level's probe and filters.
func (j *Traditional) compilePlan() {
	j.plan = make([][]probeStep, j.g.NumRels)
	for rel := range j.plan {
		have := uint64(1) << uint(rel)
		for next := j.pickNext(have); next >= 0; next = j.pickNext(have) {
			j.plan[rel] = append(j.plan[rel], j.compileStep(have, next))
			have |= 1 << uint(next)
		}
	}
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

// compileStep chooses next's probe conjunct among those incident to the
// assigned relations: equality beats range beats scan.
func (j *Traditional) compileStep(have uint64, next int) probeStep {
	st := probeStep{next: next, ci: -1}
	var incident []int
	for ci, c := range j.g.Conjuncts {
		other := c.LRel
		if c.LRel == next {
			other = c.RRel
		} else if c.RRel != next {
			continue
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
			o := c.Oriented(next)
			st.op, st.other = o.Op, o.RRel
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
