// Package core implements the paper's primary contribution: hypercube
// partitioning schemes for online multi-way joins — Hash-Hypercube [8],
// Random-Hypercube [74] and the novel Hybrid-Hypercube (§3.1, §4) — together
// with the integer dimension-size optimizer and the join-key renaming that
// gives the Hybrid scheme its skew resilience.
//
// The result space of a multi-way join is modelled as a hypercube whose
// machines are cells. Every relation fixes a coordinate on each of its own
// dimensions (by hashing a join key, or uniformly at random) and replicates
// across all other dimensions; any combination of joinable tuples therefore
// meets on exactly one machine, so each machine can run an independent local
// join (the HyLD operator, §3.4).
package core

import (
	"fmt"
	"sort"
	"strings"

	"squall/internal/expr"
)

// KeySlot identifies one join-key usage: relation Rel's key expression
// (canonicalized by its String form). Skew declarations are per slot: e.g.
// "S.z is zipfian" is {Rel: S, Expr: "z"}.
type KeySlot struct {
	Rel  int
	Expr string
}

// JoinSpec is everything a partitioning scheme needs to know about a
// multi-way join (§4): the join condition, relation names and (relative)
// sizes, and per-key skew information. Sizes only matter relative to each
// other. Skewed marks keys the user (or the offline sampler) declared
// skewed; TopFreq optionally gives the fraction of the relation's tuples
// carrying the most frequent key, used by the load model and the offline
// scheme chooser (§3.4).
type JoinSpec struct {
	Graph   *expr.JoinGraph
	Names   []string
	Sizes   []int64
	Skewed  map[KeySlot]bool
	TopFreq map[KeySlot]float64
}

func (s *JoinSpec) validate() error {
	if s.Graph == nil {
		return fmt.Errorf("core: JoinSpec.Graph is nil")
	}
	n := s.Graph.NumRels
	if len(s.Names) != n {
		return fmt.Errorf("core: %d names for %d relations", len(s.Names), n)
	}
	if len(s.Sizes) != n {
		return fmt.Errorf("core: %d sizes for %d relations", len(s.Sizes), n)
	}
	for i, sz := range s.Sizes {
		if sz <= 0 {
			return fmt.Errorf("core: relation %s has non-positive size %d", s.Names[i], sz)
		}
	}
	return nil
}

func (s *JoinSpec) isSkewed(slot KeySlot) bool { return s.Skewed[slot] }

func (s *JoinSpec) topFreq(slot KeySlot) float64 { return s.TopFreq[slot] }

// slotRef is a resolved slot: the relation and the evaluatable expression.
type slotRef struct {
	rel int
	e   expr.Expr
}

func (r slotRef) key() KeySlot { return KeySlot{Rel: r.rel, Expr: r.e.String()} }

// attribute is one hypercube dimension candidate after renaming (§4): a set
// of slots that share the dimension. Hash attributes may be shared by many
// relations (their hashes agree on joinable tuples); random attributes are
// always owned by exactly one relation, because two independent random
// choices would miss results.
type attribute struct {
	name  string
	mode  PartMode
	slots []slotRef
}

// buildAttributes performs the §4 construction. Equality conjuncts induce
// join-key equivalence classes (union-find). Under skewAll=false, every slot
// declared skewed is renamed out of its class into a singleton random
// attribute (S.z -> z'); the remaining class members share a hash attribute.
// Sides of non-equi conjuncts are classes of their own (hash partitioning on
// a skew-free attribute simulates random distribution with respect to the
// other side, §4). Relations left with no attribute at all receive a
// quasi-attribute with random partitioning, which makes the construction
// subsume the Random-Hypercube: randomAll=true forces every relation to a
// single quasi-attribute.
func buildAttributes(spec *JoinSpec, randomAll bool, skewed func(KeySlot) bool) []attribute {
	if randomAll {
		attrs := make([]attribute, spec.Graph.NumRels)
		for i := range attrs {
			attrs[i] = attribute{
				name:  spec.Names[i],
				mode:  ModeRandom,
				slots: []slotRef{{rel: i}},
			}
		}
		return attrs
	}

	// Collect distinct slots in first-appearance order.
	var slots []slotRef
	slotIdx := map[KeySlot]int{}
	addSlot := func(rel int, e expr.Expr) int {
		k := KeySlot{Rel: rel, Expr: e.String()}
		if i, ok := slotIdx[k]; ok {
			return i
		}
		slots = append(slots, slotRef{rel: rel, e: e})
		slotIdx[k] = len(slots) - 1
		return len(slots) - 1
	}
	// Union-find over slots; only equality conjuncts merge classes.
	var parent []int
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, c := range spec.Graph.Conjuncts {
		l := addSlot(c.LRel, c.Left)
		r := addSlot(c.RRel, c.Right)
		for len(parent) < len(slots) {
			parent = append(parent, len(parent))
		}
		if c.Op == expr.Eq {
			parent[find(l)] = find(r)
		}
	}
	for len(parent) < len(slots) {
		parent = append(parent, len(parent))
	}

	// Group slots by class, keeping deterministic order.
	classOrder := []int{}
	classes := map[int][]slotRef{}
	for i, s := range slots {
		root := find(i)
		if _, seen := classes[root]; !seen {
			classOrder = append(classOrder, root)
		}
		classes[root] = append(classes[root], s)
	}

	var attrs []attribute
	covered := make([]bool, spec.Graph.NumRels)
	for _, root := range classOrder {
		members := classes[root]
		var keep, renamed []slotRef
		for _, m := range members {
			if skewed(m.key()) {
				renamed = append(renamed, m)
			} else {
				keep = append(keep, m)
			}
		}
		if len(keep) > 0 {
			attrs = append(attrs, attribute{name: className(spec, keep), mode: ModeHash, slots: keep})
			for _, m := range keep {
				covered[m.rel] = true
			}
		}
		for _, m := range renamed {
			attrs = append(attrs, attribute{
				name:  fmt.Sprintf("%s.%s'", spec.Names[m.rel], m.e),
				mode:  ModeRandom,
				slots: []slotRef{m},
			})
			covered[m.rel] = true
		}
	}
	// Quasi-attributes for relations untouched by any join key (cross joins).
	for rel, ok := range covered {
		if !ok {
			attrs = append(attrs, attribute{
				name:  spec.Names[rel],
				mode:  ModeRandom,
				slots: []slotRef{{rel: rel}},
			})
		}
	}
	return attrs
}

func className(spec *JoinSpec, members []slotRef) string {
	names := make([]string, len(members))
	for i, m := range members {
		names[i] = fmt.Sprintf("%s.%s", spec.Names[m.rel], m.e)
	}
	sort.Strings(names)
	return strings.Join(names, "=")
}
