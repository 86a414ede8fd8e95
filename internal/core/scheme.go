package core

import (
	"fmt"
	"math"

	"squall/internal/expr"
)

// SchemeKind selects a hypercube partitioning scheme.
type SchemeKind uint8

const (
	// HashHypercube [8]: one dimension per join-key equivalence class, hash
	// partitioning everywhere. No replication beyond what correctness
	// requires, but prone to data, temporal and hash-imperfection skew, and
	// limited to equi-join keys (sides of non-equi conjuncts get their own
	// hash dimensions, which is only safe when they are skew-free).
	HashHypercube SchemeKind = iota
	// RandomHypercube [74]: one dimension per relation, random partitioning
	// everywhere (the multi-way generalization of the 1-Bucket scheme [54]).
	// Perfect load balance and support for arbitrary theta-joins, at the
	// price of the highest replication.
	RandomHypercube
	// HybridHypercube (this paper): hash partitioning on skew-free join
	// keys, random partitioning (with renaming, §4) exactly where skew
	// demands it. Subsumes the other two schemes: with no skew declared it
	// equals the Hash-Hypercube; with everything skewed it degenerates to
	// Random-Hypercube behaviour.
	HybridHypercube
)

// String names the scheme like the paper.
func (k SchemeKind) String() string {
	switch k {
	case HashHypercube:
		return "Hash-Hypercube"
	case RandomHypercube:
		return "Random-Hypercube"
	case HybridHypercube:
		return "Hybrid-Hypercube"
	default:
		return fmt.Sprintf("SchemeKind(%d)", uint8(k))
	}
}

// BuildScheme constructs the partitioning for a multi-way join over at most
// `machines` joiner tasks (§4). The returned hypercube may use fewer
// machines when that minimizes the maximum load per machine.
func BuildScheme(kind SchemeKind, spec JoinSpec, machines int) (*Hypercube, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	var attrs []attribute
	switch kind {
	case HashHypercube:
		attrs = buildAttributes(&spec, false, func(KeySlot) bool { return false })
	case RandomHypercube:
		attrs = buildAttributes(&spec, true, nil)
	case HybridHypercube:
		attrs = buildAttributes(&spec, false, spec.isSkewed)
	default:
		return nil, fmt.Errorf("core: unknown scheme kind %d", kind)
	}
	res, err := solveDims(&spec, attrs, machines)
	if err != nil {
		return nil, err
	}
	return assemble(kind, &spec, attrs, res), nil
}

// solveDims translates attributes into the optimizer problem and solves it.
// Only join keys become dimensions (§4's observation that non-join
// attributes never reduce the load), which the attribute construction
// already guarantees.
func solveDims(spec *JoinSpec, attrs []attribute, machines int) (optResult, error) {
	n := spec.Graph.NumRels
	p := optProblem{
		sizes:    spec.Sizes,
		dims:     make([][]int, n),
		topFreq:  make([][]float64, n),
		modes:    make([]PartMode, len(attrs)),
		nattrs:   len(attrs),
		machines: machines,
	}
	for ai, a := range attrs {
		p.modes[ai] = a.mode
		seen := map[int]bool{}
		for _, s := range a.slots {
			if seen[s.rel] {
				continue
			}
			seen[s.rel] = true
			p.dims[s.rel] = append(p.dims[s.rel], ai)
			f := 0.0
			if a.mode == ModeHash {
				// Worst top-key frequency among this relation's slots on the
				// attribute (usually one slot).
				for _, s2 := range a.slots {
					if s2.rel == s.rel && s2.e != nil {
						if tf := spec.topFreq(s2.key()); tf > f {
							f = tf
						}
					}
				}
			}
			p.topFreq[s.rel] = append(p.topFreq[s.rel], f)
		}
	}
	return optimize(p)
}

// ChooseSkewedOffline implements the offline scheme chooser of §3.4: for
// every join-key slot with known top-key frequency, it runs the optimizer
// twice — once with the slot marked skewed (forcing random partitioning) and
// once marked uniform (hash, with the top-frequency load model) — and keeps
// the marking with the smaller predicted maximum load per machine. The
// returned map is a Skewed assignment for BuildScheme(HybridHypercube, ...).
func ChooseSkewedOffline(spec JoinSpec, machines int) (map[KeySlot]bool, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	chosen := map[KeySlot]bool{}
	for k := range spec.Skewed {
		if spec.Skewed[k] {
			chosen[k] = true
		}
	}
	// Greedy per-slot decision in deterministic order over TopFreq keys.
	slots := make([]KeySlot, 0, len(spec.TopFreq))
	for k := range spec.TopFreq {
		slots = append(slots, k)
	}
	sortSlots(slots)
	evalWith := func(m map[KeySlot]bool) (float64, error) {
		s2 := spec
		s2.Skewed = m
		attrs := buildAttributes(&s2, false, s2.isSkewed)
		res, err := solveDims(&s2, attrs, machines)
		if err != nil {
			return 0, err
		}
		return res.maxLoad, nil
	}
	for _, slot := range slots {
		if chosen[slot] {
			continue
		}
		asUniform, err := evalWith(chosen)
		if err != nil {
			return nil, err
		}
		trial := map[KeySlot]bool{slot: true}
		for k, v := range chosen {
			trial[k] = v
		}
		asSkewed, err := evalWith(trial)
		if err != nil {
			return nil, err
		}
		if asSkewed < asUniform {
			chosen[slot] = true
		}
	}
	return chosen, nil
}

func sortSlots(slots []KeySlot) {
	for i := 1; i < len(slots); i++ {
		for j := i; j > 0; j-- {
			a, b := slots[j-1], slots[j]
			if a.Rel < b.Rel || (a.Rel == b.Rel && a.Expr <= b.Expr) {
				break
			}
			slots[j-1], slots[j] = slots[j], slots[j-1]
		}
	}
}

// FewDistinctSkewed is the §3.4 rule for relations with only a few distinct
// join keys: if the distinct count is below the machine budget, hash
// partitioning would idle most machines, so the key should be treated as
// skewed (random partitioning).
func FewDistinctSkewed(distinct int64, machines int) bool {
	return distinct > 0 && distinct < int64(machines)
}

// OneBucket is the 2-way Random-Hypercube: the 1-Bucket matrix [54] over at
// most machines joiner tasks. Relation 0 (R) picks a random row and
// replicates across the columns, relation 1 (S) picks a random column and
// replicates down the rows, so every (R, S) pair meets on exactly one cell
// whatever the join condition: it supports arbitrary theta-joins and is
// resilient to data and temporal skew. The dims are [S's columns, R's rows],
// kept even at size 1, so cell = row*cols + col and coordinates compare
// across the reshapes of an adaptive run (§5). rows x cols pins the matrix;
// 0 x 0 lets the optimizer size it for spec.Sizes. Only spec.Names and
// spec.Sizes are read.
func OneBucket(spec JoinSpec, machines, rows, cols int) (*Hypercube, error) {
	if len(spec.Names) != 2 || len(spec.Sizes) != 2 {
		return nil, fmt.Errorf("core: OneBucket needs exactly 2 relations")
	}
	// Each relation owns one random dim, R's rows first, so that among
	// equal-load matrices the enumeration keeps the one with fewer rows.
	p := optProblem{
		sizes:    spec.Sizes,
		dims:     [][]int{{0}, {1}},
		topFreq:  [][]float64{{0}, {0}},
		modes:    []PartMode{ModeRandom, ModeRandom},
		nattrs:   2,
		machines: machines,
	}
	if rows == 0 && cols == 0 {
		res, err := optimize(p)
		if err != nil {
			return nil, err
		}
		rows, cols = res.sizes[0], res.sizes[1]
	}
	if rows < 1 || cols < 1 || rows*cols > machines {
		return nil, fmt.Errorf("core: 1-Bucket matrix %dx%d does not fit %d machines", rows, cols, machines)
	}
	return &Hypercube{
		Kind: RandomHypercube,
		Dims: []Dim{
			{Name: spec.Names[1], Size: cols, Mode: ModeRandom},
			{Name: spec.Names[0], Size: rows, Mode: ModeRandom},
		},
		strides: []int{1, cols},
		mach:    rows * cols,
		exprs:   [][][]expr.Expr{make([][]expr.Expr, 2), make([][]expr.Expr, 2)},
		owns:    [][]bool{{false, true}, {true, false}},
		spec:    &JoinSpec{Names: spec.Names, Sizes: spec.Sizes},
		pred:    evaluate(p, []int{rows, cols}),
	}, nil
}

// Matrix returns a OneBucket shape's rows x cols.
func (hc *Hypercube) Matrix() (rows, cols int) { return hc.Dims[1].Size, hc.Dims[0].Size }

// Reshape is the adaptive 1-Bucket decision (§5, "Hypercube sizes") on a
// OneBucket shape: the matrix the optimizer picks for the observed relation
// sizes r and s over machines tasks, and whether moving there is worth it.
// The new matrix must cut the predicted per-machine load by at least the
// relative margin minGain — the hysteresis that keeps a wavering ratio from
// oscillating the shape, since every reshape migrates state.
func (hc *Hypercube) Reshape(machines int, r, s, minGain float64) (*Hypercube, bool) {
	spec := JoinSpec{Names: hc.spec.Names, Sizes: []int64{int64(math.Round(r)), int64(math.Round(s))}}
	rows, cols := hc.Matrix()
	cur, err := OneBucket(spec, machines, rows, cols)
	if err != nil {
		return hc, false
	}
	next, err := OneBucket(spec, machines, 0, 0)
	if err != nil {
		return hc, false
	}
	if nr, nc := next.Matrix(); nr == rows && nc == cols || next.pred.maxLoad > cur.pred.maxLoad*(1-minGain) {
		return hc, false
	}
	return next, true
}
