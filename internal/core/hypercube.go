package core

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"

	"squall/internal/expr"
	"squall/internal/types"
	"squall/internal/wire"
)

// PartMode is the partitioning type of one hypercube dimension.
type PartMode uint8

const (
	// ModeHash fixes the coordinate by hashing a join key: cheap (no
	// replication beyond the scheme) but content-sensitive, so prone to data
	// and temporal skew (§5).
	ModeHash PartMode = iota
	// ModeRandom picks the coordinate uniformly at random per tuple:
	// content-insensitive, resilient to every skew type, at the price of
	// replication (the SAR principle, §5).
	ModeRandom
)

// String names the mode.
func (m PartMode) String() string {
	if m == ModeRandom {
		return "rand"
	}
	return "hash"
}

// Dim is one dimension of a constructed hypercube.
type Dim struct {
	Name string
	Size int
	Mode PartMode
}

// Hypercube is a constructed partitioning scheme: the output of BuildScheme,
// ready to route tuples of each relation to joiner tasks.
type Hypercube struct {
	Kind    SchemeKind
	Dims    []Dim
	strides []int
	mach    int
	// exprs[rel][dim] lists the key expressions relation rel hashes on
	// dimension dim. nil + owns=false => replicate across the dimension;
	// owns=true with no exprs => random coordinate.
	exprs [][][]expr.Expr
	owns  [][]bool
	spec  *JoinSpec
	pred  optResult
}

// Machines returns the number of joiner tasks ("machines") the scheme uses:
// the product of dimension sizes. It may be smaller than the budget handed
// to BuildScheme when no configuration uses all of it profitably.
func (hc *Hypercube) Machines() int { return hc.mach }

// PredictedMaxLoad returns the optimizer's estimate of the maximum per-
// machine load in tuples (the §4 optimization objective).
func (hc *Hypercube) PredictedMaxLoad() float64 { return hc.pred.maxLoad }

// PredictedAvgLoad returns the estimated mean per-machine load in tuples.
func (hc *Hypercube) PredictedAvgLoad() float64 { return hc.pred.avgLoad }

// PredictedReplicationFactor returns estimated input copies shipped divided
// by input tuples — the §6 replication-factor metric, predicted.
func (hc *Hypercube) PredictedReplicationFactor() float64 {
	var in float64
	for _, s := range hc.spec.Sizes {
		in += float64(s)
	}
	if in == 0 {
		return 0
	}
	return hc.pred.sent / in
}

// String renders the scheme like the paper does: {Partkey(hash)=1 x Suppkey(hash)=8}.
func (hc *Hypercube) String() string {
	parts := make([]string, len(hc.Dims))
	for i, d := range hc.Dims {
		parts[i] = fmt.Sprintf("%s(%s)=%d", d.Name, d.Mode, d.Size)
	}
	return "{" + strings.Join(parts, " x ") + "}"
}

// Targets computes the destination machines for one tuple of relation rel:
// the cartesian product of its per-dimension coordinate sets. Hash
// dimensions fix one coordinate per key expression (normally one), random
// dimensions draw one coordinate, and foreign dimensions replicate.
func (hc *Hypercube) Targets(rel int, t types.Tuple, rng *rand.Rand, buf []int) ([]int, error) {
	if rel < 0 || rel >= len(hc.exprs) {
		return nil, fmt.Errorf("core: relation %d out of range", rel)
	}
	buf = append(buf[:0], 0)
	for d := range hc.Dims {
		var coords [4]int
		cs := coords[:0]
		if len(hc.exprs[rel][d]) == 0 {
			cs = hc.keyless(rel, d, rng, cs)
		}
		for _, e := range hc.exprs[rel][d] {
			v, err := e.Eval(t)
			if err != nil {
				return nil, fmt.Errorf("core: key %s of %s: %w", e, hc.spec.Names[rel], err)
			}
			cs = addCoord(cs, int(v.Hash()%uint64(hc.Dims[d].Size)))
		}
		buf = hc.extend(buf, d, cs)
	}
	return buf, nil
}

// keyless appends dimension d's coordinates for relation rel when rel does
// not hash on d: every coordinate when rel replicates across d, one drawn
// at random (content-insensitive) when rel owns d.
func (hc *Hypercube) keyless(rel, d int, rng *rand.Rand, cs []int) []int {
	size := hc.Dims[d].Size
	if hc.owns[rel][d] {
		return append(cs, rng.Intn(size))
	}
	for c := 0; c < size; c++ {
		cs = append(cs, c)
	}
	return cs
}

// addCoord appends hash coordinate c unless cs already holds it.
func addCoord(cs []int, c int) []int {
	for _, prev := range cs {
		if prev == c {
			return cs
		}
	}
	return append(cs, c)
}

// extend crosses the partial machine indexes in buf with dimension d's
// coordinates cs.
func (hc *Hypercube) extend(buf []int, d int, cs []int) []int {
	n := len(buf)
	stride := hc.strides[d]
	for ci := 1; ci < len(cs); ci++ {
		for i := 0; i < n; i++ {
			buf = append(buf, buf[i]+cs[ci]*stride)
		}
	}
	for i := 0; i < n; i++ {
		buf[i] += cs[0] * stride
	}
	return buf
}

// Grouping is the stream-grouping face of a hypercube: the method set of
// dataflow.Grouping, which the engine's edges accept. It is declared here so
// that the engine can import core for its live adaptive shapes.
type Grouping interface {
	RowTargets(cur *wire.Cursor, ntasks int, rng *rand.Rand, buf []int) []int
}

// GroupingFor adapts the scheme to a stream grouping for relation rel's edge
// into the joiner component, whose parallelism must be at least
// hc.Machines(): routing reaches only the first Machines() tasks. Plain
// column keys hash off the encoded fields; a relation with a computed key
// evaluates it over the row decoded into pooled scratch.
func (hc *Hypercube) GroupingFor(rel int) Grouping {
	g := hcGrouping{hc: hc, rel: rel, cols: make([][]int, len(hc.Dims))}
	for d := range hc.Dims {
		for _, e := range hc.exprs[rel][d] {
			c, ok := e.(expr.Col)
			if !ok {
				g.cols, g.scratch = nil, &sync.Pool{New: func() any { return new(types.Tuple) }}
				return g
			}
			g.cols[d] = append(g.cols[d], c.Index)
		}
	}
	return g
}

// hcGrouping routes one relation's rows into the hypercube.
type hcGrouping struct {
	hc  *Hypercube
	rel int
	// cols[dim] are the hash key columns (hash dims only); nil when a key
	// is computed. scratch then pools the decoded rows the keys evaluate
	// over: producer tasks route through one grouping concurrently.
	cols    [][]int
	scratch *sync.Pool
}

// RowTargets routes an encoded row to the machines Hypercube.Targets picks
// for its tuple, drawing the same random coordinates. Per hash dimension the
// coordinate comes from wire.Cursor.ValueHash on the key column — the
// types.Value.Hash Targets computes. A computed key is evaluated over the
// decoded row; one that fails to evaluate panics, naming the key and the
// relation.
func (g hcGrouping) RowTargets(cur *wire.Cursor, ntasks int, rng *rand.Rand, buf []int) []int {
	hc := g.hc
	if ntasks < hc.mach {
		panic(fmt.Sprintf("core: joiner parallelism %d < hypercube machines %d", ntasks, hc.mach))
	}
	if g.cols == nil {
		tup := g.scratch.Get().(*types.Tuple)
		*tup = cur.Tuple(*tup)
		out, err := hc.Targets(g.rel, *tup, rng, buf)
		g.scratch.Put(tup)
		if err != nil {
			panic(err)
		}
		return out
	}
	buf = append(buf[:0], 0)
	for d := range hc.Dims {
		var coords [4]int
		cs := coords[:0]
		if len(g.cols[d]) == 0 {
			cs = hc.keyless(g.rel, d, rng, cs)
		}
		for _, col := range g.cols[d] {
			cs = addCoord(cs, int(cur.ValueHash(col)%uint64(hc.Dims[d].Size)))
		}
		buf = hc.extend(buf, d, cs)
	}
	return buf
}

// NumDims returns the number of (kept) dimensions.
func (hc *Hypercube) NumDims() int { return len(hc.Dims) }

// NumRels returns the number of relations.
func (hc *Hypercube) NumRels() int { return len(hc.exprs) }

// Coords decomposes a machine index into per-dimension coordinates.
func (hc *Hypercube) Coords(machine int) []int {
	out := make([]int, len(hc.Dims))
	for d := len(hc.Dims) - 1; d >= 0; d-- {
		out[d] = machine / hc.strides[d] % hc.Dims[d].Size
	}
	return out
}

// MachineAt composes per-dimension coordinates into a machine index.
func (hc *Hypercube) MachineAt(coords []int) int {
	m := 0
	for d, c := range coords {
		m += c * hc.strides[d]
	}
	return m
}

// Owns reports whether relation rel fixes its own coordinate on dimension d
// (hash or random); false means the relation replicates across d.
func (hc *Hypercube) Owns(rel, d int) bool {
	return hc.owns[rel][d]
}

// assemble converts attributes plus an optimizer result into a routable
// hypercube, dropping size-1 dimensions (they carry no information — the §4
// observation that attributes can fall out of the final partitioning).
func assemble(kind SchemeKind, spec *JoinSpec, attrs []attribute, res optResult) *Hypercube {
	hc := &Hypercube{Kind: kind, spec: spec, pred: res}
	kept := []int{}
	for i, a := range attrs {
		if res.sizes[i] <= 1 {
			continue
		}
		kept = append(kept, i)
		hc.Dims = append(hc.Dims, Dim{Name: a.name, Size: res.sizes[i], Mode: a.mode})
	}
	if len(kept) == 0 { // degenerate single-machine cube
		kept = append(kept, 0)
		hc.Dims = append(hc.Dims, Dim{Name: attrs[0].name, Size: 1, Mode: attrs[0].mode})
	}
	hc.strides = make([]int, len(hc.Dims))
	stride := 1
	for i := range hc.Dims {
		hc.strides[i] = stride
		stride *= hc.Dims[i].Size
	}
	hc.mach = stride

	n := spec.Graph.NumRels
	hc.exprs = make([][][]expr.Expr, n)
	hc.owns = make([][]bool, n)
	for rel := 0; rel < n; rel++ {
		hc.exprs[rel] = make([][]expr.Expr, len(hc.Dims))
		hc.owns[rel] = make([]bool, len(hc.Dims))
	}
	for d, ai := range kept {
		for _, s := range attrs[ai].slots {
			hc.owns[s.rel][d] = true
			if s.e != nil && attrs[ai].mode == ModeHash {
				hc.exprs[s.rel][d] = append(hc.exprs[s.rel][d], s.e)
			}
		}
	}
	return hc
}
