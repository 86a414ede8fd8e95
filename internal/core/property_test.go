package core

import (
	"fmt"
	"math/rand"
	"testing"

	"squall/internal/expr"
	"squall/internal/types"
)

// genRelation makes n tuples with `arity` int columns drawn from [0, domain).
func genRelation(r *rand.Rand, n, arity int, domain int64) []types.Tuple {
	rows := make([]types.Tuple, n)
	for i := range rows {
		t := make(types.Tuple, arity)
		for c := range t {
			t[c] = types.Int(r.Int63n(domain))
		}
		rows[i] = t
	}
	return rows
}

// routeAll computes each tuple's machine set once (random dims draw once per
// tuple, as in a real run where a tuple is emitted a single time).
func routeAll(t *testing.T, hc *Hypercube, rel int, rows []types.Tuple, rng *rand.Rand) [][]int {
	t.Helper()
	out := make([][]int, len(rows))
	for i, row := range rows {
		targets, err := hc.Targets(rel, row, rng, nil)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = append([]int(nil), targets...)
		seen := map[int]bool{}
		for _, m := range targets {
			if m < 0 || m >= hc.Machines() {
				t.Fatalf("relation %d tuple %v routed to machine %d of %d", rel, row, m, hc.Machines())
			}
			if seen[m] {
				t.Fatalf("relation %d tuple %v routed twice to machine %d", rel, row, m)
			}
			seen[m] = true
		}
	}
	return out
}

func intersect3(a, b, c []int) []int {
	inB := map[int]bool{}
	for _, m := range b {
		inB[m] = true
	}
	inC := map[int]bool{}
	for _, m := range c {
		inC[m] = true
	}
	var out []int
	for _, m := range a {
		if inB[m] && inC[m] {
			out = append(out, m)
		}
	}
	return out
}

// checkMeetExactlyOnce verifies invariant 1 of DESIGN.md for a 3-relation
// join: every joinable triple meets on exactly one machine (coverage AND
// no duplicate results).
func checkMeetExactlyOnce(t *testing.T, hc *Hypercube, g *expr.JoinGraph, rels [3][]types.Tuple, routes [3][][]int) {
	t.Helper()
	matches, met := 0, 0
	for i, rt := range rels[0] {
		for j, st := range rels[1] {
			for k, tt := range rels[2] {
				ok, err := g.HoldsAll(0b111, []types.Tuple{rt, st, tt})
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					continue
				}
				matches++
				common := intersect3(routes[0][i], routes[1][j], routes[2][k])
				if len(common) != 1 {
					t.Fatalf("%s: joinable (%v,%v,%v) meets on %d machines %v, want exactly 1",
						hc, rt, st, tt, len(common), common)
				}
				met++
			}
		}
	}
	if matches == 0 {
		t.Fatal("test workload produced no joinable triples; tighten the domain")
	}
	if met != matches {
		t.Fatalf("met %d of %d matches", met, matches)
	}
}

func TestMeetExactlyOnceChainEquiJoin(t *testing.T) {
	g := expr.MustJoinGraph(3,
		expr.EquiCol(0, 1, 1, 0), // R.y = S.y
		expr.EquiCol(1, 1, 2, 0), // S.z = T.z
	)
	spec := JoinSpec{
		Graph: g,
		Names: []string{"R", "S", "T"},
		Sizes: []int64{100, 100, 100},
	}
	skews := []map[KeySlot]bool{
		nil,
		{SlotCol(1, 1): true, SlotCol(2, 0): true},
		{SlotCol(0, 1): true},
		{SlotCol(0, 1): true, SlotCol(1, 0): true, SlotCol(1, 1): true, SlotCol(2, 0): true},
	}
	for trial := 0; trial < 3; trial++ {
		r := rand.New(rand.NewSource(int64(100 + trial)))
		rels := [3][]types.Tuple{
			genRelation(r, 60, 2, 8),
			genRelation(r, 60, 2, 8),
			genRelation(r, 60, 2, 8),
		}
		for _, kind := range []SchemeKind{HashHypercube, RandomHypercube, HybridHypercube} {
			for si, skew := range skews {
				if kind != HybridHypercube && si > 0 {
					continue
				}
				spec.Skewed = skew
				for _, machines := range []int{1, 5, 16, 36} {
					hc, err := BuildScheme(kind, spec, machines)
					if err != nil {
						t.Fatal(err)
					}
					t.Run(fmt.Sprintf("%v/skew%d/m%d/trial%d", kind, si, machines, trial), func(t *testing.T) {
						routes := [3][][]int{}
						for rel := 0; rel < 3; rel++ {
							routes[rel] = routeAll(t, hc, rel, rels[rel], r)
						}
						checkMeetExactlyOnce(t, hc, g, rels, routes)
					})
				}
			}
		}
	}
}

func TestMeetExactlyOnceThetaJoin(t *testing.T) {
	// R.x = S.x AND S.x < T.y (§4's non-equi example).
	g := expr.MustJoinGraph(3,
		expr.EquiCol(0, 0, 1, 0),
		expr.ThetaCol(1, 0, expr.Lt, 2, 0),
	)
	spec := JoinSpec{
		Graph: g,
		Names: []string{"R", "S", "T"},
		Sizes: []int64{80, 80, 80},
	}
	r := rand.New(rand.NewSource(42))
	rels := [3][]types.Tuple{
		genRelation(r, 40, 1, 10),
		genRelation(r, 40, 1, 10),
		genRelation(r, 40, 1, 10),
	}
	for _, build := range []struct {
		name string
		hc   func() (*Hypercube, error)
	}{
		{"random", func() (*Hypercube, error) { return BuildScheme(RandomHypercube, spec, 16) }},
		{"hybrid-uniform", func() (*Hypercube, error) { return BuildScheme(HybridHypercube, spec, 16) }},
		{"hybrid-skewTy", func() (*Hypercube, error) {
			s := spec
			s.Skewed = map[KeySlot]bool{SlotCol(2, 0): true}
			return BuildScheme(HybridHypercube, s, 16)
		}},
		{"hybrid-skewSx", func() (*Hypercube, error) {
			s := spec
			s.Skewed = map[KeySlot]bool{SlotCol(1, 0): true}
			return BuildScheme(HybridHypercube, s, 16)
		}},
	} {
		hc, err := build.hc()
		if err != nil {
			t.Fatal(err)
		}
		t.Run(build.name, func(t *testing.T) {
			routes := [3][][]int{}
			for rel := 0; rel < 3; rel++ {
				routes[rel] = routeAll(t, hc, rel, rels[rel], r)
			}
			checkMeetExactlyOnce(t, hc, g, rels, routes)
		})
	}
}

// TestMeetExactlyOnceTwoWayBand: band join |R.a - S.b| <= 1 as two theta
// conjuncts under the 1-Bucket scheme.
func TestMeetExactlyOnceTwoWayBand(t *testing.T) {
	g := expr.MustJoinGraph(2,
		expr.JoinConjunct{LRel: 0, RRel: 1, Op: expr.Le, Left: expr.C(0), Right: expr.Arith{Op: expr.Add, L: expr.C(0), R: expr.I(1)}},
		expr.JoinConjunct{LRel: 0, RRel: 1, Op: expr.Ge, Left: expr.C(0), Right: expr.Arith{Op: expr.Sub, L: expr.C(0), R: expr.I(1)}},
	)
	spec := JoinSpec{Graph: g, Names: []string{"R", "S"}, Sizes: []int64{50, 50}}
	hc, err := OneBucket(spec, 9, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(7))
	R := genRelation(r, 50, 1, 12)
	S := genRelation(r, 50, 1, 12)
	routesR := routeAll(t, hc, 0, R, r)
	routesS := routeAll(t, hc, 1, S, r)
	matches := 0
	for i, rt := range R {
		for j, st := range S {
			ok, err := g.HoldsAll(0b11, []types.Tuple{rt, st})
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				continue
			}
			matches++
			common := 0
			inS := map[int]bool{}
			for _, m := range routesS[j] {
				inS[m] = true
			}
			for _, m := range routesR[i] {
				if inS[m] {
					common++
				}
			}
			if common != 1 {
				t.Fatalf("band pair (%v,%v) meets on %d machines", rt, st, common)
			}
		}
	}
	if matches == 0 {
		t.Fatal("no band matches generated")
	}
}

// TestTargetsReplicationCounts: a relation's fanout equals the product of
// the dimensions it does not own.
func TestTargetsReplicationCounts(t *testing.T) {
	spec := chainSpec(1 << 20)
	hc, err := BuildScheme(HashHypercube, spec, 64) // y=8 x z=8
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	row := types.Tuple{types.Int(3), types.Int(5)}
	targets, err := hc.Targets(0, row, rng, nil) // R owns y, replicates over z
	if err != nil {
		t.Fatal(err)
	}
	if len(targets) != 8 {
		t.Errorf("R fanout = %d, want 8", len(targets))
	}
	targets, err = hc.Targets(1, row, rng, nil) // S owns both dims
	if err != nil {
		t.Fatal(err)
	}
	if len(targets) != 1 {
		t.Errorf("S fanout = %d, want 1", len(targets))
	}
}

// TestHashTargetsAreDeterministic: hash-partitioned tuples route identically
// on every call (content-sensitive, no randomness).
func TestHashTargetsAreDeterministic(t *testing.T) {
	spec := chainSpec(1000)
	hc, err := BuildScheme(HashHypercube, spec, 16)
	if err != nil {
		t.Fatal(err)
	}
	row := types.Tuple{types.Int(1), types.Int(2)}
	r1 := rand.New(rand.NewSource(1))
	r2 := rand.New(rand.NewSource(999))
	a, _ := hc.Targets(1, row, r1, nil)
	b, _ := hc.Targets(1, row, r2, nil)
	if len(a) != len(b) {
		t.Fatalf("fanout differs: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("hash routing must not depend on the rng: %v vs %v", a, b)
		}
	}
}

// TestTargetsErrorOnBadExpr: evaluation failures surface as errors.
func TestTargetsErrorOnBadExpr(t *testing.T) {
	spec := chainSpec(1000)
	hc, err := BuildScheme(HashHypercube, spec, 16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hc.Targets(0, types.Tuple{}, rand.New(rand.NewSource(1)), nil); err == nil {
		t.Error("short tuple must fail key evaluation")
	}
	if _, err := hc.Targets(99, types.Tuple{}, rand.New(rand.NewSource(1)), nil); err == nil {
		t.Error("unknown relation must fail")
	}
}
