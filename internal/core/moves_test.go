package core

import (
	"fmt"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"

	"squall/internal/expr"
	"squall/internal/types"
)

// killSource returns the one source Moves names for relation rel of a
// killed cell f.
func killSource(t *testing.T, hc *Hypercube, f, rel int) int {
	t.Helper()
	ms, err := Moves(hc, hc, []int{f})
	if err != nil {
		t.Fatal(err)
	}
	src := ms.From[rel][f]
	if len(src) != 1 {
		t.Fatalf("cell %d rel %d: sources %v, want one", f, rel, src)
	}
	if src[0] == f {
		t.Fatalf("cell %d rel %d: the lost cell serves itself", f, rel)
	}
	return src[0]
}

// peersOf lists the cells other than f holding f's copy of rel.
func peersOf(hc *Hypercube, rel, f int) []int {
	var out []int
	for m := 0; m < hc.Machines(); m++ {
		if m != f && hc.CopyOf(rel, m) == hc.CopyOf(rel, f) {
			out = append(out, m)
		}
	}
	return out
}

// TestMovesFigure2bExample: Random-Hypercube 4x4x4 — a killed cell recovers
// R from a cell sharing its R coordinate, S from its S coordinate, etc., and
// every relation has 15 such peers.
func TestMovesFigure2bExample(t *testing.T) {
	hc, err := BuildScheme(RandomHypercube, chainSpec(1<<20), 64)
	if err != nil {
		t.Fatal(err)
	}
	const failed = 21 // arbitrary cell
	ms, err := Moves(hc, hc, []int{failed})
	if err != nil {
		t.Fatal(err)
	}
	coords := hc.Coords(failed)
	for rel := 0; rel < 3; rel++ {
		src := killSource(t, hc, failed, rel)
		if src == Checkpoint {
			t.Fatalf("relation %d needs a checkpoint under Random-Hypercube", rel)
		}
		// 4x4x4: fixing one dim leaves 4*4-1 = 15 peers.
		peers := peersOf(hc, rel, failed)
		if len(peers) != 15 || !slices.Contains(peers, src) {
			t.Errorf("relation %d: source %d among %d peers, want one of 15", rel, src, len(peers))
		}
		for _, peer := range peers {
			pc := hc.Coords(peer)
			for d := 0; d < hc.NumDims(); d++ {
				if hc.owns[rel][d] && pc[d] != coords[d] {
					t.Fatalf("peer %d differs on owned dim %d", peer, d)
				}
			}
		}
		// Only the killed cell moves: every other cell keeps and imports
		// nothing.
		for m := 0; m < hc.Machines(); m++ {
			if m != failed && (!ms.Keep[m][rel] || len(ms.From[rel][m]) > 0) {
				t.Fatalf("relation %d: surviving cell %d keeps %v, imports %v", rel, m, ms.Keep[m][rel], ms.From[rel][m])
			}
		}
		if ms.Keep[failed][rel] {
			t.Fatalf("relation %d: the killed cell keeps its state", rel)
		}
	}
}

// TestMovesNoReplicationNeedsCheckpoint: a same-key multi-way join hashes
// all relations on one dimension — nothing is replicated, so a killed cell
// recovers every relation from Checkpoint.
func TestMovesNoReplicationNeedsCheckpoint(t *testing.T) {
	spec := JoinSpec{
		Graph: expr.MustJoinGraph(3,
			expr.EquiCol(0, 0, 1, 0),
			expr.EquiCol(1, 0, 2, 0),
		),
		Names: []string{"A", "B", "C"},
		Sizes: []int64{1000, 1000, 1000},
	}
	hc, err := BuildScheme(HashHypercube, spec, 8)
	if err != nil {
		t.Fatal(err)
	}
	for rel := 0; rel < 3; rel++ {
		if src := killSource(t, hc, 3, rel); src != Checkpoint {
			t.Errorf("relation %d must fall back to checkpoint, got source %d", rel, src)
		}
	}
}

// routeStores routes n random tuples per relation through hc and returns
// every cell's partition of every relation as a bag (duplicates matter: a
// peer holding a tuple twice is not an identical copy).
func routeStores(t *testing.T, hc *Hypercube, rng *rand.Rand, n int, domain int64) [][]map[string]int {
	t.Helper()
	stores := make([][]map[string]int, hc.Machines())
	for m := range stores {
		stores[m] = make([]map[string]int, hc.NumRels())
		for rel := range stores[m] {
			stores[m][rel] = map[string]int{}
		}
	}
	for rel := 0; rel < hc.NumRels(); rel++ {
		for i := 0; i < n; i++ {
			tu := types.Tuple{types.Int(rng.Int63n(domain)), types.Int(rng.Int63n(domain)), types.Int(int64(i))}
			targets, err := hc.Targets(rel, tu, rng, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range targets {
				stores[m][rel][tu.Key()]++
			}
		}
	}
	return stores
}

// sameBag reports whether two partitions hold the same tuples equally often.
func sameBag(a, b map[string]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, n := range a {
		if b[k] != n {
			return false
		}
	}
	return true
}

// TestMovesPeersHoldIdenticalPartitions: route real tuples, kill a cell,
// and verify each relation's lost partition is identical at every peer and
// at the source Moves names.
func TestMovesPeersHoldIdenticalPartitions(t *testing.T) {
	hc, err := BuildScheme(HashHypercube, chainSpec(100), 16)
	if err != nil {
		t.Fatal(err)
	}
	stores := routeStores(t, hc, rand.New(rand.NewSource(4)), 200, 9)
	const failed = 5
	for rel := 0; rel < 3; rel++ {
		src := killSource(t, hc, failed, rel)
		if src == Checkpoint {
			continue
		}
		for _, peer := range append(peersOf(hc, rel, failed), src) {
			if !sameBag(stores[peer][rel], stores[failed][rel]) {
				t.Fatalf("rel %d: peer %d holds %d tuples, failed cell held %d",
					rel, peer, len(stores[peer][rel]), len(stores[failed][rel]))
			}
		}
	}
}

// moveSpecs enumerates small join shapes whose hypercubes exercise hash,
// random and replicated dimensions.
func moveSpecs() []JoinSpec {
	return []JoinSpec{
		twoSpec(500, 500), // 2-way equi join, balanced sizes
		twoSpec(2000, 50), // skewed sizes: one relation tends to lose its dimension
		chainSpec(300),    // 3-way chain: Figure 2's shape
		{ // same-key star: all relations hash one dimension (no replication)
			Graph: expr.MustJoinGraph(3,
				expr.EquiCol(0, 0, 1, 0),
				expr.EquiCol(1, 0, 2, 0)),
			Names: []string{"A", "B", "C"},
			Sizes: []int64{400, 400, 400},
		},
	}
}

// TestMovesKillSourcesHoldIdenticalPartitions is the §5 property behind
// live peer recovery, checked exhaustively over small hypercubes: for every
// scheme, spec, machine budget and killed cell, the source Moves names for
// each relation holds an identical copy of the killed cell's partition, and
// Checkpoint is named exactly when no other cell holds one.
func TestMovesKillSourcesHoldIdenticalPartitions(t *testing.T) {
	schemes := []SchemeKind{HashHypercube, RandomHypercube, HybridHypercube}
	for si, spec := range moveSpecs() {
		for _, kind := range schemes {
			for _, machines := range []int{4, 8, 12} {
				t.Run(fmt.Sprintf("spec%d/%v/%dJ", si, kind, machines), func(t *testing.T) {
					hc, err := BuildScheme(kind, spec, machines)
					if err != nil {
						t.Fatal(err)
					}
					stores := routeStores(t, hc, rand.New(rand.NewSource(int64(77+si))), 300, 13)
					for failed := 0; failed < hc.Machines(); failed++ {
						for rel := 0; rel < hc.NumRels(); rel++ {
							src, peers := killSource(t, hc, failed, rel), peersOf(hc, rel, failed)
							if (src == Checkpoint) != (len(peers) == 0) || src != Checkpoint && !slices.Contains(peers, src) {
								t.Fatalf("failed=%d rel=%d: source %d, peers %v", failed, rel, src, peers)
							}
							for _, peer := range peers {
								if !sameBag(stores[peer][rel], stores[failed][rel]) {
									t.Fatalf("failed=%d rel=%d: peer %d holds another partition", failed, rel, peer)
								}
							}
						}
					}
				})
			}
		}
	}
}

// TestMovesRandomHypercubeAlwaysFullyRecoverable pins the scheme-level
// claim the paper's FT optimization leans on: an all-random scheme with >= 2
// dimensions of size > 1 replicates every relation somewhere, so every cell
// is fully peer-recoverable.
func TestMovesRandomHypercubeAlwaysFullyRecoverable(t *testing.T) {
	hc, err := BuildScheme(RandomHypercube, chainSpec(300), 27)
	if err != nil {
		t.Fatal(err)
	}
	if hc.NumDims() < 2 {
		t.Skipf("degenerate cube %v", hc)
	}
	for failed := 0; failed < hc.Machines(); failed++ {
		for rel := 0; rel < hc.NumRels(); rel++ {
			if killSource(t, hc, failed, rel) == Checkpoint {
				t.Fatalf("cell %d of %v: relation %d needs a checkpoint", failed, hc, rel)
			}
		}
	}
}

// TestMovesValidation: shapes that disagree on which dims a relation owns
// are refused, and a lost cell outside the shape holds nothing to move.
func TestMovesValidation(t *testing.T) {
	random, err := BuildScheme(RandomHypercube, chainSpec(100), 8)
	if err != nil {
		t.Fatal(err)
	}
	matrix, err := OneBucket(twoSpec(1, 1), 8, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Moves(random, matrix, nil); err == nil {
		t.Error("shapes with different relations must fail")
	}
	skewed, err := BuildScheme(HashHypercube, twoSpec(2000, 50), 8)
	if err != nil {
		t.Fatal(err)
	}
	if skewed.NumDims() == matrix.NumDims() {
		t.Fatalf("hash shape %v unexpectedly has the matrix's dims", skewed)
	}
	if _, err := Moves(matrix, skewed, nil); err == nil {
		t.Error("shapes with different dims must fail")
	}
	for _, lost := range []int{-1, matrix.Machines()} {
		ms, err := Moves(matrix, matrix, []int{lost})
		if err != nil {
			t.Fatal(err)
		}
		for rel := range ms.From {
			for m := range ms.From[rel] {
				if !ms.Keep[m][rel] || len(ms.From[rel][m]) > 0 {
					t.Fatalf("lost cell %d outside the shape moved cell %d rel %d", lost, m, rel)
				}
			}
		}
	}
}

// TestMovesPreservePairs: after every 1-Bucket reshape over at most 8
// machines, each (R, S) pair of stored tuples meets at exactly one cell, as
// it did before — the exactly-once argument of live migration.
func TestMovesPreservePairs(t *testing.T) {
	var shapes []*Hypercube
	for rows := 1; rows <= 8; rows++ {
		for cols := 1; rows*cols <= 8; cols++ {
			hc, err := OneBucket(twoSpec(1, 1), 8, rows, cols)
			if err != nil {
				t.Fatal(err)
			}
			shapes = append(shapes, hc)
		}
	}
	rng := rand.New(rand.NewSource(3))
	for _, old := range shapes {
		// held[cell][rel] lists tuple ids; R ids are 0..9, S ids 10..19.
		held := make([][2][]int, old.Machines())
		for rel := 0; rel < 2; rel++ {
			for id := rel * 10; id < rel*10+10; id++ {
				targets, err := old.Targets(rel, nil, rng, nil)
				if err != nil {
					t.Fatal(err)
				}
				for _, m := range targets {
					held[m][rel] = append(held[m][rel], id)
				}
			}
		}
		for _, next := range shapes {
			ms, err := Moves(old, next, nil)
			if err != nil {
				t.Fatal(err)
			}
			meets := map[[2]int]int{}
			for m := 0; m < next.Machines(); m++ {
				var now [2][]int
				for rel := 0; rel < 2; rel++ {
					if m < old.Machines() && ms.Keep[m][rel] {
						now[rel] = held[m][rel]
					}
					for _, src := range ms.From[rel][m] {
						now[rel] = append(slices.Clip(now[rel]), held[src][rel]...)
					}
				}
				for _, r := range now[0] {
					for _, s := range now[1] {
						meets[[2]int{r, s}]++
					}
				}
			}
			for r := 0; r < 10; r++ {
				for s := 10; s < 20; s++ {
					if n := meets[[2]int{r, s}]; n != 1 {
						t.Fatalf("%v -> %v: pair (%d, %d) meets at %d cells, want 1", old, next, r, s, n)
					}
				}
			}
		}
	}
}

// TestReshapePlanMatchesTable pins the migration rule: Moves(old, next, nil)
// must produce exactly the 2-D 1-Bucket exports the matrix rule produced
// before it — keep flag, primary flag and destination set for every old
// cell and relation of every (old, new) matrix pair over at most 8 machines
// (testdata/reshape_plan.txt, captured from that rule). The primary is the
// cell that serves its copy: the lowest one holding it.
func TestReshapePlanMatchesTable(t *testing.T) {
	table, err := os.ReadFile("testdata/reshape_plan.txt")
	if err != nil {
		t.Fatal(err)
	}
	shape := func(dims string) *Hypercube {
		var rows, cols int
		if _, err := fmt.Sscanf(dims, "%dx%d", &rows, &cols); err != nil {
			t.Fatalf("matrix %q: %v", dims, err)
		}
		hc, err := OneBucket(twoSpec(1, 1), 8, rows, cols)
		if err != nil {
			t.Fatal(err)
		}
		return hc
	}
	checked := 0
	for _, line := range strings.Split(strings.TrimSpace(string(table)), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		var oldDims, newDims, dests string
		var task, rel, keep, primary int
		if _, err := fmt.Sscan(line, &oldDims, &newDims, &task, &rel, &keep, &primary, &dests); err != nil {
			t.Fatalf("line %q: %v", line, err)
		}
		old := shape(oldDims)
		ms, err := Moves(old, shape(newDims), nil)
		if err != nil {
			t.Fatal(err)
		}
		var gotDests []string
		for m, srcs := range ms.From[rel] {
			if slices.Contains(srcs, task) {
				gotDests = append(gotDests, fmt.Sprint(m))
			}
		}
		got := "-"
		if len(gotDests) > 0 {
			got = strings.Join(gotDests, ",")
		}
		gotKeep, gotPrimary := ms.Keep[task][rel], old.CopyOf(rel, task) == task
		if gotKeep != (keep == 1) || gotPrimary != (primary == 1) || got != dests {
			t.Fatalf("%s -> %s cell %d rel %d: keep %v primary %v dests %s, want %q", oldDims, newDims, task, rel, gotKeep, gotPrimary, got, line)
		}
		checked++
	}
	// Every old cell of the 20 matrices that fit 8 machines, against each of
	// the 20 new matrices, for both relations.
	cells := 0
	for rows := 1; rows <= 8; rows++ {
		for cols := 1; rows*cols <= 8; cols++ {
			cells += rows * cols
		}
	}
	if want := cells * 20 * 2; checked != want {
		t.Fatalf("checked %d table rows, want %d", checked, want)
	}
}
