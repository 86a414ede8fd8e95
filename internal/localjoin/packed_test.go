package localjoin

import (
	"fmt"
	"math/rand"
	"testing"

	"squall/internal/expr"
	"squall/internal/types"
)

// packedDiffRow synthesizes a (key, payload, seq) row with occasional
// string and float keys so cross-kind hashing and verification run.
func packedDiffRow(rng *rand.Rand, rel, i, domain int) types.Tuple {
	k := int64(rng.Intn(domain))
	var key types.Value
	switch rng.Intn(4) {
	case 0:
		key = types.Float(float64(k)) // integral float: joins with int keys
	case 1:
		key = types.Str(fmt.Sprintf("k%d", k))
	default:
		key = types.Int(k)
	}
	return types.Tuple{key, types.Int(int64(rng.Intn(40))), types.Int(int64(rel*1_000_000 + i))}
}

// nullPayloadRow is packedDiffRow with a NULL payload one time in eight, so
// computed keys over the payload yield NULL.
func nullPayloadRow(rng *rand.Rand, rel, i, domain int) types.Tuple {
	tu := packedDiffRow(rng, rel, i, domain)
	if rng.Intn(8) == 0 {
		tu[1] = types.Null()
	}
	return tu
}

// Computed conjunct sides over the numeric payload (column 1).
var (
	twice   = expr.Arith{Op: expr.Mul, L: expr.C(1), R: expr.I(2)}
	doubled = expr.Arith{Op: expr.Add, L: expr.C(1), R: expr.C(1)}
	plus3   = expr.Arith{Op: expr.Add, L: expr.C(1), R: expr.I(3)}
	plus20  = expr.Arith{Op: expr.Add, L: expr.C(1), R: expr.I(20)}
)

// exprEquiGraph joins 2·R.payload = S.payload + S.payload: both sides
// computed, equal exactly when the payloads are.
func exprEquiGraph() *expr.JoinGraph {
	return expr.MustJoinGraph(2, expr.JoinConjunct{LRel: 0, RRel: 1, Op: expr.Eq, Left: twice, Right: doubled})
}

// exprBandGraph is a range first step with one computed side:
// R.payload + 3 < S.payload.
func exprBandGraph() *expr.JoinGraph {
	return expr.MustJoinGraph(2, expr.JoinConjunct{LRel: 0, RRel: 1, Op: expr.Lt, Left: plus3, Right: expr.C(1)})
}

// exprFilterGraph probes a column equi-conjunct and filters by a computed
// one: R.key = S.key AND 2·R.payload <= S.payload + 20.
func exprFilterGraph() *expr.JoinGraph {
	return expr.MustJoinGraph(2, expr.EquiCol(0, 0, 1, 0),
		expr.JoinConjunct{LRel: 0, RRel: 1, Op: expr.Le, Left: twice, Right: plus20})
}

// band3Graph puts a range probe first: R.payload < S.payload AND
// S.key = T.key. Under the Views policy an arrival of R range-probes view
// {S,T}, and one of S probes {R} by range and {T} by equality.
func band3Graph() *expr.JoinGraph {
	return expr.MustJoinGraph(3, expr.ThetaCol(0, 1, expr.Lt, 1, 1), expr.EquiCol(1, 0, 2, 0))
}

// cross3Graph joins R.key = S.key and S.payload <> T.payload: T has no
// probe conjunct, so an arrival of T scans view {R,S} (a combo view under
// the Views policy) and one of S scans T. Its deltas grow with the cube of
// the rows stored, so it is fed fewer of them.
func cross3Graph() *expr.JoinGraph {
	return expr.MustJoinGraph(3, expr.EquiCol(0, 0, 1, 0), expr.ThetaCol(1, 1, expr.Ne, 2, 1))
}

// computedChainGraph is a 3-way chain on computed keys with a computed
// filter: 2·R.payload = S.payload + S.payload, S.key = T.key and
// R.seq < T.payload + 20.
func computedChainGraph() *expr.JoinGraph {
	return expr.MustJoinGraph(3,
		expr.JoinConjunct{LRel: 0, RRel: 1, Op: expr.Eq, Left: twice, Right: doubled},
		expr.EquiCol(1, 0, 2, 0),
		expr.JoinConjunct{LRel: 0, RRel: 2, Op: expr.Lt, Left: expr.C(2), Right: plus20})
}

// oracleDelta is the nested-loop oracle for one arrival: every combination
// of tu (relation rel) with stored rows of the other relations on which
// every conjunct holds, as a bag of concatenated rows. Conjuncts are checked
// as soon as both their relations are assigned.
func oracleDelta(t *testing.T, g *expr.JoinGraph, stored [][]types.Tuple, rel int, tu types.Tuple) map[string]int {
	t.Helper()
	bag := map[string]int{}
	cur := make([]types.Tuple, g.NumRels)
	cur[rel] = tu
	var rec func(r int, mask uint64)
	rec = func(r int, mask uint64) {
		if r == g.NumRels {
			bag[concat(cur).Key()]++
			return
		}
		if r == rel {
			rec(r+1, mask)
			return
		}
	rows:
		for _, s := range stored[r] {
			cur[r] = s
			for _, c := range g.Between(mask, 1<<uint(r)) {
				ok, err := c.Holds(cur)
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					continue rows
				}
			}
			rec(r+1, mask|1<<uint(r))
		}
	}
	rec(0, 1<<uint(rel))
	return bag
}

// TestOnRowAgreesWithOracle feeds an interleaved stream through OnRow and
// requires, arrival by arrival, the nested-loop oracle's delta bag, and at
// the end a stored state equal to the rows fed — on column-key equi chains
// and theta conjuncts (tree probes), and on computed keys: an equi conjunct
// with both sides computed and a computed filter. The n-way graphs run
// under both index policies.
func TestOnRowAgreesWithOracle(t *testing.T) {
	cases := []struct {
		name     string
		g        *expr.JoinGraph
		arrivals int
	}{
		{"2way-equi", expr.MustJoinGraph(2, expr.EquiCol(0, 0, 1, 0)), 0},
		{"2way-theta", expr.MustJoinGraph(2, expr.EquiCol(0, 0, 1, 0), expr.ThetaCol(0, 1, expr.Lt, 1, 1)), 0},
		{"3way-chain", expr.MustJoinGraph(3, expr.EquiCol(0, 0, 1, 0), expr.EquiCol(1, 0, 2, 0)), 0},
		{"3way-theta", expr.MustJoinGraph(3, expr.EquiCol(0, 0, 1, 0), expr.EquiCol(1, 0, 2, 0), expr.ThetaCol(0, 1, expr.Lt, 1, 1)), 0},
		{"2way-expr-equi", exprEquiGraph(), 0},
		{"2way-expr-filter", exprFilterGraph(), 0},
		{"3way-expr-chain", computedChainGraph(), 0},
		{"3way-band", band3Graph(), 400},
		{"3way-cross", cross3Graph(), 150},
		{"4way-star", expr.MustJoinGraph(4, expr.EquiCol(0, 0, 1, 0), expr.EquiCol(0, 0, 2, 0), expr.ThetaCol(0, 1, expr.Ge, 3, 1)), 300},
	}
	for _, c := range cases {
		for _, p := range policiesFor(c.g) {
			name := c.name
			if p.name != "traditional" {
				name += "/" + p.name
			}
			t.Run(name, func(t *testing.T) {
				j := p.mk(c.g)
				stored := make([][]types.Tuple, c.g.NumRels)
				rng := rand.New(rand.NewSource(77))
				deltas := 0
				n := c.arrivals
				if n == 0 {
					n = 600
				}
				for i := 0; i < n; i++ {
					rel := rng.Intn(c.g.NumRels)
					tu := nullPayloadRow(rng, rel, i, 12)
					want := oracleDelta(t, c.g, stored, rel, tu)
					got := map[string]int{}
					for _, d := range joinRow(t, j, rel, tu) {
						got[d.Key()]++
					}
					if d := bagDiff(want, got); d != "" {
						t.Fatalf("arrival %d (rel %d, %v): OnRow diverges from the oracle: %s", i, rel, tu, d)
					}
					for _, n := range want {
						deltas += n
					}
					stored[rel] = append(stored[rel], tu)
				}
				if deltas == 0 {
					t.Fatal("no arrival produced a delta")
				}
				for rel := range stored {
					if got := frameTuples(t, j, rel, 16); !equalTupleSets(got, append([]types.Tuple(nil), stored[rel]...)) {
						t.Fatalf("rel %d: stored state diverges from the rows fed", rel)
					}
				}
			})
		}
	}
}

// TestOnRowMixedWithImports interleaves OnRow arrivals with ImportRow (the
// migration / recovery import path) on one operator: every arrival's deltas
// must be the oracle's over all rows stored so far, whichever path stored
// them — on a column key and on a computed one.
func TestOnRowMixedWithImports(t *testing.T) {
	for name, g := range map[string]*expr.JoinGraph{
		"column":   expr.MustJoinGraph(2, expr.EquiCol(0, 0, 1, 0)),
		"computed": exprEquiGraph(),
	} {
		t.Run(name, func(t *testing.T) {
			j := NewTraditional(g)
			stored := make([][]types.Tuple, 2)
			rng := rand.New(rand.NewSource(99))
			deltas := 0
			for i := 0; i < 400; i++ {
				rel := rng.Intn(2)
				tu := nullPayloadRow(rng, rel, i, 10)
				if i%3 == 0 {
					importTuple(t, j, rel, tu)
				} else {
					want := oracleDelta(t, g, stored, rel, tu)
					got := map[string]int{}
					for _, d := range joinRow(t, j, rel, tu) {
						got[d.Key()]++
					}
					if d := bagDiff(want, got); d != "" {
						t.Fatalf("arrival %d (%v): %s", i, tu, d)
					}
					for _, n := range want {
						deltas += n
					}
				}
				stored[rel] = append(stored[rel], tu)
			}
			if deltas == 0 {
				t.Fatal("no arrival produced a delta")
			}
		})
	}
}

// TestPackedCapableComputedKeys: a computed-key graph stays on the row path
// (PackedCapable), and a computed side and a column side of one equality
// share the index hash space — an integral float column meets the int a
// computed key evaluates to, as Value.Compare and Value.Hash agree.
func TestPackedCapableComputedKeys(t *testing.T) {
	// 2·R.a = S.a
	g := expr.MustJoinGraph(2, expr.JoinConjunct{
		LRel: 0, RRel: 1, Op: expr.Eq,
		Left:  expr.Arith{Op: expr.Mul, L: expr.C(0), R: expr.I(2)},
		Right: expr.C(0),
	})
	for name, j := range map[string]*Traditional{"computed": NewTraditional(g), "column": NewTraditional(expr.MustJoinGraph(2, expr.EquiCol(0, 0, 1, 0)))} {
		if !j.PackedCapable() {
			t.Fatalf("%s graph: PackedCapable = false", name)
		}
	}
	j := NewTraditional(g)
	importTuple(t, j, 0, types.Tuple{types.Int(3)})
	importTuple(t, j, 0, types.Tuple{types.Int(4)})
	if got := joinRow(t, j, 1, types.Tuple{types.Float(6)}); len(got) != 1 || got[0][0].I != 3 {
		t.Fatalf("S.a = 6.0 joined %v, want the stored R.a = 3", got)
	}
	// The other direction: a computed probe key against column-keyed state.
	if got := joinRow(t, j, 0, types.Tuple{types.Float(3)}); len(got) != 1 || got[0][1].F != 6 {
		t.Fatalf("R.a = 3.0 joined %v, want the stored S.a = 6.0", got)
	}
}
