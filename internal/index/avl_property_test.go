package index

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"squall/internal/types"
)

// Property tests cross-checking the AVL tree against a sorted-slice oracle
// (mirroring internal/ewh/property_test.go): random insert traces, then
// range lookups and subtree count/sum aggregates are compared against brute
// force over the oracle.

// oracleEntry is one (key, tuple, weight) item of the reference model.
type oracleEntry struct {
	key types.Value
	t   types.Tuple
	w   float64
}

type treeOracle []oracleEntry

func (o treeOracle) inRange(k types.Value, lo, hi Bound) bool {
	return !lo.belowLo(k) && !hi.aboveHi(k)
}

func randKey(rng *rand.Rand, domain int64) types.Value {
	switch rng.Intn(3) {
	case 0:
		return types.Int(rng.Int63n(domain))
	case 1:
		// Integral floats: must land on the same key as their int twins.
		return types.Float(float64(rng.Int63n(domain)))
	default:
		return types.Float(float64(rng.Int63n(domain)) + 0.5)
	}
}

func randBoundPair(rng *rand.Rand, domain int64) (Bound, Bound) {
	mk := func() Bound {
		switch rng.Intn(3) {
		case 0:
			return Unbounded()
		case 1:
			return Incl(types.Int(rng.Int63n(domain)))
		default:
			return Excl(types.Float(float64(rng.Int63n(domain)) + 0.5))
		}
	}
	return mk(), mk()
}

// runTrace drives ops random inserts on both structures.
func runTrace(rng *rand.Rand, tr *Tree, oracle treeOracle, ops int, domain int64) treeOracle {
	for op := 0; op < ops; op++ {
		k := randKey(rng, domain)
		tup := types.Tuple{k, types.Int(int64(op))}
		w := float64(rng.Intn(10))
		tr.Insert(k, Item{T: tup, W: w})
		oracle = append(oracle, oracleEntry{key: k, t: tup, w: w})
	}
	return oracle
}

// TestTreePropertyRangeVsOracle: Range enumerates exactly the oracle's
// entries within the bounds, in non-decreasing key order.
func TestTreePropertyRangeVsOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 60; trial++ {
		tr := NewTree()
		oracle := runTrace(rng, tr, nil, 300+rng.Intn(400), int64(5+rng.Intn(60)))
		if int(tr.Len()) != len(oracle) {
			t.Fatalf("trial %d: tree Len %d, oracle %d", trial, tr.Len(), len(oracle))
		}
		for probe := 0; probe < 20; probe++ {
			lo, hi := randBoundPair(rng, 70)
			var want []oracleEntry
			for _, e := range oracle {
				if oracle.inRange(e.key, lo, hi) {
					want = append(want, e)
				}
			}
			sort.SliceStable(want, func(i, j int) bool { return want[i].key.Compare(want[j].key) < 0 })
			var got []Item
			var prev types.Value
			first := true
			tr.Range(lo, hi, func(k types.Value, it Item) bool {
				if !first && prev.Compare(k) > 0 {
					t.Fatalf("trial %d: Range visited keys out of order (%v after %v)", trial, k, prev)
				}
				prev, first = k, false
				got = append(got, it)
				return true
			})
			if len(got) != len(want) {
				t.Fatalf("trial %d probe %d: Range returned %d items, oracle %d", trial, probe, len(got), len(want))
			}
			// Bag equality on the unique seq column (items under one key are
			// unordered relative to the oracle).
			seqs := map[int64]int{}
			for _, it := range got {
				seqs[it.T[1].I]++
			}
			for _, e := range want {
				seqs[e.t[1].I]--
			}
			for s, n := range seqs {
				if n != 0 {
					t.Fatalf("trial %d probe %d: seq %d count off by %d", trial, probe, s, n)
				}
			}
		}
	}
}

// TestTreePropertyRangeAggVsOracle: RangeAgg's count and weight sum match
// brute force over the oracle for random bounds.
func TestTreePropertyRangeAggVsOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 60; trial++ {
		tr := NewTree()
		oracle := runTrace(rng, tr, nil, 200+rng.Intn(500), int64(4+rng.Intn(50)))
		for probe := 0; probe < 30; probe++ {
			lo, hi := randBoundPair(rng, 60)
			var wc int64
			var ws float64
			for _, e := range oracle {
				if oracle.inRange(e.key, lo, hi) {
					wc++
					ws += e.w
				}
			}
			gc, gs := tr.RangeAgg(lo, hi)
			if gc != wc || math.Abs(gs-ws) > 1e-9 {
				t.Fatalf("trial %d probe %d: RangeAgg = (%d, %.1f), oracle (%d, %.1f)", trial, probe, gc, gs, wc, ws)
			}
		}
	}
}
