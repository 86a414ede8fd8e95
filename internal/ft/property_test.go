package ft

import (
	"fmt"
	"math/rand"
	"testing"

	"squall/internal/core"
	"squall/internal/expr"
	"squall/internal/types"
)

// propSpec enumerates small join shapes whose hypercubes exercise hash,
// random and replicated dimensions.
func propSpecs() []core.JoinSpec {
	return []core.JoinSpec{
		{ // 2-way equi join, balanced sizes
			Graph: expr.MustJoinGraph(2, expr.EquiCol(0, 0, 1, 0)),
			Names: []string{"R", "S"},
			Sizes: []int64{500, 500},
		},
		{ // skewed sizes: one relation tends to lose its dimension
			Graph: expr.MustJoinGraph(2, expr.EquiCol(0, 0, 1, 0)),
			Names: []string{"R", "S"},
			Sizes: []int64{2000, 50},
		},
		{ // 3-way chain: Figure 2's shape
			Graph: expr.MustJoinGraph(3,
				expr.EquiCol(0, 1, 1, 0),
				expr.EquiCol(1, 1, 2, 0)),
			Names: []string{"R", "S", "T"},
			Sizes: []int64{300, 300, 300},
		},
		{ // same-key star: all relations hash one dimension (no replication)
			Graph: expr.MustJoinGraph(3,
				expr.EquiCol(0, 0, 1, 0),
				expr.EquiCol(1, 0, 2, 0)),
			Names: []string{"A", "B", "C"},
			Sizes: []int64{400, 400, 400},
		},
	}
}

// TestRecoveryPlanPeersHoldIdenticalPartitions is the §5 property behind
// live peer recovery, checked exhaustively over small hypercubes: for every
// scheme, spec, machine budget and failed machine, every peer named by
// RecoveryPlan holds a bit-identical copy of the failed machine's partition
// of that relation.
func TestRecoveryPlanPeersHoldIdenticalPartitions(t *testing.T) {
	schemes := []core.SchemeKind{core.HashHypercube, core.RandomHypercube, core.HybridHypercube}
	for si, spec := range propSpecs() {
		for _, kind := range schemes {
			for _, machines := range []int{4, 8, 12} {
				name := fmt.Sprintf("spec%d/%v/%dJ", si, kind, machines)
				t.Run(name, func(t *testing.T) {
					hc, err := core.BuildScheme(kind, spec, machines)
					if err != nil {
						t.Fatal(err)
					}
					nRels := spec.Graph.NumRels
					rng := rand.New(rand.NewSource(int64(77 + si)))
					// Route a few hundred tuples per relation and record every
					// machine's partition as a bag (duplicates matter: a peer
					// holding a tuple twice is not an identical copy).
					stores := make([][]map[string]int, hc.Machines())
					for m := range stores {
						stores[m] = make([]map[string]int, nRels)
						for rel := range stores[m] {
							stores[m][rel] = map[string]int{}
						}
					}
					for rel := 0; rel < nRels; rel++ {
						for i := 0; i < 300; i++ {
							tu := types.Tuple{types.Int(rng.Int63n(13)), types.Int(rng.Int63n(13)), types.Int(int64(i))}
							targets, err := hc.Targets(rel, tu, rng, nil)
							if err != nil {
								t.Fatal(err)
							}
							for _, m := range targets {
								stores[m][rel][tu.Key()]++
							}
						}
					}
					for failed := 0; failed < hc.Machines(); failed++ {
						plans, err := RecoveryPlan(hc, failed)
						if err != nil {
							t.Fatal(err)
						}
						if len(plans) != nRels {
							t.Fatalf("failed=%d: %d plans for %d relations", failed, len(plans), nRels)
						}
						for _, p := range plans {
							if p.Checkpoint {
								if len(p.Peers) != 0 {
									t.Fatalf("failed=%d rel=%d: checkpoint plan with peers %v", failed, p.Rel, p.Peers)
								}
								continue
							}
							if len(p.Peers) == 0 {
								t.Fatalf("failed=%d rel=%d: peer plan without peers", failed, p.Rel)
							}
							lost := stores[failed][p.Rel]
							for _, peer := range p.Peers {
								if peer == failed {
									t.Fatalf("failed=%d rel=%d: failed machine listed as its own peer", failed, p.Rel)
								}
								have := stores[peer][p.Rel]
								if len(have) != len(lost) {
									t.Fatalf("failed=%d rel=%d: peer %d holds %d distinct tuples, failed held %d",
										failed, p.Rel, peer, len(have), len(lost))
								}
								for k, n := range lost {
									if have[k] != n {
										t.Fatalf("failed=%d rel=%d: peer %d holds %q x%d, failed held x%d",
											failed, p.Rel, peer, k, have[k], n)
									}
								}
							}
						}
					}
				})
			}
		}
	}
}

// TestRandomHypercubeAlwaysFullyRecoverable pins the scheme-level claim the
// paper's FT optimization leans on: an all-random scheme with >= 2
// dimensions of size > 1 replicates every relation somewhere, so every
// machine is fully peer-recoverable.
func TestRandomHypercubeAlwaysFullyRecoverable(t *testing.T) {
	spec := propSpecs()[2] // 3-way chain
	hc, err := core.BuildScheme(core.RandomHypercube, spec, 27)
	if err != nil {
		t.Fatal(err)
	}
	if hc.NumDims() < 2 {
		t.Skipf("degenerate cube %v", hc)
	}
	for failed := 0; failed < hc.Machines(); failed++ {
		plans, err := RecoveryPlan(hc, failed)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range plans {
			if p.Checkpoint {
				t.Fatalf("machine %d of %v: relation %d needs a checkpoint", failed, hc, p.Rel)
			}
		}
	}
}
