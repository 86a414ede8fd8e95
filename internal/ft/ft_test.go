package ft

import (
	"math/rand"
	"testing"

	"squall/internal/core"
	"squall/internal/expr"
	"squall/internal/types"
)

func chainSpec(h int64) core.JoinSpec {
	return core.JoinSpec{
		Graph: expr.MustJoinGraph(3,
			expr.EquiCol(0, 1, 1, 0),
			expr.EquiCol(1, 1, 2, 0),
		),
		Names: []string{"R", "S", "T"},
		Sizes: []int64{h, h, h},
	}
}

// TestFigure2bExample: Random-Hypercube 4x4x4 — a failed machine recovers R
// from machines sharing its R coordinate, S from its S coordinate, etc.
func TestFigure2bExample(t *testing.T) {
	hc, err := core.BuildScheme(core.RandomHypercube, chainSpec(1<<20), 64)
	if err != nil {
		t.Fatal(err)
	}
	const failed = 21 // arbitrary cell
	plans, err := RecoveryPlan(hc, failed)
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) != 3 {
		t.Fatalf("plans = %d", len(plans))
	}
	for _, p := range plans {
		if p.Checkpoint {
			t.Fatalf("relation %d needs a checkpoint under Random-Hypercube", p.Rel)
		}
		// 4x4x4: fixing one dim leaves 4*4-1 = 15 peers.
		if len(p.Peers) != 15 {
			t.Errorf("relation %d: %d peers, want 15", p.Rel, len(p.Peers))
		}
		coords := hc.Coords(failed)
		for _, peer := range p.Peers {
			pc := hc.Coords(peer)
			for d := 0; d < hc.NumDims(); d++ {
				if hc.Owns(p.Rel, d) && pc[d] != coords[d] {
					t.Fatalf("peer %d differs on owned dim %d", peer, d)
				}
			}
		}
	}
}

// TestNoReplicationNeedsCheckpoint: a same-key multi-way join hashes all
// relations on one dimension — nothing is replicated, so peer recovery is
// impossible.
func TestNoReplicationNeedsCheckpoint(t *testing.T) {
	spec := core.JoinSpec{
		Graph: expr.MustJoinGraph(3,
			expr.EquiCol(0, 0, 1, 0),
			expr.EquiCol(1, 0, 2, 0),
		),
		Names: []string{"A", "B", "C"},
		Sizes: []int64{1000, 1000, 1000},
	}
	hc, err := core.BuildScheme(core.HashHypercube, spec, 8)
	if err != nil {
		t.Fatal(err)
	}
	plans, err := RecoveryPlan(hc, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range plans {
		if !p.Checkpoint || len(p.Peers) != 0 {
			t.Errorf("relation %d must fall back to checkpoint: %+v", p.Rel, p)
		}
	}
}

// TestPeersHoldIdenticalPartitions: route real tuples, kill a machine, and
// verify each relation's lost partition is bit-identical at every peer.
func TestPeersHoldIdenticalPartitions(t *testing.T) {
	spec := chainSpec(100)
	hc, err := core.BuildScheme(core.HashHypercube, spec, 16)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	// stores[machine][rel] = set of tuple keys.
	stores := make([]map[int]map[string]bool, hc.Machines())
	for m := range stores {
		stores[m] = map[int]map[string]bool{0: {}, 1: {}, 2: {}}
	}
	for rel := 0; rel < 3; rel++ {
		for i := 0; i < 200; i++ {
			tu := types.Tuple{types.Int(rng.Int63n(9)), types.Int(rng.Int63n(9))}
			targets, err := hc.Targets(rel, tu, rng, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range targets {
				stores[m][rel][tu.Key()] = true
			}
		}
	}
	const failed = 5
	plans, err := RecoveryPlan(hc, failed)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range plans {
		if p.Checkpoint {
			continue
		}
		lost := stores[failed][p.Rel]
		for _, peer := range p.Peers {
			have := stores[peer][p.Rel]
			if len(have) != len(lost) {
				t.Fatalf("rel %d: peer %d holds %d tuples, failed machine held %d",
					p.Rel, peer, len(have), len(lost))
			}
			for k := range lost {
				if !have[k] {
					t.Fatalf("rel %d: peer %d missing tuple %q", p.Rel, peer, k)
				}
			}
		}
	}
}

func TestRecoveryPlanValidation(t *testing.T) {
	hc, err := core.BuildScheme(core.RandomHypercube, chainSpec(100), 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RecoveryPlan(hc, -1); err == nil {
		t.Error("negative machine must fail")
	}
	if _, err := RecoveryPlan(hc, hc.Machines()); err == nil {
		t.Error("out-of-range machine must fail")
	}
}
