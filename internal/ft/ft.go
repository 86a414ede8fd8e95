// Package ft implements the paper's replication-aware fault tolerance (§5):
// when a hypercube partitioning scheme replicates tuples, a failed joiner
// can rebuild a relation's local state from a peer machine instead of a disk
// checkpoint — "network accesses are several times faster than disk
// accesses". A relation's partition at machine m is identical at every
// machine sharing m's coordinates on the relation's own dimensions, so any
// such peer is a complete source.
package ft

import (
	"fmt"

	"squall/internal/core"
)

// Plan describes how one relation's state at a failed machine is recovered.
type Plan struct {
	Rel int
	// Peers are machines holding an identical copy of the relation's
	// partition (empty when the scheme does not replicate the relation).
	Peers []int
	// Checkpoint is true when no peer exists and recovery must fall back to
	// a disk checkpoint.
	Checkpoint bool
}

// RecoveryPlan computes, for every relation, where the failed machine's
// state can be refetched. Figure 2b's example: if machine {1,1,1} fails, R
// is recoverable from any {1,*,*}, S from {*,1,*}, T from {*,*,1}.
func RecoveryPlan(hc *core.Hypercube, failed int) ([]Plan, error) {
	if failed < 0 || failed >= hc.Machines() {
		return nil, fmt.Errorf("ft: machine %d out of range [0,%d)", failed, hc.Machines())
	}
	coords := hc.Coords(failed)
	plans := make([]Plan, hc.NumRels())
	for rel := range plans {
		plans[rel].Rel = rel
		peers := peersOf(hc, rel, coords, failed)
		if len(peers) == 0 {
			plans[rel].Checkpoint = true
		} else {
			plans[rel].Peers = peers
		}
	}
	return plans, nil
}

// peersOf enumerates machines agreeing with the failed machine on every
// dimension the relation owns and differing somewhere else.
func peersOf(hc *core.Hypercube, rel int, coords []int, failed int) []int {
	var out []int
	cur := make([]int, hc.NumDims())
	var rec func(d int)
	rec = func(d int) {
		if d == hc.NumDims() {
			if m := hc.MachineAt(cur); m != failed {
				out = append(out, m)
			}
			return
		}
		if hc.Owns(rel, d) {
			cur[d] = coords[d]
			rec(d + 1)
			return
		}
		for c := 0; c < dimSize(hc, d); c++ {
			cur[d] = c
			rec(d + 1)
		}
	}
	rec(0)
	return out
}

func dimSize(hc *core.Hypercube, d int) int { return hc.Dims[d].Size }
