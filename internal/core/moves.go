package core

import "fmt"

// CopyOf returns the cell that stands for cell's copy of relation rel: the
// cell at cell's coordinates on every dim rel owns and at 0 on the others.
// A relation replicates across the dims it does not own, so two cells hold
// identical copies of rel exactly when their CopyOf agree, and CopyOf is the
// lowest-numbered cell holding the copy.
func (hc *Hypercube) CopyOf(rel, cell int) int {
	m := 0
	for d, c := range hc.Coords(cell) {
		if hc.owns[rel][d] {
			m += c * hc.strides[d]
		}
	}
	return m
}

// wrapCopy maps old cell c's copy of rel onto next: its coordinates on rel's
// own dims wrapped onto next's sizes.
func wrapCopy(old, next *Hypercube, rel, c int) int {
	coords := old.Coords(c)
	for d := range coords {
		if old.owns[rel][d] {
			coords[d] %= next.Dims[d].Size
		} else {
			coords[d] = 0
		}
	}
	return next.MachineAt(coords)
}

// Checkpoint is the source of a copy no surviving cell holds: the lost
// cell's last checkpoint, played by whoever keeps it.
const Checkpoint = -1

// MoveSet is the state transfer between two shapes of one cube (§5): what
// each cell keeps in place, and where each cell of the new shape fetches
// the copies it lacks.
type MoveSet struct {
	// Keep[cell][rel] reports that a cell of the old shape keeps its copy of
	// rel in place; it is false on lost cells and on cells outside the new
	// shape.
	Keep [][]bool
	// From[rel][cell] lists the sources cell of the new shape imports rel
	// from, each a cell of the old shape or Checkpoint; empty when the cell
	// keeps what it needs. A cell receives several copies only when a
	// shrinking dim merges them.
	From [][][]int
}

// Moves is the one rule behind migration and recovery. A cell of old keeps
// rel's state when it survives and, as a cell of next, its coordinates on
// rel's own dims wrapped onto next's sizes are unchanged. Every copy of old
// lands on the cells of next at its wrapped coordinates that do not keep
// it already, served by the lowest surviving cell of old that holds it, or
// by Checkpoint when every holder is lost — only the state that changes
// cells moves. A cell outside old holds nothing. A reshape is
// Moves(old, next, nil); a kill of cell f is Moves(hc, hc, []int{f}), where
// each relation of f comes from a peer sharing f's coordinates on the
// relation's dims, or from Checkpoint when the scheme does not replicate it.
// The shapes must agree on which dims each relation owns.
func Moves(old, next *Hypercube, lost []int) (*MoveSet, error) {
	if old.NumRels() != next.NumRels() || old.NumDims() != next.NumDims() {
		return nil, fmt.Errorf("core: moves between %v and %v: relations or dims differ", old, next)
	}
	for rel := range old.owns {
		for d := range old.Dims {
			if old.owns[rel][d] != next.owns[rel][d] {
				return nil, fmt.Errorf("core: moves between %v and %v: relation %d owns dim %d in one shape only", old, next, rel, d)
			}
		}
	}
	gone := make([]bool, old.Machines())
	for _, c := range lost {
		if c >= 0 && c < len(gone) {
			gone[c] = true
		}
	}
	ms := &MoveSet{Keep: make([][]bool, old.Machines()), From: make([][][]int, old.NumRels())}
	for c := range ms.Keep {
		ms.Keep[c] = make([]bool, old.NumRels())
	}
	for rel := range ms.From {
		// src[k] serves old copy k (k = CopyOf); cells ascend, so the first
		// survivor met is the lowest.
		src := map[int]int{}
		var copies []int
		for c := range gone {
			k := old.CopyOf(rel, c)
			if _, seen := src[k]; !seen {
				src[k] = Checkpoint
				copies = append(copies, k)
			}
			if !gone[c] && src[k] == Checkpoint {
				src[k] = c
			}
			ms.Keep[c][rel] = !gone[c] && c < next.Machines() && next.CopyOf(rel, c) == wrapCopy(old, next, rel, c)
		}
		ms.From[rel] = make([][]int, next.Machines())
		for m := range ms.From[rel] {
			want := next.CopyOf(rel, m)
			for _, k := range copies {
				if wrapCopy(old, next, rel, k) != want || m < len(gone) && !gone[m] && old.CopyOf(rel, m) == k {
					continue
				}
				ms.From[rel][m] = append(ms.From[rel][m], src[k])
			}
		}
	}
	return ms, nil
}
