package index

import "squall/internal/types"

// Item is one indexed entry: the stored tuple and a numeric weight that the
// tree aggregates over subtrees (weight is the SUM argument for aggregate
// views; use 1 to count).
type Item struct {
	T types.Tuple
	W float64
}

// Tree is a balanced (AVL) binary search tree keyed by types.Value, holding
// multiple items per key and maintaining subtree item counts and weight sums
// for O(log n) range aggregates.
type Tree struct {
	root *tnode
	mem  int
}

type tnode struct {
	key   types.Value
	items []Item
	l, r  *tnode
	h     int8
	// Subtree aggregates (including this node's items).
	cnt int64
	sum float64
}

// NewTree returns an empty tree.
func NewTree() *Tree { return &Tree{} }

func height(n *tnode) int8 {
	if n == nil {
		return 0
	}
	return n.h
}

func cnt(n *tnode) int64 {
	if n == nil {
		return 0
	}
	return n.cnt
}

func sum(n *tnode) float64 {
	if n == nil {
		return 0
	}
	return n.sum
}

func (n *tnode) update() {
	hl, hr := height(n.l), height(n.r)
	if hl > hr {
		n.h = hl + 1
	} else {
		n.h = hr + 1
	}
	n.cnt = cnt(n.l) + cnt(n.r) + int64(len(n.items))
	n.sum = sum(n.l) + sum(n.r)
	for _, it := range n.items {
		n.sum += it.W
	}
}

func rotRight(y *tnode) *tnode {
	x := y.l
	y.l = x.r
	x.r = y
	y.update()
	x.update()
	return x
}

func rotLeft(x *tnode) *tnode {
	y := x.r
	x.r = y.l
	y.l = x
	x.update()
	y.update()
	return y
}

func balance(n *tnode) *tnode {
	n.update()
	bf := height(n.l) - height(n.r)
	switch {
	case bf > 1:
		if height(n.l.l) < height(n.l.r) {
			n.l = rotLeft(n.l)
		}
		return rotRight(n)
	case bf < -1:
		if height(n.r.r) < height(n.r.l) {
			n.r = rotRight(n.r)
		}
		return rotLeft(n)
	default:
		return n
	}
}

// Insert adds an item under key.
func (t *Tree) Insert(key types.Value, it Item) {
	t.root = insert(t.root, key, it)
	t.mem += it.T.MemSize() + key.MemSize()
}

func insert(n *tnode, key types.Value, it Item) *tnode {
	if n == nil {
		nn := &tnode{key: key, items: []Item{it}}
		nn.update()
		return nn
	}
	switch c := key.Compare(n.key); {
	case c < 0:
		n.l = insert(n.l, key, it)
	case c > 0:
		n.r = insert(n.r, key, it)
	default:
		n.items = append(n.items, it)
	}
	return balance(n)
}

// Len returns the number of stored items.
func (t *Tree) Len() int64 { return cnt(t.root) }

// MemSize approximates the tree footprint in bytes.
func (t *Tree) MemSize() int { return t.mem + 48 }

// Bound is one end of a range; Unbounded() means ±infinity.
type Bound struct {
	V         types.Value
	Inclusive bool
	Open      bool // true => unbounded
}

// Unbounded returns the ±infinity bound.
func Unbounded() Bound { return Bound{Open: true} }

// Incl returns an inclusive bound at v.
func Incl(v types.Value) Bound { return Bound{V: v, Inclusive: true} }

// Excl returns an exclusive bound at v.
func Excl(v types.Value) Bound { return Bound{V: v} }

func (b Bound) belowLo(key types.Value) bool { // key < lo?
	if b.Open {
		return false
	}
	c := key.Compare(b.V)
	if b.Inclusive {
		return c < 0
	}
	return c <= 0
}

func (b Bound) aboveHi(key types.Value) bool { // key > hi?
	if b.Open {
		return false
	}
	c := key.Compare(b.V)
	if b.Inclusive {
		return c > 0
	}
	return c >= 0
}

// Range visits items with lo <= key <= hi (subject to bound openness) in key
// order; fn returning false stops the scan.
func (t *Tree) Range(lo, hi Bound, fn func(key types.Value, it Item) bool) {
	rangeVisit(t.root, lo, hi, fn)
}

func rangeVisit(n *tnode, lo, hi Bound, fn func(types.Value, Item) bool) bool {
	if n == nil {
		return true
	}
	if !lo.belowLo(n.key) { // n.key >= lo: left subtree may contain matches
		if !rangeVisit(n.l, lo, hi, fn) {
			return false
		}
	}
	if !lo.belowLo(n.key) && !hi.aboveHi(n.key) {
		for _, it := range n.items {
			if !fn(n.key, it) {
				return false
			}
		}
	}
	if !hi.aboveHi(n.key) { // n.key <= hi: right subtree may contain matches
		if !rangeVisit(n.r, lo, hi, fn) {
			return false
		}
	}
	return true
}

// RangeAgg returns the item count and weight sum over keys in [lo, hi]
// (subject to bound openness) in O(log n) using the subtree aggregates.
func (t *Tree) RangeAgg(lo, hi Bound) (count int64, wsum float64) {
	return rangeAgg(t.root, lo, hi)
}

func rangeAgg(n *tnode, lo, hi Bound) (int64, float64) {
	if n == nil {
		return 0, 0
	}
	if lo.belowLo(n.key) { // entire left subtree and node below lo? no: node below lo
		return rangeAgg(n.r, lo, hi)
	}
	if hi.aboveHi(n.key) { // node above hi
		return rangeAgg(n.l, lo, hi)
	}
	// Node inside range: left subtree is bounded above by node (< hi), so only
	// lo can exclude on the left; symmetrically for the right.
	c, s := int64(len(n.items)), 0.0
	for _, it := range n.items {
		s += it.W
	}
	lc, ls := aggAboveLo(n.l, lo)
	rc, rs := aggBelowHi(n.r, hi)
	return c + lc + rc, s + ls + rs
}

// aggAboveLo aggregates items with key >= lo (openness respected).
func aggAboveLo(n *tnode, lo Bound) (int64, float64) {
	if n == nil {
		return 0, 0
	}
	if lo.Open {
		return n.cnt, n.sum
	}
	if lo.belowLo(n.key) {
		return aggAboveLo(n.r, lo)
	}
	c, s := int64(len(n.items)), 0.0
	for _, it := range n.items {
		s += it.W
	}
	lc, ls := aggAboveLo(n.l, lo)
	return c + lc + cnt(n.r), s + ls + sum(n.r)
}

// aggBelowHi aggregates items with key <= hi (openness respected).
func aggBelowHi(n *tnode, hi Bound) (int64, float64) {
	if n == nil {
		return 0, 0
	}
	if hi.Open {
		return n.cnt, n.sum
	}
	if hi.aboveHi(n.key) {
		return aggBelowHi(n.l, hi)
	}
	c, s := int64(len(n.items)), 0.0
	for _, it := range n.items {
		s += it.W
	}
	rc, rs := aggBelowHi(n.r, hi)
	return c + rc + cnt(n.l), s + rs + sum(n.l)
}

// Height exposes the tree height for balance tests.
func (t *Tree) Height() int { return int(height(t.root)) }
