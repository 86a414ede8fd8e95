// Package vec provides selection-vector kernels for batch-at-a-time
// execution over packed wire frames (PR 6). A selection vector is a sorted
// list of row indexes still alive in a frame; predicate kernels narrow it
// with branch-free compare loops over gathered column slices, and set
// kernels combine selections (AND/OR/NOT) by sorted merge. The row indexes
// come from a FrameView, which lazily decodes the frame's column-offset
// footer (wire.ParseFooter) into per-column offset and value slices.
//
// Comparison kernels reproduce the engine's boxed ordering exactly: floats
// compare through the same three-way-then-CmpHolds shape as
// types.Value.Compare, so NaN operands yield cmp==0 (Eq holds, Lt does not)
// on the vectorized path precisely as they do on the row path; the expr and
// ops frame differentials pin that agreement. The engine hands bolts rows,
// so these kernels serve the benchmark's frame replay.
package vec

// Sel is a selection vector: strictly increasing row indexes into one
// frame. Kernels write survivors into a caller-provided destination, which
// may alias the input (in-place narrowing is the common case).
type Sel []int32

// Op is a comparison operator. The values match expr.CmpOp one-to-one so
// the predicate compiler can cast directly.
type Op uint8

// Comparison operators, in expr.CmpOp order.
const (
	Eq Op = iota
	Ne
	Lt
	Le
	Gt
	Ge
)

// b2i compiles to a branchless SETcc on amd64/arm64 — the heart of every
// selection kernel: unconditionally store the row index, conditionally
// advance the output cursor.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// Grow returns s with capacity for at least n elements (length 0).
func Grow(s Sel, n int) Sel {
	if cap(s) < n {
		return make(Sel, 0, n)
	}
	return s[:0]
}

// All fills dst with the identity selection [0, n).
func All(n int, dst Sel) Sel {
	dst = Grow(dst, n)[:n]
	for i := range dst {
		dst[i] = int32(i)
	}
	return dst
}

// selCmp narrows in to the rows whose vals entry compares against c under
// op, writing survivors to dst (cap(dst) >= len(in); dst may alias in). The
// conditions are phrased in three-way-compare form — !(a<c || a>c) rather
// than a==c — so float NaN behaves exactly like the boxed cmpOrder path;
// for ints the forms are equivalent and compile to the plain comparisons.
func selCmp[T int64 | float64](vals []T, op Op, c T, in, dst Sel) Sel {
	dst = dst[:len(in)]
	k := 0
	switch op {
	case Eq:
		for _, r := range in {
			dst[k] = r
			a := vals[r]
			k += b2i(!(a < c || a > c))
		}
	case Ne:
		for _, r := range in {
			dst[k] = r
			a := vals[r]
			k += b2i(a < c || a > c)
		}
	case Lt:
		for _, r := range in {
			dst[k] = r
			k += b2i(vals[r] < c)
		}
	case Le:
		for _, r := range in {
			dst[k] = r
			k += b2i(!(vals[r] > c))
		}
	case Gt:
		for _, r := range in {
			dst[k] = r
			k += b2i(vals[r] > c)
		}
	case Ge:
		for _, r := range in {
			dst[k] = r
			k += b2i(!(vals[r] < c))
		}
	}
	return dst[:k]
}

// selCmpCols narrows in to the rows where a's entry compares against b's
// under op — the column-vs-column form.
func selCmpCols[T int64 | float64](a, b []T, op Op, in, dst Sel) Sel {
	dst = dst[:len(in)]
	k := 0
	switch op {
	case Eq:
		for _, r := range in {
			dst[k] = r
			x, y := a[r], b[r]
			k += b2i(!(x < y || x > y))
		}
	case Ne:
		for _, r := range in {
			dst[k] = r
			x, y := a[r], b[r]
			k += b2i(x < y || x > y)
		}
	case Lt:
		for _, r := range in {
			dst[k] = r
			k += b2i(a[r] < b[r])
		}
	case Le:
		for _, r := range in {
			dst[k] = r
			k += b2i(!(a[r] > b[r]))
		}
	case Gt:
		for _, r := range in {
			dst[k] = r
			k += b2i(a[r] > b[r])
		}
	case Ge:
		for _, r := range in {
			dst[k] = r
			k += b2i(!(a[r] < b[r]))
		}
	}
	return dst[:k]
}

// SelInt64 narrows in to rows where vals[r] OP c.
func SelInt64(vals []int64, op Op, c int64, in, dst Sel) Sel {
	return selCmp(vals, op, c, in, dst)
}

// SelFloat64 narrows in to rows where vals[r] OP c, under boxed NaN
// semantics (see selCmp).
func SelFloat64(vals []float64, op Op, c float64, in, dst Sel) Sel {
	return selCmp(vals, op, c, in, dst)
}

// SelInt64Cols narrows in to rows where a[r] OP b[r].
func SelInt64Cols(a, b []int64, op Op, in, dst Sel) Sel {
	return selCmpCols(a, b, op, in, dst)
}

// SelFloat64Cols narrows in to rows where a[r] OP b[r].
func SelFloat64Cols(a, b []float64, op Op, in, dst Sel) Sel {
	return selCmpCols(a, b, op, in, dst)
}

// Or unions two sorted selections into dst (cap(dst) >= len(a)+len(b); must
// not alias either input).
func Or(a, b, dst Sel) Sel {
	dst = dst[:len(a)+len(b)]
	k, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		av, bv := a[i], b[j]
		switch {
		case av == bv:
			dst[k] = av
			i++
			j++
		case av < bv:
			dst[k] = av
			i++
		default:
			dst[k] = bv
			j++
		}
		k++
	}
	for ; i < len(a); i++ {
		dst[k] = a[i]
		k++
	}
	for ; j < len(b); j++ {
		dst[k] = b[j]
		k++
	}
	return dst[:k]
}

// Diff writes a minus b (both sorted) into dst (cap(dst) >= len(a); may
// alias a) — how NOT is evaluated against an incoming selection: the rows of
// `in` that the inner predicate did not keep.
func Diff(a, b, dst Sel) Sel {
	dst = dst[:len(a)]
	k, j := 0, 0
	for _, av := range a {
		for j < len(b) && b[j] < av {
			j++
		}
		dst[k] = av
		k += b2i(j >= len(b) || b[j] != av)
	}
	return dst[:k]
}
