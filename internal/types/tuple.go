package types

import "strings"

// Tuple is a row of values. Tuples flowing through the dataflow engine are
// treated as immutable: an operator that wants to change a tuple must copy it
// first (see Clone), because a tuple emitted to several downstream tasks is
// shared between goroutines.
type Tuple []Value

// Clone returns a deep-enough copy of the tuple (values are immutable, so a
// shallow slice copy suffices).
func (t Tuple) Clone() Tuple {
	c := make(Tuple, len(t))
	copy(c, t)
	return c
}

// Hash combines the hashes of the values at cols; with no cols it hashes the
// whole tuple. Order-sensitive.
func (t Tuple) Hash(cols ...int) uint64 {
	const prime64 = 1099511628211
	h := uint64(14695981039346656037)
	mix := func(v Value) {
		h ^= v.Hash()
		h *= prime64
	}
	if len(cols) == 0 {
		for _, v := range t {
			mix(v)
		}
		return h
	}
	for _, c := range cols {
		mix(t[c])
	}
	return h
}

// AppendKey appends the canonical key bytes of the values at cols (all
// values when cols is empty) to buf and returns the extended slice. Hot
// paths probe maps with `m[string(t.AppendKey(scratch[:0]))]` — the compiler
// elides that conversion's allocation — and only materialize an owned string
// (Key) when inserting.
func (t Tuple) AppendKey(buf []byte, cols ...int) []byte {
	if len(cols) == 0 {
		for _, v := range t {
			buf = v.AppendKey(buf)
		}
		return buf
	}
	for _, c := range cols {
		buf = t[c].AppendKey(buf)
	}
	return buf
}

// Key renders the values at cols as a canonical string key usable as a map
// key. With no cols it keys the whole tuple.
func (t Tuple) Key(cols ...int) string {
	n := len(cols)
	if n == 0 {
		n = len(t)
	}
	return string(t.AppendKey(make([]byte, 0, 16*n), cols...))
}

// Compare orders tuples lexicographically (shorter tuple sorts first on tie).
func (t Tuple) Compare(o Tuple) int {
	n := len(t)
	if len(o) < n {
		n = len(o)
	}
	for i := 0; i < n; i++ {
		if c := t[i].Compare(o[i]); c != 0 {
			return c
		}
	}
	switch {
	case len(t) < len(o):
		return -1
	case len(t) > len(o):
		return 1
	default:
		return 0
	}
}

// MemSize approximates the tuple's in-memory footprint in bytes.
func (t Tuple) MemSize() int {
	n := 24 // slice header
	for _, v := range t {
		n += v.MemSize()
	}
	return n
}

// String renders the tuple as (v1, v2, ...).
func (t Tuple) String() string {
	parts := make([]string, len(t))
	for i, v := range t {
		parts[i] = v.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// Schema names and types the columns of a relation or stream.
type Schema struct {
	Name    string   // relation or component name
	Columns []Column // ordered column definitions
}

// Column is one named, typed column of a Schema.
type Column struct {
	Name string
	Kind Kind
}

// NewSchema builds a schema from alternating name/kind pairs.
func NewSchema(name string, cols ...Column) *Schema {
	return &Schema{Name: name, Columns: cols}
}

// Col finds a column index by name; the bool reports whether it exists.
// Both bare ("custkey") and qualified ("customer.custkey") lookups work.
func (s *Schema) Col(name string) (int, bool) {
	lower := strings.ToLower(name)
	for i, c := range s.Columns {
		cn := strings.ToLower(c.Name)
		if cn == lower {
			return i, true
		}
		if s.Name != "" && strings.ToLower(s.Name)+"."+cn == lower {
			return i, true
		}
	}
	return 0, false
}

// Arity returns the number of columns.
func (s *Schema) Arity() int { return len(s.Columns) }
