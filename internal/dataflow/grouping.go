package dataflow

import (
	"math/rand"

	"squall/internal/types"
	"squall/internal/wire"
)

// Grouping decides, for each row crossing an edge, which tasks of the
// downstream component receive it. It is Storm's stream grouping (§2): hash
// ("fields"), shuffle, broadcast and custom groupings are provided; the
// hypercube partitioning schemes in internal/core implement this interface
// as custom groupings.
//
// RowTargets reads the row through cur, appends destination task indexes
// (in [0, ntasks)) to buf and returns it; implementations may be called
// concurrently from different producer tasks, but always with that task's
// private rng and buf.
type Grouping interface {
	RowTargets(cur *wire.Cursor, ntasks int, rng *rand.Rand, buf []int) []int
}

// RowGrouping is an alias of Grouping, kept because bench/replay.go asserts
// it; ROADMAP item 20 deletes the replay.
type RowGrouping = Grouping

// Shuffle distributes rows uniformly at random: the content-insensitive
// grouping, resilient to data and temporal skew (§5).
func Shuffle() Grouping { return shuffleGrouping{} }

type shuffleGrouping struct{}

func (shuffleGrouping) RowTargets(_ *wire.Cursor, ntasks int, rng *rand.Rand, buf []int) []int {
	return append(buf, rng.Intn(ntasks))
}

// Fields hashes the values at the given columns: the content-sensitive
// grouping used for equi-joins and group-bys on skew-free keys.
func Fields(cols ...int) Grouping { return fieldsGrouping{cols: cols} }

type fieldsGrouping struct{ cols []int }

// RowTargets hashes the encoded fields in place; wire.Cursor.Hash matches
// types.Tuple.Hash.
func (g fieldsGrouping) RowTargets(cur *wire.Cursor, ntasks int, _ *rand.Rand, buf []int) []int {
	return append(buf, int(cur.Hash(g.cols...)%uint64(ntasks)))
}

// Global routes everything to task 0 (final single-task aggregations).
func Global() Grouping { return globalGrouping{} }

type globalGrouping struct{}

func (globalGrouping) RowTargets(_ *wire.Cursor, _ int, _ *rand.Rand, buf []int) []int {
	return append(buf, 0)
}

// KeyMapped routes by an explicit key->task assignment built ahead of time.
// Squall uses this when the key domain is small and known (TPC-H Q4/Q5/Q12
// final aggregations): a round-robin assignment guarantees task loads differ
// by at most one key, fixing the hash-imperfection skew of §5. Keys not in
// the map fall back to hashing.
type KeyMapped struct {
	Cols []int
	M    map[string]int
}

// RoundRobinKeyMap assigns the given distinct keys to ntasks tasks round-
// robin; any two tasks receive key counts differing by at most one.
func RoundRobinKeyMap(keys []types.Tuple, cols []int, ntasks int) *KeyMapped {
	m := make(map[string]int, len(keys))
	for i, k := range keys {
		m[k.Key(cols...)] = i % ntasks
	}
	return &KeyMapped{Cols: cols, M: m}
}

// RowTargets looks up the precomputed assignment. The canonical key bytes
// come straight off the encoded row into a stack scratch and are looked up
// via the compiler's alloc-free map[string(bytes)] form (keys longer than
// the scratch spill and allocate, which round-robin key domains never do).
func (k *KeyMapped) RowTargets(cur *wire.Cursor, ntasks int, _ *rand.Rand, buf []int) []int {
	var scratch [64]byte
	key := cur.AppendKey(scratch[:0], k.Cols...)
	if task, ok := k.M[string(key)]; ok && task < ntasks {
		return append(buf, task)
	}
	return append(buf, int(cur.Hash(k.Cols...)%uint64(ntasks)))
}
