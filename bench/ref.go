package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"strconv"
	"strings"

	"squall/internal/types"
)

// Reference answers. Plain nested maps and slices, no engine code: the
// engine's output is judged against these, so they must not share its bugs.

// rowHash is an FNV-1a hash of one row's kinds and values. Floats are hashed
// as integer cents: the only float column any workload outputs is a sum of
// two-decimal prices, whose last bits depend on the order of addition.
func rowHash(t types.Tuple) uint64 {
	h := fnv.New64a()
	var b [9]byte
	for _, v := range t {
		b[0] = byte(v.KindV)
		switch v.KindV {
		case types.KindInt:
			binary.LittleEndian.PutUint64(b[1:], uint64(v.I))
			h.Write(b[:])
		case types.KindFloat:
			binary.LittleEndian.PutUint64(b[1:], uint64(math.Round(v.F*100)))
			h.Write(b[:])
		default:
			h.Write(b[:1])
			h.Write([]byte(v.Str))
			h.Write([]byte{0})
		}
	}
	return h.Sum64()
}

// bag is an order-independent summary of a multiset of rows.
type bag struct {
	rows int64
	sum  uint64 // wrapping sum of row hashes
}

func (b *bag) add(rowHash uint64) {
	b.rows++
	b.sum += rowHash
}

// refJoin computes R ⋈ S on column 0 with a hash table on R, passing each
// matching pair to emit; the result row is concat(r, s).
func refJoin(r, s []types.Tuple, emit func(r, s types.Tuple)) {
	byKey := make(map[int64][]types.Tuple, len(r))
	for _, t := range r {
		byKey[t[0].I] = append(byKey[t[0].I], t)
	}
	for _, st := range s {
		for _, rt := range byKey[st[0].I] {
			emit(rt, st)
		}
	}
}

func concat(r, s types.Tuple) types.Tuple {
	return append(append(make(types.Tuple, 0, len(r)+len(s)), r...), s...)
}

const (
	q3Segment = "BUILDING"
	q3Date    = "1995-03-15"
)

// q3SQL is the query text q3_agg compiles; refQ3 is the same query by hand.
const q3SQL = `SELECT ORDERS.orderkey, SUM(LINEITEM.extendedprice)
FROM CUSTOMER, ORDERS, LINEITEM
WHERE CUSTOMER.mktsegment = '` + q3Segment + `' AND ORDERS.orderdate < '` + q3Date + `'
  AND CUSTOMER.custkey = ORDERS.custkey AND ORDERS.orderkey = LINEITEM.orderkey
GROUP BY ORDERS.orderkey`

// refQ3 evaluates Q3 over the text lines: one (orderkey, sum) row per
// qualifying order that has at least one lineitem.
func refQ3(q *q3Lines) ([]types.Tuple, error) {
	building := make(map[string]bool)
	for _, l := range q.customer {
		f := strings.Split(l, "|")
		if f[1] == q3Segment {
			building[f[0]] = true
		}
	}
	keep := make(map[string]bool)
	for _, l := range q.orders {
		f := strings.Split(l, "|")
		if f[2] < q3Date && building[f[1]] {
			keep[f[0]] = true
		}
	}
	sums := make(map[string]float64)
	for _, l := range q.lineitem {
		f := strings.Split(l, "|")
		if !keep[f[0]] {
			continue
		}
		p, err := strconv.ParseFloat(f[3], 64)
		if err != nil {
			return nil, fmt.Errorf("reference Q3: %w", err)
		}
		sums[f[0]] += p
	}
	rows := make([]types.Tuple, 0, len(sums))
	for k, v := range sums {
		ok, err := strconv.ParseInt(k, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("reference Q3: %w", err)
		}
		rows = append(rows, types.Tuple{types.Int(ok), types.Float(v)})
	}
	return rows, nil
}

// sameBag reports whether two row sets are equal as multisets. Rows are
// compared through their hashes, so floats agree to the cent.
func sameBag(got, want []types.Tuple) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, reference has %d", len(got), len(want))
	}
	hashes := func(rows []types.Tuple) []uint64 {
		hs := make([]uint64, len(rows))
		for i, t := range rows {
			hs[i] = rowHash(t)
		}
		sort.Slice(hs, func(i, j int) bool { return hs[i] < hs[j] })
		return hs
	}
	g, w := hashes(got), hashes(want)
	for i := range g {
		if g[i] != w[i] {
			return fmt.Errorf("sorted row bags differ at position %d of %d", i, len(g))
		}
	}
	return nil
}
