package main

import (
	"math/rand"
	"sort"
	"strconv"

	"squall/internal/types"
)

// Input generation. Everything here runs during set-up: the inputs of one
// workload are a pure function of (seed, size), materialised in memory, and
// the timed runs only replay slices.

// joinFanout is the number of matches each tuple finds on the other side of
// the 2-way join workloads: keys are uniform over n/joinFanout, so R ⋈ S has
// about joinFanout*n rows — two result rows per input tuple.
const joinFanout = 4

var joinSchema = types.NewSchema("rel",
	types.Column{Name: "key", Kind: types.KindInt},
	types.Column{Name: "val", Kind: types.KindInt},
	types.Column{Name: "tag", Kind: types.KindString},
)

// genJoin makes the two relations of the join_* workloads: narrow pre-parsed
// tuples (int key, int value, short string) with uniform keys.
func genJoin(seed int64, n int) (r, s []types.Tuple) {
	domain := int64(max(n/joinFanout, 1))
	mk := func(stream int64, tag string) []types.Tuple {
		rng := rand.New(rand.NewSource(seed*2 + stream))
		rows := make([]types.Tuple, n)
		for i := range rows {
			rows[i] = types.Tuple{
				types.Int(rng.Int63n(domain)),
				types.Int(int64(i)),
				types.Str(tag + strconv.Itoa(100000+rng.Intn(900000))),
			}
		}
		return rows
	}
	return mk(0, "r"), mk(1, "s")
}

// TPC-H Q3 inputs, as the pipe-separated text a .tbl reader would see.
var (
	customerSchema = types.NewSchema("customer",
		types.Column{Name: "custkey", Kind: types.KindInt},
		types.Column{Name: "mktsegment", Kind: types.KindString},
		types.Column{Name: "nationkey", Kind: types.KindInt},
	)
	ordersSchema = types.NewSchema("orders",
		types.Column{Name: "orderkey", Kind: types.KindInt},
		types.Column{Name: "custkey", Kind: types.KindInt},
		types.Column{Name: "orderdate", Kind: types.KindString},
		types.Column{Name: "shippriority", Kind: types.KindInt},
		types.Column{Name: "totalprice", Kind: types.KindFloat},
	)
	lineitemSchema = types.NewSchema("lineitem",
		types.Column{Name: "orderkey", Kind: types.KindInt},
		types.Column{Name: "partkey", Kind: types.KindInt},
		types.Column{Name: "quantity", Kind: types.KindInt},
		types.Column{Name: "extendedprice", Kind: types.KindFloat},
		types.Column{Name: "shipdate", Kind: types.KindString},
	)
	segments = []string{"BUILDING", "AUTOMOBILE", "MACHINERY", "HOUSEHOLD", "FURNITURE"}
)

// q3Lines holds the three Q3 tables as text lines. Row counts follow the
// TPC-H ratios: 4 lineitems per order, 10 orders per customer.
type q3Lines struct {
	customer, orders, lineitem []string
	// topCustFreq is the generated frequency of the hottest Orders.custkey,
	// the number a sampler would hand the Hybrid-Hypercube.
	topCustFreq float64
}

// day renders day 0..2399 of a 12x28-day calendar starting 1992-01-01, so
// string order is date order and every date parses.
func day(d int) string {
	y, m, dd := 1992+d/336, d%336/28+1, d%28+1
	b := []byte("0000-00-00")
	b[0], b[1], b[2], b[3] = byte('0'+y/1000), byte('0'+y/100%10), byte('0'+y/10%10), byte('0'+y%10)
	b[5], b[6] = byte('0'+m/10), byte('0'+m%10)
	b[8], b[9] = byte('0'+dd/10), byte('0'+dd%10)
	return string(b)
}

// zipfCDF is the cumulative distribution of the zipf law with exponent 1
// over ranks 1..n (math/rand's Zipf needs an exponent above 1).
func zipfCDF(n int) []float64 {
	cdf := make([]float64, n)
	sum := 0.0
	for i := range cdf {
		sum += 1 / float64(i+1)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return cdf
}

func genQ3(seed int64, lineitems int) *q3Lines {
	rng := rand.New(rand.NewSource(seed))
	nOrders := max(lineitems/4, 1)
	nCust := max(lineitems/40, 1)
	q := &q3Lines{
		customer: make([]string, nCust),
		orders:   make([]string, nOrders),
		lineitem: make([]string, lineitems),
	}
	var b []byte
	sep := func() { b = append(b, '|') }
	for i := range q.customer {
		b = strconv.AppendInt(b[:0], int64(i+1), 10)
		sep()
		// Segments cycle with the key rather than being drawn, so the share of
		// orders whose customer qualifies — zipf makes the first few customers
		// a large part of all orders — does not swing with the seed.
		b = append(b, segments[i%len(segments)]...)
		sep()
		b = strconv.AppendInt(b, int64(rng.Intn(25)), 10)
		q.customer[i] = string(b)
	}
	cdf := zipfCDF(nCust)
	q.topCustFreq = cdf[0]
	for i := range q.orders {
		b = strconv.AppendInt(b[:0], int64(i+1), 10)
		sep()
		b = strconv.AppendInt(b, int64(sort.SearchFloat64s(cdf, rng.Float64())+1), 10)
		sep()
		b = append(b, day(rng.Intn(2400))...)
		sep()
		b = strconv.AppendInt(b, int64(rng.Intn(5)), 10)
		sep()
		b = strconv.AppendFloat(b, float64(rng.Intn(500000))/100, 'f', 2, 64)
		q.orders[i] = string(b)
	}
	for i := range q.lineitem {
		b = strconv.AppendInt(b[:0], int64(rng.Intn(nOrders)+1), 10)
		sep()
		b = strconv.AppendInt(b, int64(rng.Intn(lineitems/30+1)+1), 10)
		sep()
		b = strconv.AppendInt(b, int64(rng.Intn(50)+1), 10)
		sep()
		b = strconv.AppendFloat(b, float64(rng.Intn(100000))/100, 'f', 2, 64)
		sep()
		b = append(b, day(rng.Intn(2400))...)
		q.lineitem[i] = string(b)
	}
	return q
}

// Paced inputs (serve_paced). Column 1 is the tuple's scheduled emission
// time in ns since the start of the run: the paced spout holds the tuple
// until then, and result latency is measured from it, so a stalled engine is
// charged the backlog it caused.
var pacedSchema = types.NewSchema("paced",
	types.Column{Name: "key", Kind: types.KindInt},
	types.Column{Name: "due", Kind: types.KindInt},
	types.Column{Name: "val", Kind: types.KindInt},
	types.Column{Name: "tag", Kind: types.KindString},
)

const (
	pacedDueCol = 1
	pacedValCol = 2
	// pacedTrail is how many keys S runs behind R (a quarter of the input when
	// that is smaller): S's tuple i carries the key R emitted that many tuples
	// earlier, so every S tuple finds exactly one stored R tuple and is the
	// later of the row's two contributing events.
	pacedTrail = 512
)

// genPaced makes n tuples per relation, each relation emitting one tuple
// every periodNS. R's val is uniform in [0,100): the registered queries
// select val < 100, 50, 25, 10.
func genPaced(seed int64, n int, periodNS int64) (r, s []types.Tuple) {
	rng := rand.New(rand.NewSource(seed))
	trail := min(pacedTrail, n/4)
	r = make([]types.Tuple, n)
	s = make([]types.Tuple, n)
	for i := range r {
		due := types.Int(int64(i) * periodNS)
		r[i] = types.Tuple{types.Int(int64(i)), due, types.Int(int64(rng.Intn(100))), types.Str("r" + strconv.Itoa(100000+rng.Intn(900000)))}
		s[i] = types.Tuple{types.Int(int64(i - trail)), due, types.Int(int64(i)), types.Str("s" + strconv.Itoa(100000+rng.Intn(900000)))}
	}
	return r, s
}
