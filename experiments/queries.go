// Package experiments defines the paper's evaluation workloads (§6, §7) as
// reusable query builders. The paper benchmarks (bench_test.go) and the
// shape tests here both run these definitions, so every reported number is
// regenerated from a single source of truth.
package experiments

import (
	"fmt"
	"math/rand"

	"squall"
	"squall/internal/dataflow"
	"squall/internal/datagen"
	"squall/internal/expr"
	"squall/internal/ops"
	"squall/internal/types"
)

// slot is shorthand for a column key slot.
func slot(rel, col int) squall.KeySlot {
	return squall.KeySlot{Rel: rel, Expr: expr.C(col).String()}
}

// Section31Query builds the paper's §3.1 running example R(x,y) ⋈ S(y,z) ⋈
// T(z,t) with equal relation sizes h and zipfian z in S and T (top key
// holding half the mass, Figure 2c's "0.5H"). It is used analytically (via
// BuildScheme) to regenerate the worked example's load numbers; the spouts
// generate a small consistent sample for runnable demos.
func Section31Query(scheme squall.SchemeKind, h int64) *squall.JoinQuery {
	graph := expr.MustJoinGraph(3,
		expr.EquiCol(0, 1, 1, 0), // R.y = S.y
		expr.EquiCol(1, 1, 2, 0), // S.z = T.z
	)
	schema := func(name string) *types.Schema {
		return types.NewSchema(name,
			types.Column{Name: "a", Kind: types.KindInt},
			types.Column{Name: "b", Kind: types.KindInt})
	}
	const sample = 300
	zipf := datagen.NewZipf(50, 2.4) // ≈half the mass on the top key
	mk := func(stream string, zipfCol int) dataflow.SpoutFactory {
		return dataflow.GenSpout(sample, func(i int) types.Tuple {
			r := rand.New(rand.NewSource(int64(i)*7919 + int64(len(stream))*104729))
			t := types.Tuple{types.Int(r.Int63n(40)), types.Int(r.Int63n(40))}
			if zipfCol >= 0 {
				t[zipfCol] = types.Int(zipf.RankFrom(r.Float64()))
			}
			return t
		})
	}
	return &squall.JoinQuery{
		Sources: []squall.Source{
			{Name: "R", Schema: schema("R"), Spout: mk("R", -1), Size: h},
			{Name: "S", Schema: schema("S"), Spout: mk("S", 1), Size: h},
			{Name: "T", Schema: schema("T"), Spout: mk("T", 0), Size: h},
		},
		Graph:    graph,
		Scheme:   scheme,
		Machines: 64,
		Local:    squall.DBToaster,
		Skewed: map[squall.KeySlot]bool{
			slot(1, 1): true, // S.z
			slot(2, 0): true, // T.z
		},
		TopFreq: map[squall.KeySlot]float64{
			slot(1, 1): 0.5,
			slot(2, 0): 0.5,
		},
		Agg: &squall.AggSpec{Kind: squall.Count},
	}
}

// TPCH9Partial builds the §7.3 query Lineitem ⋈ PartSupp ⋈ Part (the Q9
// subquery) with the green-part filter (≈5% of Part). With zipf skew the
// Hybrid scheme marks L.Partkey skewed, as the offline chooser would.
// Aggregation: SUM(extendedprice) GROUP BY L.suppkey.
func TPCH9Partial(gen *datagen.TPCH, scheme squall.SchemeKind, local squall.LocalJoinKind, machines int) *squall.JoinQuery {
	graph := expr.MustJoinGraph(3,
		expr.EquiCol(0, 1, 1, 0), // L.partkey = PS.partkey
		expr.EquiCol(0, 2, 1, 1), // L.suppkey = PS.suppkey
		expr.EquiCol(0, 1, 2, 0), // L.partkey = P.partkey
	)
	green := ops.Pipeline{ops.Select{P: expr.Cmp{Op: expr.Eq, L: expr.C(1), R: expr.S("green")}}}
	q := &squall.JoinQuery{
		Sources: []squall.Source{
			{Name: "LINEITEM", Schema: datagen.LineitemSchema, Spout: gen.LineitemSpout(), Size: gen.Lineitems},
			{Name: "PARTSUPP", Schema: datagen.PartSuppSchema, Spout: gen.PartSuppSpout(), Size: gen.PartSupps()},
			{Name: "PART", Schema: datagen.PartSchema, Spout: gen.PartSpout(),
				Size: gen.Parts() / int64(len(datagen.PartColors)), Pre: green},
		},
		Graph:    graph,
		Scheme:   scheme,
		Machines: machines,
		Local:    local,
		Agg: &squall.AggSpec{
			GroupBy: []squall.ColRef{{Rel: 0, E: expr.C(2)}}, // L.suppkey
			Kind:    squall.Sum,
			Sum:     &squall.ColRef{Rel: 0, E: expr.C(4)}, // L.extendedprice
		},
	}
	if gen.ZipfS > 0 {
		q.Skewed = map[squall.KeySlot]bool{slot(0, 1): true}
		q.TopFreq = map[squall.KeySlot]float64{slot(0, 1): gen.TopPartkeyFreq()}
	}
	return q
}

// Q3 builds TPC-H Q3 (without LIMIT/ORDER BY, which Squall does not
// support): Customer ⋈ Orders ⋈ Lineitem with the BUILDING-segment and
// order-date filters, SUM(extendedprice) GROUP BY O.orderkey. With zipf
// skew, Orders.custkey is the heavy key and the Hybrid scheme randomizes it.
func Q3(gen *datagen.TPCH, scheme squall.SchemeKind, local squall.LocalJoinKind, machines int) *squall.JoinQuery {
	graph := expr.MustJoinGraph(3,
		expr.EquiCol(0, 0, 1, 1), // C.custkey = O.custkey
		expr.EquiCol(1, 0, 2, 0), // O.orderkey = L.orderkey
	)
	building := ops.Pipeline{ops.Select{P: expr.Cmp{Op: expr.Eq, L: expr.C(1), R: expr.S("BUILDING")}}}
	beforeDate := ops.Pipeline{ops.Select{P: expr.Cmp{Op: expr.Lt, L: expr.C(2), R: expr.S("1995-03-15")}}}
	q := &squall.JoinQuery{
		Sources: []squall.Source{
			{Name: "CUSTOMER", Schema: datagen.CustomerSchema, Spout: gen.CustomerSpout(),
				Size: gen.Customers() / 5, Pre: building},
			{Name: "ORDERS", Schema: datagen.OrdersSchema, Spout: gen.OrdersSpout(),
				Size: gen.Orders() / 2, Pre: beforeDate},
			{Name: "LINEITEM", Schema: datagen.LineitemSchema, Spout: gen.LineitemSpout(), Size: gen.Lineitems},
		},
		Graph:    graph,
		Scheme:   scheme,
		Machines: machines,
		Local:    local,
		Agg: &squall.AggSpec{
			GroupBy: []squall.ColRef{{Rel: 1, E: expr.C(0)}}, // O.orderkey
			Kind:    squall.Sum,
			Sum:     &squall.ColRef{Rel: 2, E: expr.C(4)}, // L.extendedprice
		},
	}
	if gen.ZipfS > 0 {
		q.Skewed = map[squall.KeySlot]bool{slot(1, 1): true} // O.custkey
		q.TopFreq = map[squall.KeySlot]float64{slot(1, 1): gen.TopCustkeyFreq()}
	}
	return q
}

// GoogleTaskCount builds the §7.4 query over the Google trace: COUNT(*) of
// FAIL task events per (machineID, platform), joining JOB_EVENTS ⋈
// TASK_EVENTS on jobID and TASK_EVENTS ⋈ MACHINE_EVENTS on machineID.
func GoogleTaskCount(gen *datagen.GoogleTrace, scheme squall.SchemeKind, local squall.LocalJoinKind, machines int) *squall.JoinQuery {
	graph := expr.MustJoinGraph(3,
		expr.EquiCol(0, 0, 1, 0), // JE.jobid = TE.jobid
		expr.EquiCol(1, 1, 2, 0), // TE.machineid = ME.machineid
	)
	failOnly := ops.Pipeline{ops.Select{P: expr.Cmp{Op: expr.Eq, L: expr.C(2), R: expr.I(datagen.EventFail)}}}
	return &squall.JoinQuery{
		Sources: []squall.Source{
			{Name: "JOB_EVENTS", Schema: datagen.JobEventsSchema, Spout: gen.JobEventsSpout(), Size: gen.JobEvents()},
			{Name: "TASK_EVENTS", Schema: datagen.TaskEventsSchema, Spout: gen.TaskEventsSpout(),
				Size: gen.TaskEvents * 12 / 100, Pre: failOnly},
			{Name: "MACHINE_EVENTS", Schema: datagen.MachineEventsSchema, Spout: gen.MachineEventsSpout(), Size: gen.MachineEvents()},
		},
		Graph:    graph,
		Scheme:   scheme,
		Machines: machines,
		Local:    local,
		Agg: &squall.AggSpec{
			GroupBy: []squall.ColRef{
				{Rel: 2, E: expr.C(0)}, // machineID
				{Rel: 2, E: expr.C(1)}, // platform
			},
			Kind: squall.Count,
		},
	}
}

// WebAnalyticsConfig sizes the §7.3 WebAnalytics workload. InS skews
// in-degree (W1 = links into the hub), OutS skews out-degree (W2 = links
// leaving the hub; the paper's W2 is 3.8x W1).
type WebAnalyticsConfig struct {
	Seed  uint64
	Hosts int64
	Arcs  int64
	InS   float64
	OutS  float64
}

// WebAnalytics builds the §7.3 query: 2-hop paths through the hub joined
// with CrawlContent — W1(ToUrl=hub) ⋈ W2(FromUrl=hub) on ToUrl=FromUrl and
// W1.FromUrl = C.Url; COUNT GROUP BY W1.FromUrl, C.Score. The join key
// between W1 and W2 has a single distinct value after the selections, the
// extreme skew case; C.Url is a primary key (skew-free), so the Hybrid
// scheme hash-partitions it and randomizes only the hub key.
func WebAnalytics(cfg WebAnalyticsConfig, scheme squall.SchemeKind, local squall.LocalJoinKind, machines int) *squall.JoinQuery {
	w := datagen.NewWebGraphBi(cfg.Seed, cfg.Hosts, cfg.Arcs, cfg.InS, cfg.OutS)
	c := &datagen.CrawlContent{Seed: cfg.Seed + 1, Hosts: cfg.Hosts}
	hub := expr.S(datagen.HubName)
	toHub := ops.Pipeline{ops.Select{P: expr.Cmp{Op: expr.Eq, L: expr.C(1), R: hub}}}
	fromHub := ops.Pipeline{ops.Select{P: expr.Cmp{Op: expr.Eq, L: expr.C(0), R: hub}}}
	graph := expr.MustJoinGraph(3,
		expr.EquiCol(0, 1, 1, 0), // W1.ToUrl = W2.FromUrl
		expr.EquiCol(0, 0, 2, 0), // W1.FromUrl = C.Url
	)
	// Post-selection size estimates, as the paper reports them.
	w1Size := max(int64(float64(cfg.Arcs)*w.HubInFreq()), 1)
	w2Size := max(int64(float64(cfg.Arcs)*w.HubOutFreq()), 1)
	return &squall.JoinQuery{
		Sources: []squall.Source{
			{Name: "W1", Schema: datagen.WebGraphSchema, Spout: w.Spout(), Size: w1Size, Pre: toHub},
			{Name: "W2", Schema: datagen.WebGraphSchema, Spout: w.Spout(), Size: w2Size, Pre: fromHub},
			{Name: "C", Schema: datagen.CrawlContentSchema, Spout: c.Spout(), Size: cfg.Hosts},
		},
		Graph:    graph,
		Scheme:   scheme,
		Machines: machines,
		Local:    local,
		Skewed: map[squall.KeySlot]bool{
			slot(0, 1): true, // W1.ToUrl: one distinct value
			slot(1, 0): true, // W2.FromUrl: one distinct value
		},
		TopFreq: map[squall.KeySlot]float64{slot(0, 1): 1, slot(1, 0): 1},
		Agg: &squall.AggSpec{
			GroupBy: []squall.ColRef{
				{Rel: 0, E: expr.C(0)}, // W1.FromUrl
				{Rel: 2, E: expr.C(1)}, // C.Score
			},
			Kind: squall.Count,
		},
	}
}

// Reachability3 builds the §7.2 3-step reachability query as a single
// multi-way join: W1 ⋈ W2 ⋈ W3 (self-joins of the WebGraph sample) with
// COUNT GROUP BY W1.FromUrl. On the uniform sample, Hash- and
// Hybrid-Hypercube produce the same partitioning.
func Reachability3(w *datagen.WebGraph, scheme squall.SchemeKind, local squall.LocalJoinKind, machines int) *squall.JoinQuery {
	graph := expr.MustJoinGraph(3,
		expr.EquiCol(0, 1, 1, 0), // W1.ToUrl = W2.FromUrl
		expr.EquiCol(1, 1, 2, 0), // W2.ToUrl = W3.FromUrl
	)
	return &squall.JoinQuery{
		Sources: []squall.Source{
			{Name: "W1", Schema: datagen.WebGraphSchema, Spout: w.Spout(), Size: w.Arcs},
			{Name: "W2", Schema: datagen.WebGraphSchema, Spout: w.Spout(), Size: w.Arcs},
			{Name: "W3", Schema: datagen.WebGraphSchema, Spout: w.Spout(), Size: w.Arcs},
		},
		Graph:    graph,
		Scheme:   scheme,
		Machines: machines,
		Local:    local,
		Agg: &squall.AggSpec{
			GroupBy: []squall.ColRef{{Rel: 0, E: expr.C(0)}},
			Kind:    squall.Count,
		},
	}
}

// PipelineResult reports a pipeline-of-2-way-joins run (§7.2's baseline).
type PipelineResult struct {
	Rows      []types.Tuple
	RowCount  int64
	Metrics   *dataflow.RunMetrics
	TotalSent int64
}

// Reachability3Pipeline runs the same 3-reachability query as a pipeline of
// two 2-way hash joins: W1 ⋈ W2 shuffles its (large) intermediate result to
// the second join with W3 — the network cost a multi-way join avoids. The
// machine budget is split evenly between the two join components.
func Reachability3Pipeline(w *datagen.WebGraph, machines int, seed int64) (*PipelineResult, error) {
	if machines < 2 {
		return nil, fmt.Errorf("experiments: pipeline needs >= 2 machines")
	}
	j1Par, j2Par := machines/2, machines-machines/2
	// Stage 1: W1 ⋈ W2 on W1.ToUrl = W2.FromUrl, hash partitioned.
	g1 := expr.MustJoinGraph(2, expr.EquiCol(0, 1, 1, 0))
	// Stage 2: (W1W2) ⋈ W3 on W2.ToUrl = W3.FromUrl. The intermediate row is
	// (W1.From, W1.To, W2.From, W2.To); W2.ToUrl is column 3.
	g2 := expr.MustJoinGraph(2, expr.EquiCol(0, 3, 1, 0))
	// Each stage is a 2-way graph with no intermediate view to keep, so both
	// run the Traditional index policy, as a planned 2-way join would.

	agg := &limitAgg{}
	b := dataflow.NewBuilder().
		Spout("W1", 1, ops.PackedSpout(w.Spout(), nil)).
		Spout("W2", 1, ops.PackedSpout(w.Spout(), nil)).
		Spout("W3", 1, ops.PackedSpout(w.Spout(), nil)).
		Bolt("join1", j1Par, ops.JoinBolt(g1, false, map[string]int{"W1": 0, "W2": 1}, nil, nil)).
		Bolt("join2", j2Par, ops.JoinBolt(g2, false, map[string]int{"join1": 0, "W3": 1}, nil, nil)).
		Bolt("agg", 1, agg.factory()).
		Input("join1", "W1", dataflow.Fields(1)).
		Input("join1", "W2", dataflow.Fields(0)).
		Input("join2", "join1", dataflow.Fields(3)).
		Input("join2", "W3", dataflow.Fields(0)).
		Input("agg", "join2", dataflow.Global())
	topo, err := b.Build()
	if err != nil {
		return nil, err
	}
	m, err := dataflow.Run(topo, dataflow.Options{Seed: seed})
	if err != nil {
		return nil, err
	}
	return &PipelineResult{
		Rows:      agg.rows(),
		RowCount:  agg.count,
		Metrics:   m,
		TotalSent: m.TotalSent(),
	}, nil
}

// limitAgg counts 3-reachability results per W1.FromUrl (column 0 of the
// final concatenated row).
type limitAgg struct {
	agg   *ops.Agg
	count int64
}

func (l *limitAgg) factory() dataflow.BoltFactory {
	return func(task, ntasks int) dataflow.Bolt {
		l.agg = ops.NewAgg([]expr.Expr{expr.C(0)}, ops.Count, nil, false)
		l.agg.PackedCapable() // lowers column 0 for FoldRow
		return l
	}
}

// ExecuteRow folds one final row off its cursor.
func (l *limitAgg) ExecuteRow(in dataflow.RowInput, _ *dataflow.Collector) error {
	l.count++
	return l.agg.FoldRow(in.Cur)
}

func (l *limitAgg) Finish(*dataflow.Collector) error { return nil }

func (l *limitAgg) rows() []types.Tuple {
	if l.agg == nil {
		return nil
	}
	return l.agg.Rows()
}
