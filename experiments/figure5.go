package experiments

import (
	"time"

	"squall"
	"squall/internal/dataflow"
	"squall/internal/datagen"
	"squall/internal/expr"
	"squall/internal/ops"
	"squall/internal/types"
)

// Figure5Stage is one bar of Figure 5: a query-plan prefix whose runtime
// isolates one cost component (reading, int selection, date selection,
// network, join).
type Figure5Stage struct {
	Name string
	Run  func() (time.Duration, error)
}

// The Figure 5 selections: both keep every Orders row, so the stages differ
// only in what a selection costs.
var (
	selInt  = expr.Cmp{Op: expr.Ge, L: expr.C(1), R: expr.I(0)}                         // custkey >= 0
	selDate = expr.Cmp{Op: expr.Ge, L: expr.Date{Inner: expr.C(2)}, R: expr.I(-100000)} // parses orderdate
)

// Figure5Stages builds the five bars over Customer ⋈ Orders (§6):
//
//	ReadFile (RF)        — read + parse the Orders lines, no network cost
//	RF+sel(int)          — plus a no-op selection over an int field
//	RF+sel(date)         — plus a no-op selection parsing the date field
//	RF+sel(int),network  — int selection plus a serialized network hop
//	Full join            — Customer ⋈ Orders, hash partitioned, DBToaster
//
// The paper's findings to reproduce: sel(int) is ~1–2% of the run, sel(date)
// is ~10x sel(int) (Date instances are created from strings), the network
// hop dominates (~60%), and join computation is a small share (~14%).
//
// The stages run at BatchSize=1 — one-row batches, so every tuple is
// shipped, serialized and decoded on its own as in the figure (Storm ships
// tuples individually); Figure5StagesBatch is the batched-transport variant
// used by the PR 1 comparison harness.
func Figure5Stages(gen *datagen.TPCH, machines int, seed int64) []Figure5Stage {
	return Figure5StagesBatch(gen, machines, seed, 1)
}

// Figure5StagesBatch is Figure5Stages with an explicit transport batch size
// (0 = engine default). batchSize=1 ships one-row batches, the per-tuple
// baseline the PR 1 batching speedup is measured against.
func Figure5StagesBatch(gen *datagen.TPCH, machines int, seed int64, batchSize int) []Figure5Stage {
	readStage := func(name string, sel expr.Pred, serialize bool) Figure5Stage {
		return Figure5Stage{Name: name, Run: func() (time.Duration, error) {
			lines, err := gen.LineSpout("orders")
			if err != nil {
				return 0, err
			}
			pipe := ops.Pipeline{parseOp{datagen.OrdersSchema}}
			if sel != nil {
				pipe = append(pipe, ops.Select{P: sel})
			}
			count := func(int, int) dataflow.Bolt {
				n := 0
				return dataflow.FuncBolt{OnTuple: func(dataflow.Input, *dataflow.Collector) error {
					n++
					return nil
				}}
			}
			b := dataflow.NewBuilder().
				Spout("orders", machines, ops.PipedSpout(lines, pipe)).
				Bolt("sink", machines, count).
				Input("sink", "orders", dataflow.Shuffle())
			topo, err := b.Build()
			if err != nil {
				return 0, err
			}
			m, err := dataflow.Run(topo, dataflow.Options{Seed: seed, NoSerialize: !serialize, BatchSize: batchSize})
			if err != nil {
				return 0, err
			}
			return m.Elapsed, nil
		}}
	}

	fullJoin := Figure5Stage{Name: "Full join", Run: func() (time.Duration, error) {
		graph := expr.MustJoinGraph(2, expr.EquiCol(0, 0, 1, 1)) // C.custkey = O.custkey
		q := &squall.JoinQuery{
			Sources: []squall.Source{
				{Name: "CUSTOMER", Schema: datagen.CustomerSchema, Spout: lineParsedSpout(gen, "customer"), Size: gen.Customers()},
				{Name: "ORDERS", Schema: datagen.OrdersSchema, Spout: lineParsedSpout(gen, "orders"), Size: gen.Orders()},
			},
			Graph:    graph,
			Scheme:   squall.HashHypercube,
			Machines: machines,
			Local:    squall.DBToaster,
			Agg: &squall.AggSpec{
				GroupBy: nil,
				Kind:    squall.Count,
			},
		}
		// The figure decomposes the boxed pipeline's cost structure, and the
		// PR 1 batch experiment reuses this stage as its one-row-vs-batched
		// transport comparison: pin the boxed execution path so batchSize=1
		// keeps measuring per-tuple shipping of boxed tuples (the packed path
		// has its own experiment, `squallbench exec`).
		res, err := q.Run(squall.Options{Seed: seed, SourcePar: machines, BatchSize: batchSize, PackedExec: squall.PackedOff})
		if err != nil {
			return 0, err
		}
		return res.Metrics.Elapsed, nil
	}}

	return []Figure5Stage{
		readStage("ReadFile (RF)", nil, false),
		readStage("RF+sel(int)", selInt, false),
		readStage("RF+sel(date)", selDate, false),
		readStage("RF+sel(int),network", selInt, true),
		fullJoin,
	}
}

// parseOp converts a raw text line into a typed tuple (the cost of reading a
// .tbl file row).
type parseOp struct{ schema *types.Schema }

// Apply parses the line in column 0.
func (p parseOp) Apply(t types.Tuple) ([]types.Tuple, error) {
	parsed, err := types.ParseLine(p.schema, t[0].Str, '|')
	if err != nil {
		return nil, err
	}
	return []types.Tuple{parsed}, nil
}

// ApplyOne parses the line in column 0 without allocating a result slice.
func (p parseOp) ApplyOne(t types.Tuple) (types.Tuple, bool, error) {
	parsed, err := types.ParseLine(p.schema, t[0].Str, '|')
	if err != nil {
		return nil, false, err
	}
	return parsed, true, nil
}

// lineParsedSpout streams a table through the text-line + parse path, so the
// full-join stage pays the same read cost as the RF stages.
func lineParsedSpout(gen *datagen.TPCH, table string) dataflow.SpoutFactory {
	lines, err := gen.LineSpout(table)
	if err != nil {
		panic(err)
	}
	var schema *types.Schema
	switch table {
	case "customer":
		schema = datagen.CustomerSchema
	case "orders":
		schema = datagen.OrdersSchema
	default:
		schema = datagen.LineitemSchema
	}
	return ops.PipedSpout(lines, ops.Pipeline{parseOp{schema}})
}
