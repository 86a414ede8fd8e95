package experiments

import (
	"fmt"
	"sync"
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
//	ReadFile (RF)        — read + parse the Orders lines, source alone
//	RF+sel(int)          — plus a no-op selection over an int field
//	RF+sel(date)         — plus a no-op selection parsing the date field
//	RF+sel(int),network  — int selection plus a serialized network hop
//	Full join            — Customer ⋈ Orders, hash partitioned, DBToaster
//
// The three ReadFile stages time the source alone: machines goroutines, each
// draining its own spout + selection instance and counting rows, with no
// topology and so no encode, hop or decode. The network stage runs the same
// source through the engine, which encodes each row once, ships it in a
// frame and decodes it at the sink.
//
// The paper's findings to reproduce: sel(int) is ~1–2% of the run, sel(date)
// is ~10x sel(int) (Date instances are created from strings), the network
// hop dominates (~60%), and join computation is a small share (~14%).
//
// The engine stages run at BatchSize=1 — one-row frames, so every tuple is
// shipped, serialized and decoded on its own as in the figure (Storm ships
// tuples individually); Figure5StagesBatch is the batched-transport variant
// BenchmarkFigure5_Bottleneck compares it against.
func Figure5Stages(gen *datagen.TPCH, machines int, seed int64) []Figure5Stage {
	return Figure5StagesBatch(gen, machines, seed, 1)
}

// Figure5StagesBatch is Figure5Stages with an explicit transport batch size
// (0 = engine default). batchSize=1 ships one-row batches, the per-tuple
// baseline the PR 1 batching speedup is measured against.
func Figure5StagesBatch(gen *datagen.TPCH, machines int, seed int64, batchSize int) []Figure5Stage {
	source := func(sel expr.Pred) (dataflow.SpoutFactory, error) {
		lines, err := gen.LineSpout("orders")
		if err != nil {
			return nil, err
		}
		pipe := ops.Pipeline{parseOp{datagen.OrdersSchema}}
		if sel != nil {
			pipe = append(pipe, ops.Select{P: sel})
		}
		return pipedSpout(lines, pipe), nil
	}
	readStage := func(name string, sel expr.Pred) Figure5Stage {
		return Figure5Stage{Name: name, Run: func() (time.Duration, error) {
			src, err := source(sel)
			if err != nil {
				return 0, err
			}
			start := time.Now()
			var wg sync.WaitGroup
			rows := make([]int, machines)
			for task := range rows {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for sp := src(task, machines); ; rows[task]++ {
						if _, ok := sp.Next(); !ok {
							return
						}
					}
				}()
			}
			wg.Wait()
			elapsed := time.Since(start)
			total := 0
			for _, n := range rows {
				total += n
			}
			if int64(total) != gen.Orders() {
				return 0, fmt.Errorf("experiments: %s read %d of %d orders", name, total, gen.Orders())
			}
			return elapsed, nil
		}}
	}
	networkStage := Figure5Stage{Name: "RF+sel(int),network", Run: func() (time.Duration, error) {
		src, err := source(selInt)
		if err != nil {
			return 0, err
		}
		topo, err := dataflow.NewBuilder().
			Spout("orders", machines, ops.PackedSpout(src, nil)).
			Bolt("sink", machines, func(int, int) dataflow.Bolt { return &decodeBolt{} }).
			Input("sink", "orders", dataflow.Shuffle()).
			Build()
		if err != nil {
			return 0, err
		}
		m, err := dataflow.Run(topo, dataflow.Options{Seed: seed, BatchSize: batchSize})
		if err != nil {
			return 0, err
		}
		return m.Elapsed, nil
	}}

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
		res, err := q.Run(squall.Options{Seed: seed, SourcePar: machines, BatchSize: batchSize})
		if err != nil {
			return 0, err
		}
		return res.Metrics.Elapsed, nil
	}}

	return []Figure5Stage{
		readStage("ReadFile (RF)", nil),
		readStage("RF+sel(int)", selInt),
		readStage("RF+sel(date)", selDate),
		networkStage,
		fullJoin,
	}
}

// parseOp converts a raw text line into a typed tuple (the cost of reading a
// .tbl file row).
type parseOp struct{ schema *types.Schema }

// Apply parses the line in column 0.
func (p parseOp) Apply(t types.Tuple) (types.Tuple, bool, error) {
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
	return pipedSpout(lines, ops.Pipeline{parseOp{schema}})
}

// pipedSpout co-locates a pipeline with a tuple source (source + selection
// in one component, saving a network hop, as Squall's optimizer does), with
// no encode: the ReadFile stages time reading, parsing and selecting alone.
// A broken pipeline surfaces at the first tuple by panicking (Next has no
// error return).
func pipedSpout(f dataflow.SpoutFactory, p ops.Pipeline) dataflow.SpoutFactory {
	return func(task, ntasks int) dataflow.Spout {
		return &piped{inner: f(task, ntasks), p: p}
	}
}

type piped struct {
	inner dataflow.Spout
	p     ops.Pipeline
}

func (s *piped) Next() (types.Tuple, bool) {
	for {
		t, ok := s.inner.Next()
		if !ok {
			return nil, false
		}
		out, keep, err := s.p.Apply(t)
		if err != nil {
			panic(fmt.Sprintf("experiments: source pipeline: %v", err))
		}
		if keep {
			return out, true
		}
	}
}

// decodeBolt is the network stage's sink: it decodes each delivered row,
// so the stage pays encode, hop and decode per row.
type decodeBolt struct{ tup types.Tuple }

func (b *decodeBolt) ExecuteRow(in dataflow.RowInput, _ *dataflow.Collector) error {
	b.tup = in.Cur.Tuple(b.tup)
	return nil
}

func (b *decodeBolt) Finish(*dataflow.Collector) error { return nil }
