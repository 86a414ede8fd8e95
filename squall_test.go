package squall_test

import (
	"errors"
	"strings"
	"testing"

	"squall"
	"squall/internal/dataflow"
	"squall/internal/datagen"
	"squall/internal/expr"
	"squall/internal/ops"
	"squall/internal/types"
)

// tpch9Query builds the TPCH9-Partial query (Lineitem ⋈ PartSupp ⋈ Part with
// the green-part filter) at a small scale.
func tpch9Query(scheme squall.SchemeKind, local squall.LocalJoinKind, zipf float64, machines int) *squall.JoinQuery {
	gen := datagen.NewTPCH(42, 60_000, zipf)
	graph := expr.MustJoinGraph(3,
		expr.EquiCol(0, 1, 1, 0), // L.partkey = PS.partkey
		expr.EquiCol(0, 2, 1, 1), // L.suppkey = PS.suppkey
		expr.EquiCol(0, 1, 2, 0), // L.partkey = P.partkey
	)
	partFilter := ops.Pipeline{ops.Select{P: expr.Cmp{Op: expr.Eq, L: expr.C(1), R: expr.S("green")}}}
	q := &squall.JoinQuery{
		Sources: []squall.Source{
			{Name: "LINEITEM", Schema: datagen.LineitemSchema, Spout: gen.LineitemSpout(), Size: gen.Lineitems},
			{Name: "PARTSUPP", Schema: datagen.PartSuppSchema, Spout: gen.PartSuppSpout(), Size: gen.PartSupps()},
			{Name: "PART", Schema: datagen.PartSchema, Spout: gen.PartSpout(), Size: gen.Parts() / 20, Pre: partFilter},
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
	if zipf > 0 {
		q.Skewed = map[squall.KeySlot]bool{squall.KeySlot{Rel: 0, Expr: expr.C(1).String()}: true}
		q.TopFreq = map[squall.KeySlot]float64{squall.KeySlot{Rel: 0, Expr: expr.C(1).String()}: gen.TopPartkeyFreq()}
	}
	return q
}

func runOrFail(t *testing.T, q *squall.JoinQuery, opt squall.Options) *squall.Result {
	t.Helper()
	res, err := q.Run(opt)
	if err != nil {
		t.Fatalf("%v/%v: %v", q.Scheme, q.Local, err)
	}
	return res
}

// aggRowsEqual compares aggregate rows with a relative tolerance on float
// columns: summation order differs across schemes and local joins, so exact
// bit equality is not expected.
func aggRowsEqual(t *testing.T, label string, got, want []squall.Tuple) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, reference %d", label, len(got), len(want))
	}
	for i := range got {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("%s row %d: arity %d vs %d", label, i, len(got[i]), len(want[i]))
		}
		for c := range got[i] {
			a, b := got[i][c], want[i][c]
			if a.Kind() == types.KindFloat || b.Kind() == types.KindFloat {
				af, _ := a.AsFloat()
				bf, _ := b.AsFloat()
				tol := 1e-9 * (1 + absf(bf))
				if d := af - bf; d > tol || d < -tol {
					t.Fatalf("%s row %d col %d: %g vs %g", label, i, c, af, bf)
				}
				continue
			}
			if !a.Equal(b) {
				t.Fatalf("%s row %d col %d: %v vs %v", label, i, c, a, b)
			}
		}
	}
}

func absf(f float64) float64 {
	if f < 0 {
		return -f
	}
	return f
}

// TestAllSchemesAndLocalsAgree: every (scheme, local join) combination must
// produce identical aggregates — the schemes route differently but compute
// the same query.
func TestAllSchemesAndLocalsAgree(t *testing.T) {
	var reference []squall.Tuple
	for _, scheme := range []squall.SchemeKind{squall.HashHypercube, squall.RandomHypercube, squall.HybridHypercube} {
		for _, local := range []squall.LocalJoinKind{squall.Traditional, squall.DBToaster} {
			q := tpch9Query(scheme, local, 2, 8)
			res := runOrFail(t, q, squall.Options{Seed: 1, SourcePar: 2})
			rows := res.SortedRows()
			if len(rows) == 0 {
				t.Fatalf("%v/%v produced no rows", scheme, local)
			}
			if reference == nil {
				reference = rows
				continue
			}
			aggRowsEqual(t, scheme.String()+"/"+local.String(), rows, reference)
		}
	}
}

// TestSchemeMetricsOrdering reproduces the Table 1 / Table 2 relationships
// at small scale: Hash replicates least but skews hardest; Random balances
// perfectly but replicates most; Hybrid sits in between on replication and
// beats Hash on max load.
func TestSchemeMetricsOrdering(t *testing.T) {
	type row struct {
		name     string
		max, avg float64
		repl     float64
	}
	var rows []row
	for _, scheme := range []squall.SchemeKind{squall.HashHypercube, squall.RandomHypercube, squall.HybridHypercube} {
		q := tpch9Query(scheme, squall.DBToaster, 2, 8)
		res := runOrFail(t, q, squall.Options{Seed: 2})
		cm := res.Metrics.Component(res.JoinerComponent)
		rows = append(rows, row{
			name: scheme.String(),
			max:  float64(cm.MaxLoad()),
			avg:  cm.AvgLoad(),
			repl: res.Metrics.ReplicationFactor(res.JoinerComponent),
		})
	}
	hash, random, hybrid := rows[0], rows[1], rows[2]
	if !(hash.repl < hybrid.repl && hybrid.repl < random.repl) {
		t.Errorf("replication ordering violated: hash %.3f, hybrid %.3f, random %.3f",
			hash.repl, hybrid.repl, random.repl)
	}
	if hybrid.max >= hash.max {
		t.Errorf("hybrid max load %.0f must beat hash %.0f under zipf skew", hybrid.max, hash.max)
	}
	if random.max/random.avg > 1.15 {
		t.Errorf("random scheme skew degree %.3f, want ≈1 (perfect balance)", random.max/random.avg)
	}
	if hash.max/hash.avg < 2 {
		t.Errorf("hash skew degree %.3f, want >2 under zipf(2)", hash.max/hash.avg)
	}
}

// TestHashOverflowsUnderSkew reproduces Figure 7's "Memory Overflow": under
// zipf skew the Hash-Hypercube piles the heavy key's tuples onto one task,
// so a per-task budget that comfortably fits the Hybrid's balanced state
// kills the Hash run. Traditional local joins store raw tuples, making state
// proportional to received load (the paper's overflow mechanism).
func TestHashOverflowsUnderSkew(t *testing.T) {
	hybridQ := tpch9Query(squall.HybridHypercube, squall.Traditional, 2, 8)
	res := runOrFail(t, hybridQ, squall.Options{Seed: 3})
	var peak int64
	for _, tm := range res.Metrics.Component(res.JoinerComponent).Tasks {
		if m := tm.MaxMem.Load(); m > peak {
			peak = m
		}
	}
	if peak == 0 {
		t.Fatal("hybrid run recorded no memory usage")
	}
	budget := int(2 * peak) // twice the balanced scheme's worst task

	hashQ := tpch9Query(squall.HashHypercube, squall.Traditional, 2, 8)
	_, err := hashQ.Run(squall.Options{Seed: 3, MemLimitPerTask: budget})
	if !errors.Is(err, dataflow.ErrMemoryOverflow) {
		t.Fatalf("hash under skew with budget %d: expected memory overflow, got %v", budget, err)
	}
	if _, err := hybridQ.Run(squall.Options{Seed: 3, MemLimitPerTask: budget}); err != nil {
		t.Fatalf("hybrid must fit in the same budget: %v", err)
	}
}

func TestCollectLimitCapsRowsNotCount(t *testing.T) {
	q := tpch9Query(squall.HybridHypercube, squall.DBToaster, 0, 4)
	res := runOrFail(t, q, squall.Options{Seed: 4, CollectLimit: 5})
	if len(res.Rows) > 5 {
		t.Errorf("collected %d rows, limit 5", len(res.Rows))
	}
	if res.RowCount <= 5 {
		t.Errorf("RowCount = %d, want full count", res.RowCount)
	}
}

func TestJoinWithoutAggEmitsDeltaRows(t *testing.T) {
	gen := datagen.NewTPCH(7, 20_000, 0)
	graph := expr.MustJoinGraph(2, expr.EquiCol(0, 0, 1, 1)) // C.custkey = O.custkey
	q := &squall.JoinQuery{
		Sources: []squall.Source{
			{Name: "CUSTOMER", Schema: datagen.CustomerSchema, Spout: gen.CustomerSpout(), Size: gen.Customers()},
			{Name: "ORDERS", Schema: datagen.OrdersSchema, Spout: gen.OrdersSpout(), Size: gen.Orders()},
		},
		Graph:    graph,
		Scheme:   squall.HashHypercube,
		Machines: 4,
		Local:    squall.DBToaster,
	}
	res := runOrFail(t, q, squall.Options{Seed: 5, CollectLimit: 10})
	// Every order matches exactly one customer.
	if res.RowCount != gen.Orders() {
		t.Errorf("join produced %d rows, want %d", res.RowCount, gen.Orders())
	}
	if len(res.Rows) > 0 {
		if got := len(res.Rows[0]); got != datagen.CustomerSchema.Arity()+datagen.OrdersSchema.Arity() {
			t.Errorf("delta row arity = %d", got)
		}
	}
}

// TestResultReportsLocalJoinPlan: the operator the joiner tasks ran, its
// index policy and the rule that picked them, are in the Result — the choice depends on the shape
// of the query as well as on JoinQuery.Local, so it must be visible in
// output.
func TestResultReportsLocalJoinPlan(t *testing.T) {
	gen := datagen.NewTPCH(7, 5_000, 0)
	twoWay := func(local squall.LocalJoinKind) *squall.JoinQuery {
		return &squall.JoinQuery{
			Sources: []squall.Source{
				{Name: "CUSTOMER", Schema: datagen.CustomerSchema, Spout: gen.CustomerSpout(), Size: gen.Customers()},
				{Name: "ORDERS", Schema: datagen.OrdersSchema, Spout: gen.OrdersSpout(), Size: gen.Orders()},
			},
			Graph:    expr.MustJoinGraph(2, expr.EquiCol(0, 0, 1, 1)),
			Scheme:   squall.HashHypercube,
			Machines: 4,
			Local:    local,
		}
	}
	deltas3 := tpch9Query(squall.HashHypercube, squall.DBToaster, 0, 4)
	deltas3.ForceDeltaJoin = true
	// Aggregates over 2-way graphs the aggregate views must decline.
	countOver := func(q *squall.JoinQuery) *squall.JoinQuery {
		q.Agg = &squall.AggSpec{GroupBy: []squall.ColRef{{Rel: 0, E: expr.C(1)}}, Kind: squall.Count}
		return q
	}
	adaptive := countOver(twoWay(squall.DBToaster))
	adaptive.Adaptive(true)
	theta := countOver(twoWay(squall.DBToaster))
	theta.Graph = expr.MustJoinGraph(2, expr.EquiCol(0, 0, 1, 1), expr.ThetaCol(0, 0, expr.Le, 1, 0))
	recovery := &squall.RecoveryOptions{}
	for _, tc := range []struct {
		name         string
		q            *squall.JoinQuery
		recovery     *squall.RecoveryOptions
		operator     string
		policy       string
		reasonSubstr string
	}{
		{"dbtoaster-2way", twoWay(squall.DBToaster), nil, "localjoin.Traditional", "Traditional", "no intermediate view"},
		{"traditional-2way", twoWay(squall.Traditional), nil, "localjoin.Traditional", "Traditional", "Traditional policy"},
		{"dbtoaster-3way-deltas", deltas3, nil, "localjoin.Traditional", "Views", "3-relation graph: Views policy"},
		{"dbtoaster-3way-aggviews", tpch9Query(squall.HashHypercube, squall.DBToaster, 0, 4), nil, "dbtoaster.AggJoin", "AggViews", "aggregate views"},
		{"aggviews-declined-forcedelta", deltas3, nil, "localjoin.Traditional", "Views", "aggregate views declined: ForceDeltaJoin"},
		{"aggviews-declined-recovery", tpch9Query(squall.HashHypercube, squall.DBToaster, 0, 4), recovery, "localjoin.Traditional", "Views", "aggregate views declined: Recovery"},
		{"aggviews-declined-adaptive", adaptive, nil, "localjoin.Traditional", "Traditional", "aggregate views declined: AdaptiveJoin"},
		{"aggviews-declined-theta", theta, nil, "localjoin.Traditional", "Traditional", "aggregate views declined: the join graph has theta"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res := runOrFail(t, tc.q, squall.Options{Seed: 5, CollectLimit: 1, Recovery: tc.recovery})
			if res.Plan.Joiner.Operator != tc.operator {
				t.Errorf("Plan.Joiner.Operator = %q, want %q", res.Plan.Joiner.Operator, tc.operator)
			}
			if res.Plan.Joiner.Policy != tc.policy {
				t.Errorf("Plan.Joiner.Policy = %q, want %q", res.Plan.Joiner.Policy, tc.policy)
			}
			if !strings.Contains(res.Plan.Joiner.Reason, tc.reasonSubstr) {
				t.Errorf("Plan.Joiner.Reason = %q, want it to mention %q", res.Plan.Joiner.Reason, tc.reasonSubstr)
			}
		})
	}
}

// TestPostWithAggIsConfigError: a join's Post pipeline cannot run when Agg
// folds the join's rows; the plan refuses the pair with a typed error
// instead of dropping Post.
func TestPostWithAggIsConfigError(t *testing.T) {
	q := tpch9Query(squall.HashHypercube, squall.Traditional, 0, 4)
	q.Post = ops.Pipeline{ops.Project{Es: []expr.Expr{expr.C(0)}}}
	_, err := q.Run(squall.Options{Seed: 5})
	var ce *squall.ConfigError
	if !errors.As(err, &ce) {
		t.Fatalf("Post with Agg: err %v, want a *squall.ConfigError", err)
	}
	if ce.Option != "JoinQuery.Post" || ce.ConflictsWith != "JoinQuery.Agg" || ce.Value == "" || ce.Supported == "" {
		t.Fatalf("ConfigError %+v does not name Post, its value, Agg and what is supported", ce)
	}
	q.Agg = nil
	if _, err := q.Run(squall.Options{Seed: 5, CollectLimit: 1}); err != nil {
		t.Fatalf("Post without Agg: %v", err)
	}
}

// TestPlanReportsTierIgnoredOnAggViews: aggregate views keep their state
// resident, so a run that sets Tier on them, or registers them on an
// engine with a memory cap, says in its plan that the option went
// unapplied; tuple-level state applies it and says nothing.
func TestPlanReportsTierIgnoredOnAggViews(t *testing.T) {
	tier := &squall.TierOptions{SegmentRows: 64}
	aggViews := runOrFail(t, tpch9Query(squall.HashHypercube, squall.DBToaster, 0, 4), squall.Options{Seed: 5, Tier: tier})
	if aggViews.Plan.Joiner.Operator != "dbtoaster.AggJoin" {
		t.Fatalf("joiner ran %q, want aggregate views", aggViews.Plan.Joiner.Operator)
	}
	if len(aggViews.Plan.Ignored) != 1 || !strings.HasPrefix(aggViews.Plan.Ignored[0], "Tier") {
		t.Fatalf("Plan.Ignored = %q, want the Tier option named", aggViews.Plan.Ignored)
	}
	if !strings.Contains(aggViews.Plan.String(), "ignored: Tier") {
		t.Fatalf("plan output does not report the ignored Tier:\n%v", aggViews.Plan)
	}
	// An engine cap builds the query against the engine's pressure ladder,
	// which the views' state never enters.
	e := squall.NewEngine(squall.EngineOptions{MemCapBytes: 1 << 30})
	defer e.Close()
	sq, err := e.Register(squall.RegisterRequest{ID: "tpch9", Query: tpch9Query(squall.HybridHypercube, squall.DBToaster, 0, 4)})
	if err != nil {
		t.Fatal(err)
	}
	capped, err := sq.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if capped.Plan.Joiner.Operator != "dbtoaster.AggJoin" || len(capped.Plan.Ignored) != 1 || !strings.HasPrefix(capped.Plan.Ignored[0], "MemCapBytes") {
		t.Fatalf("engine-capped %s: Plan.Ignored = %q, want the engine cap named", capped.Plan.Joiner.Operator, capped.Plan.Ignored)
	}
	deltas := tpch9Query(squall.HashHypercube, squall.DBToaster, 0, 4)
	deltas.ForceDeltaJoin = true
	if res := runOrFail(t, deltas, squall.Options{Seed: 5, Tier: tier}); len(res.Plan.Ignored) != 0 {
		t.Fatalf("tiered tuple-level run reports ignored options %q", res.Plan.Ignored)
	}
}

func TestDownstreamAggWithTraditionalJoin(t *testing.T) {
	// Traditional local join + downstream AggBolt path (non-DBToaster).
	gen := datagen.NewTPCH(9, 20_000, 0)
	graph := expr.MustJoinGraph(2, expr.EquiCol(0, 0, 1, 1))
	q := &squall.JoinQuery{
		Sources: []squall.Source{
			{Name: "CUSTOMER", Schema: datagen.CustomerSchema, Spout: gen.CustomerSpout(), Size: gen.Customers()},
			{Name: "ORDERS", Schema: datagen.OrdersSchema, Spout: gen.OrdersSpout(), Size: gen.Orders()},
		},
		Graph:    graph,
		Scheme:   squall.HashHypercube,
		Machines: 4,
		Local:    squall.Traditional,
		Agg: &squall.AggSpec{
			GroupBy: []squall.ColRef{{Rel: 0, E: expr.C(1)}}, // mktsegment
			Kind:    squall.Count,
		},
	}
	res := runOrFail(t, q, squall.Options{Seed: 6, FinalPar: 2})
	var total int64
	for _, r := range res.Rows {
		total += r[1].I
	}
	if total != gen.Orders() {
		t.Errorf("segment counts sum to %d, want %d", total, gen.Orders())
	}
	if len(res.Rows) != 5 {
		t.Errorf("expected 5 market segments, got %d", len(res.Rows))
	}
}

func TestJoinQueryValidation(t *testing.T) {
	q := &squall.JoinQuery{}
	if _, err := q.Run(squall.Options{}); err == nil {
		t.Error("nil graph must fail")
	}
	q = &squall.JoinQuery{
		Graph:   expr.MustJoinGraph(2, expr.EquiCol(0, 0, 1, 0)),
		Sources: []squall.Source{{Name: "only-one"}},
	}
	if _, err := q.Run(squall.Options{}); err == nil {
		t.Error("source/relation mismatch must fail")
	}
	q.Sources = []squall.Source{{Name: "a"}, {Name: "b"}}
	if _, err := q.Run(squall.Options{}); err == nil {
		t.Error("missing spouts must fail")
	}
}

func TestPrePipelineFiltersAtSource(t *testing.T) {
	rows := []types.Tuple{
		{types.Int(1), types.Str("keep")},
		{types.Int(-1), types.Str("drop")},
		{types.Int(2), types.Str("keep")},
	}
	schema := types.NewSchema("r",
		types.Column{Name: "k", Kind: types.KindInt},
		types.Column{Name: "tag", Kind: types.KindString})
	q := &squall.JoinQuery{
		Sources: []squall.Source{
			{Name: "R", Schema: schema, Spout: dataflow.SliceSpout(rows), Size: 3,
				Pre: ops.Pipeline{ops.Select{P: expr.Cmp{Op: expr.Gt, L: expr.C(0), R: expr.I(0)}}}},
			{Name: "S", Schema: schema, Spout: dataflow.SliceSpout(rows), Size: 3},
		},
		Graph:    expr.MustJoinGraph(2, expr.EquiCol(0, 0, 1, 0)),
		Scheme:   squall.HashHypercube,
		Machines: 2,
		Local:    squall.Traditional,
	}
	res := runOrFail(t, q, squall.Options{Seed: 7})
	// R keeps keys {1,2}; S has {-1,1,2}: matches (1,1), (2,2).
	if res.RowCount != 2 {
		t.Errorf("filtered join rows = %d, want 2", res.RowCount)
	}
	src := res.Metrics.Component("R")
	if src.EmittedTotal() != 2 {
		t.Errorf("source emitted %d, want 2 (selection co-located)", src.EmittedTotal())
	}
}

// TestCheckpointDirReuse: a disk checkpoint directory outlives the run that
// wrote it, so a second run over other data must never restore the first
// run's state. The second run kills joiner task 0 before it has taken a
// checkpoint of its own; that task restores from empty state and a full
// replay, and the answer stays bag-equal to a fault-free run.
func TestCheckpointDirReuse(t *testing.T) {
	const n, domain = 1600, 400
	query := func(salt int64) *squall.JoinQuery {
		r := make([]types.Tuple, n)
		s := make([]types.Tuple, n)
		for i := range r {
			r[i] = types.Tuple{types.Int(int64(i) % domain), types.Int(salt + int64(i))}
			s[i] = types.Tuple{types.Int(int64(i*7) % domain), types.Int(salt - int64(i))}
		}
		return &squall.JoinQuery{
			Graph:    expr.MustJoinGraph(2, expr.EquiCol(0, 0, 1, 0)),
			Scheme:   squall.HashHypercube,
			Machines: 4,
			Local:    squall.Traditional,
			Sources: []squall.Source{
				{Name: "R", Spout: dataflow.SliceSpout(r), Size: n},
				{Name: "S", Spout: dataflow.SliceSpout(s), Size: n},
			},
		}
	}
	bag := func(res *squall.Result) map[string]int {
		b := make(map[string]int, len(res.Rows))
		for _, row := range res.Rows {
			b[row.Key()]++
		}
		return b
	}
	dir := t.TempDir()
	store1, err := squall.NewDiskCheckpointStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Shallow inboxes keep the sources backpressured behind the joiners, so
	// the kill lands while most of task 0's input is still to arrive.
	first := runOrFail(t, query(0), squall.Options{Seed: 3, ChannelBuf: 4,
		Recovery: &squall.RecoveryOptions{CheckpointEvery: 32, Store: store1}})
	if first.Metrics.Recovery.Checkpoints.Load() == 0 {
		t.Fatal("the first run wrote no checkpoints to reuse")
	}

	want := bag(runOrFail(t, query(1_000_000), squall.Options{Seed: 3}))
	store2, err := squall.NewDiskCheckpointStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	res := runOrFail(t, query(1_000_000), squall.Options{Seed: 3, ChannelBuf: 4,
		FaultPlan: &squall.FaultPlan{Task: 0, AfterTuples: 40},
		Recovery:  &squall.RecoveryOptions{CheckpointEvery: 1 << 30, Store: store2, DisablePeer: true}})
	m := &res.Metrics.Recovery
	if m.Kills.Load() != 1 {
		t.Fatalf("kills = %d, want the planned one", m.Kills.Load())
	}
	if m.StoreReads.Load() != 0 {
		t.Errorf("restore read %d checkpoints this run never wrote", m.StoreReads.Load())
	}
	got := bag(res)
	if len(res.Rows) != n*n/domain || len(got) != len(want) {
		t.Fatalf("reused dir: %d rows (%d distinct), fault-free run %d distinct", len(res.Rows), len(got), len(want))
	}
	for k, c := range want {
		if got[k] != c {
			t.Fatalf("reused dir: row %s seen %d times, fault-free run %d", k, got[k], c)
		}
	}
}
