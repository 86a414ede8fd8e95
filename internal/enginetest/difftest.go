// Package enginetest is the engine's differential correctness harness:
// randomized multi-relation workloads run through every engine configuration
// (partitioning scheme x local join x transport batch size x adaptive
// on/off) and compared, as bags, against a single-threaded reference
// nested-loop join. Any divergence — a lost tuple, a duplicated delta, a
// migration that re-emits a pair — shows up as a bag mismatch keyed by the
// offending row.
package enginetest

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"squall"
	"squall/internal/dataflow"
	"squall/internal/expr"
	"squall/internal/types"
)

// Workload is one randomized differential scenario: concrete relations plus
// the join graph connecting them.
type Workload struct {
	Seed  int64
	Rels  [][]types.Tuple
	Graph *expr.JoinGraph
	Names []string
}

// RandomWorkload generates numRels relations of rowsPerRel tuples
// (key, payload, seq) with keys drawn from a domain small enough to make
// joins productive. The join graph is an equi chain on the key column;
// withTheta adds an inequality conjunct on the payload columns of the first
// pair, exercising the tree-index probe paths.
func RandomWorkload(seed int64, numRels, rowsPerRel, keyDomain int, withTheta bool) *Workload {
	rng := rand.New(rand.NewSource(seed))
	w := &Workload{Seed: seed}
	for rel := 0; rel < numRels; rel++ {
		rows := make([]types.Tuple, rowsPerRel)
		for i := range rows {
			rows[i] = types.Tuple{
				types.Int(int64(rng.Intn(keyDomain))),
				types.Int(int64(rng.Intn(50))),
				types.Int(int64(rel*1_000_000 + i)), // unique per row: bags stay honest
			}
		}
		w.Rels = append(w.Rels, rows)
		w.Names = append(w.Names, fmt.Sprintf("rel%d", rel))
	}
	var conjuncts []expr.JoinConjunct
	for rel := 0; rel+1 < numRels; rel++ {
		conjuncts = append(conjuncts, expr.EquiCol(rel, 0, rel+1, 0))
	}
	if withTheta {
		conjuncts = append(conjuncts, expr.ThetaCol(0, 1, expr.Lt, 1, 1))
	}
	w.Graph = expr.MustJoinGraph(numRels, conjuncts...)
	return w
}

// BandWorkload is RandomWorkload's two relations joined by its inequality
// conjunct alone (rel0.payload < rel1.payload): a band join with no
// equality, so a local join's first probe is a tree-index range.
func BandWorkload(seed int64, rowsPerRel, keyDomain int) *Workload {
	w := RandomWorkload(seed, 2, rowsPerRel, keyDomain, true)
	w.Graph = expr.MustJoinGraph(2, expr.ThetaCol(0, 1, expr.Lt, 1, 1))
	return w
}

// Band3Workload is RandomWorkload's three relations joined band first:
// rel0.payload < rel1.payload AND rel1.key = rel2.key. Under DBToaster an
// arrival of rel0 range-probes the view {rel1, rel2}, and one of rel1
// probes {rel0} by range and {rel2} by equality.
func Band3Workload(seed int64, rowsPerRel, keyDomain int) *Workload {
	w := RandomWorkload(seed, 3, rowsPerRel, keyDomain, false)
	w.Graph = expr.MustJoinGraph(3, expr.ThetaCol(0, 1, expr.Lt, 1, 1), expr.EquiCol(1, 0, 2, 0))
	return w
}

// ZipfWorkload is the aggregate dimension's input: an equi chain on the key
// column like RandomWorkload's, but with zipf-distributed keys (heavy keys
// multiply fan-out, which is what aggregate views absorb), a few NULL keys,
// and a small group column (values 0-5, a few NULLs) in the payload slot.
func ZipfWorkload(seed int64, numRels, rowsPerRel, keyDomain int) *Workload {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.2, 1, uint64(keyDomain-1))
	w := &Workload{Seed: seed}
	var conjuncts []expr.JoinConjunct
	for rel := 0; rel < numRels; rel++ {
		rows := make([]types.Tuple, rowsPerRel)
		for i := range rows {
			key, group := types.Int(int64(zipf.Uint64())), types.Int(int64(rng.Intn(6)))
			if rng.Intn(40) == 0 {
				key = types.Null()
			}
			if rng.Intn(20) == 0 {
				group = types.Null()
			}
			rows[i] = types.Tuple{key, group, types.Int(int64(rel*1_000_000 + i))}
		}
		w.Rels = append(w.Rels, rows)
		w.Names = append(w.Names, fmt.Sprintf("rel%d", rel))
		if rel > 0 {
			conjuncts = append(conjuncts, expr.EquiCol(rel-1, 0, rel, 0))
		}
	}
	w.Graph = expr.MustJoinGraph(numRels, conjuncts...)
	return w
}

// ReferenceBag computes the join with a single-threaded nested loop over the
// raw relations: the oracle every engine configuration must match.
func (w *Workload) ReferenceBag() map[string]int {
	bag := map[string]int{}
	w.eachJoined(func(assigned []types.Tuple) {
		row := make(types.Tuple, 0, 3*len(assigned))
		for _, t := range assigned {
			row = append(row, t...)
		}
		bag[row.Key()]++
	})
	return bag
}

// ReferenceAggBag aggregates the nested-loop join in plain Go into the rows
// the engine emits: the group values, then COUNT(*) as an int or the SUM as
// a float (NULL operands add nothing).
func (w *Workload) ReferenceAggBag(a *AggConfig) map[string]int {
	type acc struct {
		group types.Tuple
		cnt   int64
		sum   float64
	}
	groups := map[string]*acc{}
	w.eachJoined(func(assigned []types.Tuple) {
		g := make(types.Tuple, len(a.GroupBy))
		for i, c := range a.GroupBy {
			g[i] = assigned[c.Rel][c.Col]
		}
		st := groups[g.Key()]
		if st == nil {
			st = &acc{group: g}
			groups[g.Key()] = st
		}
		st.cnt++
		if a.Sum != nil {
			f, _ := assigned[a.Sum.Rel][a.Sum.Col].AsFloat()
			st.sum += f
		}
	})
	bag := map[string]int{}
	for _, st := range groups {
		v := types.Int(st.cnt)
		if a.Sum != nil {
			v = types.Float(st.sum)
		}
		bag[append(st.group, v).Key()]++
	}
	return bag
}

// eachJoined enumerates the join with a nested loop, passing every result
// as one tuple per relation (the slice is reused between calls).
func (w *Workload) eachJoined(fn func(assigned []types.Tuple)) {
	n := w.Graph.NumRels
	assigned := make([]types.Tuple, n)
	full := (uint64(1) << n) - 1
	var rec func(rel int)
	rec = func(rel int) {
		if rel == n {
			fn(assigned)
			return
		}
		mask := (uint64(1) << (rel + 1)) - 1
		for _, t := range w.Rels[rel] {
			assigned[rel] = t
			ok, err := w.Graph.HoldsAll(mask&full, assigned)
			if err != nil {
				panic(err) // generated columns are always comparable
			}
			if ok {
				rec(rel + 1)
			}
		}
		assigned[rel] = nil
	}
	rec(0)
}

// AggCol names one column of one relation.
type AggCol struct{ Rel, Col int }

// AggConfig is an aggregate over a workload's join: COUNT(*), or SUM of the
// Sum column, grouped by columns of any relations. It is plain data so
// cluster workers rebuild it from the job parameters.
type AggConfig struct {
	GroupBy []AggCol
	Sum     *AggCol
}

// spec renders the aggregate for a JoinQuery, its columns computed when
// exprKeys is set (see EngineConfig.ExprKeys).
func (a *AggConfig) spec(exprKeys bool) *squall.AggSpec {
	col := func(c AggCol) squall.ColRef {
		if exprKeys {
			return squall.ColRef{Rel: c.Rel, E: computed(expr.C(c.Col))}
		}
		return squall.ColRef{Rel: c.Rel, E: expr.C(c.Col)}
	}
	s := &squall.AggSpec{Kind: squall.Count}
	for _, c := range a.GroupBy {
		s.GroupBy = append(s.GroupBy, col(c))
	}
	if a.Sum != nil {
		sum := col(*a.Sum)
		s.Kind, s.Sum = squall.Sum, &sum
	}
	return s
}

// computed rewrites e as e + 0: the same value (NULL stays NULL, an int
// stays an int), but no longer a column ref.
func computed(e expr.Expr) expr.Expr {
	return expr.Arith{Op: expr.Add, L: e, R: expr.I(0)}
}

// ExprKeyGraph is the workload's join graph with every conjunct side
// computed (see EngineConfig.ExprKeys).
func (w *Workload) ExprKeyGraph() *expr.JoinGraph {
	cs := make([]expr.JoinConjunct, len(w.Graph.Conjuncts))
	for i, c := range w.Graph.Conjuncts {
		c.Left, c.Right = computed(c.Left), computed(c.Right)
		cs[i] = c
	}
	return expr.MustJoinGraph(w.Graph.NumRels, cs...)
}

// EngineConfig is one point of the differential matrix.
type EngineConfig struct {
	Scheme    squall.SchemeKind
	Local     squall.LocalJoinKind
	BatchSize int
	Adaptive  bool
	// SourcePar runs every source component with this many tasks (0 means
	// 1), so each joiner task reads several producers per relation: one
	// replay buffer and one sequence per producer, dedup across them, and
	// the adaptive gate's live count over all of them.
	SourcePar int
	// ExprKeys writes every join key and aggregate column as the equivalent
	// computed expression col + 0 instead of a column ref. No operator can
	// read that at a field offset, and none leaves the row path for it: the
	// hypercube groupings route each row by its decoded tuple, the
	// Traditional joiner evaluates the key over the decoded row wherever it
	// hashes, verifies, filters or indexes it, and AggJoin evaluates its
	// arrivals. The oracle keeps the plain graph.
	ExprKeys bool
	// Kill enables the chaos dimension (PR 4): one joiner task is killed at
	// a seeded point mid-run and recovered live (peer refetch when the
	// scheme replicates the relation, checkpoint + replay otherwise); the
	// result must still be bag-equal to the oracle.
	Kill bool
	// Spill enables the tiered-state dimension (PR 10): joiner arenas seal
	// cold rows into small checksummed segments and spill every sealed
	// segment to a segment store, so probes continually fault state back in
	// through the CRC-verified read path. The result must be bag-equal to
	// the untiered runs. Combined with Kill, checkpoints go incremental
	// (segment references) and recovery restores through them.
	Spill bool
	// SpillDir, when set on a Spill run, spills to a recovery.DiskStore in
	// this directory (TierOptions.SpillDir) instead of the in-process
	// MemStore: fault-ins then read into buffers the tier recycles, so a
	// row slice kept past its segment's eviction reads as a wrong bag.
	SpillDir string
	// Agg puts an aggregate over the join; under DBToaster an equi-join
	// aggregate runs as aggregate views inside the joiner. Compare against
	// ReferenceAggBag.
	Agg *AggConfig
	// ForceDeltaJoin keeps Agg off aggregate views: the joiner ships deltas
	// to a downstream aggregation instead.
	ForceDeltaJoin bool
	// FinalPar is the parallelism of the merge or aggregation after the
	// joiner (0 means 1).
	FinalPar int
	Machines int
	Seed     int64
}

// String names the configuration for subtests and failure messages.
func (c EngineConfig) String() string {
	mode := "static"
	if c.Adaptive {
		mode = "adaptive"
	}
	exec := "rows"
	if c.SourcePar > 1 {
		exec += fmt.Sprintf("/srcpar=%d", c.SourcePar)
	}
	if c.ExprKeys {
		exec += "/exprkeys"
	}
	chaos := ""
	if c.Kill {
		chaos = "/kill"
	}
	if c.Spill {
		chaos += "/spill"
		if c.SpillDir != "" {
			chaos += "=disk"
		}
	}
	if c.Agg != nil {
		chaos += fmt.Sprintf("/agg/final=%d", max(c.FinalPar, 1))
	}
	if c.ForceDeltaJoin {
		chaos += "/deltas"
	}
	return fmt.Sprintf("%v/%v/batch=%d/%s/%s%s", c.Scheme, c.Local, c.BatchSize, mode, exec, chaos)
}

// workloadColumns is the (key, payload, seq) layout every generator emits; a
// downstream aggregation resolves its columns through it.
var workloadColumns = []types.Column{
	{Name: "key", Kind: types.KindInt},
	{Name: "payload", Kind: types.KindInt},
	{Name: "seq", Kind: types.KindInt},
}

// query assembles the JoinQuery for one configuration.
func (w *Workload) query(c EngineConfig) *squall.JoinQuery {
	q := &squall.JoinQuery{
		Graph:    w.Graph,
		Scheme:   c.Scheme,
		Machines: c.Machines,
		Local:    c.Local,
	}
	if c.ExprKeys {
		q.Graph = w.ExprKeyGraph()
	}
	if c.Agg != nil {
		q.Agg, q.ForceDeltaJoin = c.Agg.spec(c.ExprKeys), c.ForceDeltaJoin
	}
	for rel, rows := range w.Rels {
		q.Sources = append(q.Sources, squall.Source{
			Name:   w.Names[rel],
			Schema: &types.Schema{Name: w.Names[rel], Columns: workloadColumns},
			Spout:  dataflow.SliceSpout(rows),
			Size:   int64(len(rows)),
		})
	}
	if c.Adaptive {
		q.Adaptive(true)
		// Aggressive knobs so small differential workloads still exercise
		// the reshape path.
		q.Adapt = &squall.AdaptConfig{ReportEvery: 16, MinObserved: 64, MinGain: 0.05}
	}
	return q
}

// Plan assembles the query and options for one configuration — the shared
// entry point for in-process runs, cluster coordinators and cluster workers
// (all three must build the identical execution; see squall.RegisterClusterJob).
func (w *Workload) Plan(c EngineConfig) (*squall.JoinQuery, squall.Options) {
	opts := squall.Options{
		Seed:      c.Seed,
		BatchSize: c.BatchSize,
		SourcePar: c.SourcePar,
		FinalPar:  c.FinalPar,
		// Shallow inboxes keep sources backpressured behind the joiner, so
		// adaptive runs observe ratios mid-stream (and every run exercises
		// flow control).
		ChannelBuf: 8,
	}
	if c.Kill {
		// Task 0 always exists (and is always a matrix cell in adaptive
		// runs); the trigger point and checkpoint cadence are seeded small
		// so the kill lands while the task holds state.
		opts.FaultPlan = &squall.FaultPlan{Task: 0, AfterTuples: 3 + int(c.Seed%11)}
		opts.Recovery = &squall.RecoveryOptions{CheckpointEvery: 24}
	}
	if c.Spill {
		// Minimum segment size and a tiny fault-in cache, no memory cap:
		// without a pressure ladder the tier spills eagerly at every seal,
		// so differential workloads constantly decode spilled segments back
		// through the CRC-verified read path.
		opts.Tier = &squall.TierOptions{SegmentRows: 64, CacheSegments: 2, SpillDir: c.SpillDir}
	}
	return w.query(c), opts
}

// RunEngine executes one configuration and returns the result bag.
func (w *Workload) RunEngine(c EngineConfig) (map[string]int, *squall.Result, error) {
	q, opts := w.Plan(c)
	res, err := q.Run(opts)
	if err != nil {
		return nil, nil, err
	}
	bag := make(map[string]int, len(res.Rows))
	for _, r := range res.Rows {
		bag[r.Key()]++
	}
	return bag, res, nil
}

// DiffBags renders the difference between two bags (want vs got), empty when
// equal. At most a handful of rows are listed.
func DiffBags(want, got map[string]int) string {
	var diffs []string
	for k, n := range want {
		if got[k] != n {
			diffs = append(diffs, fmt.Sprintf("row %q: want %d, got %d", k, n, got[k]))
		}
	}
	for k, n := range got {
		if _, ok := want[k]; !ok {
			diffs = append(diffs, fmt.Sprintf("row %q: want 0, got %d", k, n))
		}
	}
	if len(diffs) == 0 {
		return ""
	}
	sort.Strings(diffs)
	if len(diffs) > 8 {
		diffs = append(diffs[:8], fmt.Sprintf("... and %d more", len(diffs)-8))
	}
	return strings.Join(diffs, "\n")
}
