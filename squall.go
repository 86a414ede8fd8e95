// Package squall is a Go reproduction of Squall (Vitorovic et al., PVLDB
// 9(10), 2016): a scalable online query engine running complex analytics
// with skew-resilient, adaptive operators.
//
// The public API mirrors the paper's interfaces:
//
//   - The imperative interface (JoinQuery) gives full control over the
//     physical plan: partitioning scheme (Hash-, Random- or
//     Hybrid-Hypercube), local join algorithm (traditional or DBToaster) and
//     per-component parallelism.
//   - The declarative interface (RunSQL / Compile in sql.go) parses a SQL
//     subset, builds a logical plan, and lets the optimizer pick the
//     physical plan.
//
// Execution happens on the internal dataflow engine (a Storm substitute):
// every component runs as a set of tasks, tuples are serialized across
// component boundaries, and per-task metrics (load, skew degree, replication
// factor) are reported exactly as defined in the paper's §6.
package squall

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"sort"
	"sync"

	"squall/internal/core"
	"squall/internal/dataflow"
	"squall/internal/dbtoaster"
	"squall/internal/expr"
	"squall/internal/ops"
	"squall/internal/recovery"
	"squall/internal/slab"
	"squall/internal/types"
)

// Re-exported aliases so applications only import this package.
type (
	// Tuple is a row of values.
	Tuple = types.Tuple
	// Value is one SQL value.
	Value = types.Value
	// Schema names and types columns.
	Schema = types.Schema
	// SchemeKind selects a hypercube partitioning scheme.
	SchemeKind = core.SchemeKind
	// KeySlot identifies a join-key usage for skew declarations.
	KeySlot = core.KeySlot
	// ColRef names an expression over one relation.
	ColRef = dbtoaster.ColRef
	// AggKind selects COUNT, SUM or AVG.
	AggKind = ops.AggKind
	// RunMetrics carries the per-component execution metrics.
	RunMetrics = dataflow.RunMetrics
	// FaultPlan injects one deterministic joiner-task kill (live fault
	// tolerance, §5): the task is killed at a quiesced point once it has
	// received AfterTuples tuples, then recovered from a peer or checkpoint.
	FaultPlan = dataflow.FaultPlan
	// CheckpointStore persists joiner checkpoints for the recovery subsystem.
	CheckpointStore = recovery.CheckpointStore
)

// NewMemCheckpointStore returns an in-memory checkpoint store (the default).
func NewMemCheckpointStore() CheckpointStore { return recovery.NewMemStore() }

// NewDiskCheckpointStore returns a checkpoint store persisting one file per
// joiner task under dir — the disk-recovery baseline of the paper's §5
// comparison ("network accesses are several times faster than disk").
func NewDiskCheckpointStore(dir string) (CheckpointStore, error) {
	return recovery.NewDiskStore(dir)
}

// Scheme and aggregate constants, re-exported.
const (
	HashHypercube   = core.HashHypercube
	RandomHypercube = core.RandomHypercube
	HybridHypercube = core.HybridHypercube

	Count = ops.Count
	Sum   = ops.Sum
	Avg   = ops.Avg
)

// LocalJoinKind selects the per-machine join algorithm (§3.3): the hint
// decide turns into the joiner's operator and index policy.
type LocalJoinKind uint8

const (
	// Traditional indexes the base relations and re-enumerates matching
	// combinations on every arrival.
	Traditional LocalJoinKind = iota
	// DBToaster materializes intermediate views (tuple-level or aggregate)
	// and probes them instead — the HyLD operator's local half (§3.4).
	DBToaster
)

func (k LocalJoinKind) String() string {
	if k == DBToaster {
		return "DBToaster"
	}
	return "Traditional"
}

// Source is one input relation: a schema, a streaming generator, an
// estimated size (relative sizes drive the hypercube optimizer) and an
// optional co-located pipeline (selection/projection pushed into the data
// source component, as Squall's optimizer does).
type Source struct {
	Name   string
	Schema *Schema
	Spout  dataflow.SpoutFactory
	Size   int64
	Pre    ops.Pipeline
}

// AggSpec describes the final aggregation of a join query. References are
// per input relation (post-Pre schema).
type AggSpec struct {
	GroupBy []ColRef
	Kind    AggKind
	Sum     *ColRef
}

// JoinQuery is the imperative physical-plan interface: a multi-way join with
// a chosen partitioning scheme and local algorithm, optionally followed by
// an aggregation.
type JoinQuery struct {
	Sources []Source
	Graph   *expr.JoinGraph
	Scheme  SchemeKind
	// Skewed declares skewed join keys for the Hybrid-Hypercube; TopFreq
	// feeds the offline load model (§3.4).
	Skewed  map[KeySlot]bool
	TopFreq map[KeySlot]float64
	// Machines is the joiner budget (the scheme may use fewer).
	Machines int
	Local    LocalJoinKind
	Agg      *AggSpec
	// Post transforms each join result row. A query with Agg set takes no
	// Post: the plan refuses the pair with a *ConfigError.
	Post ops.Pipeline
	// ForceDeltaJoin disables the aggregate-view fast path: the joiner
	// materializes tuple-level views (DBToaster) or raw indexes
	// (Traditional) and ships delta rows to a downstream aggregation. This
	// reproduces the paper's memory behaviour — tuple-level state grows with
	// received load, so a skewed Hash-Hypercube task can exhaust its budget
	// (Figure 7's "Memory Overflow") — at the cost of shipping every delta.
	ForceDeltaJoin bool
	// AdaptiveJoin runs a 2-way join as the live Adaptive 1-Bucket operator
	// (§5): the joiner's partitioning is the 2-way Random-Hypercube — a
	// rows x cols matrix (core.OneBucket) over the Machines budget, in place
	// of the Scheme's hypercube — and a runtime control plane reshapes it as
	// the observed |R| : |S| ratio drifts, migrating joiner state between
	// tasks. Routing, migration and recovery peers all read that one live
	// shape. The aggregate-view fast path is disabled (aggregate views
	// cannot migrate). Set via the Adaptive method; tune with Adapt.
	AdaptiveJoin bool
	// Adapt tunes the adaptive execution (nil = defaults).
	Adapt *AdaptConfig
}

// AdaptConfig tunes the live Adaptive 1-Bucket execution.
type AdaptConfig struct {
	// InitialRows x InitialCols is the starting matrix; zero means the
	// offline optimizer's choice for the declared Source sizes.
	InitialRows, InitialCols int
	// ReportEvery, MinGain and MinObserved map onto
	// dataflow.AdaptivePolicy (zero = that policy's defaults).
	ReportEvery int
	MinGain     float64
	MinObserved int64
	// Static freezes the initial matrix — the fixed-matrix baseline an
	// adaptive run is measured against, on identical transport.
	Static bool
}

// Adaptive toggles the live Adaptive 1-Bucket execution and returns q, so a
// query can be built as experiments.Query(...).Adaptive(true).
func (q *JoinQuery) Adaptive(on bool) *JoinQuery {
	q.AdaptiveJoin = on
	return q
}

// Options tune one execution.
type Options struct {
	// Seed drives all randomized routing (shuffle/random partitioning).
	Seed int64
	// SourcePar is the parallelism of each source component (default 1).
	SourcePar int
	// FinalPar is the parallelism of the final aggregation (default 1).
	FinalPar int
	// MemLimitPerTask aborts with a memory-overflow error when a joiner
	// task's state exceeds this many bytes (0 = unlimited).
	MemLimitPerTask int
	// CollectLimit caps collected result rows (0 = collect everything);
	// overflowing rows are counted, not stored.
	CollectLimit int
	// ChannelBuf overrides the per-task inbox depth.
	ChannelBuf int
	// BatchSize caps rows per transport frame (default
	// dataflow.DefaultBatchSize). 1 ships one-row frames: every tuple is
	// sent and framed on its own, Figure 5's per-tuple series.
	//
	// Every run executes packed: sources encode each tuple once and
	// selections, projections, routing, transport and slab inserts all run
	// on the encoded bytes — a tuple crossing source -> select/project ->
	// hash-route -> join/agg insert is decoded zero times unless an
	// operator needs a typed value.
	BatchSize int
	// Recovery enables the live fault-tolerance subsystem (PR 4) on the
	// joiner: periodic state checkpoints, panic capture, and kill recovery
	// by peer refetch (when the scheme replicates a relation) or checkpoint
	// + exactly-once replay. The aggregate-view fast path is disabled while
	// recovery is on (aggregate views cannot be exported per relation).
	// Panic capture requires a non-adaptive run: a reshape barrier already
	// in the panicking task's inbox cannot be reconciled with its state
	// loss, so adaptive runs surface operator panics as run errors (injected
	// kills recover on adaptive runs too — they serialize with reshapes).
	Recovery *RecoveryOptions
	// FaultPlan injects one deterministic joiner-task kill; setting it
	// enables Recovery with defaults if Recovery is nil.
	FaultPlan *FaultPlan
	// Cluster, when set, spreads the topology over squalld worker processes
	// connected by TCP: this process becomes the coordinator (worker 0) and
	// drives the run end to end (see cluster.go). The query must be
	// registered as a cluster job so every worker can rebuild the identical
	// plan.
	Cluster *ClusterSpec
	// Tier, when set, runs the joiner's slab state tiered (PR 10): arenas
	// seal cold segments into checksummed, append-frozen blobs that spill to
	// a segment store under memory pressure and fault back in on demand, so
	// a join whose state exceeds MemCapBytes keeps running instead of
	// aborting. State is append-only (full history), so segments are never
	// rewritten once sealed. Aggregate views keep their state resident;
	// Result.Plan.Ignored says so when a run sets Tier on them.
	Tier *TierOptions
}

// TierOptions tune the tiered state layer (Options.Tier).
type TierOptions struct {
	// SegmentRows is the rows per sealed segment (default 1024).
	SegmentRows int
	// CacheSegments caps how many spilled segments one arena keeps faulted
	// in at a time (default 4).
	CacheSegments int
	// MemCapBytes, when > 0, is the resident-state budget driving the
	// degradation ladder: sealed segments spill as residency approaches the
	// cap, sources throttle when spilling cannot keep up, and (under the
	// serving engine) new registrations are rejected at the cap. Unlike
	// MemLimitPerTask — which aborts — the cap degrades.
	MemCapBytes int64
	// SpillDir, when set (and Store is nil), spills segments to one
	// append-only log per run in this directory; the run removes the log
	// when it ends. With both empty, segments spill to an in-process store:
	// residency still drops, durability does not.
	SpillDir string
	// Store overrides the segment store (tests, custom media).
	Store slab.SegmentStore
}

// RecoveryOptions tune the fault-tolerance subsystem.
type RecoveryOptions struct {
	// CheckpointEvery is the number of applied tuples between a joiner
	// task's checkpoints (default 512).
	CheckpointEvery int
	// Store persists checkpoints; nil means an in-memory store.
	Store CheckpointStore
	// DisablePeer forces the checkpoint route even for replicated relations
	// — the disk-recovery baseline the §5 claim is measured against.
	DisablePeer bool
}

// Result of a query execution.
type Result struct {
	// Rows are the collected output rows (aggregates, or join results),
	// capped by CollectLimit.
	Rows []Tuple
	// RowCount is the total number of output rows, including uncollected.
	RowCount int64
	// Metrics are the dataflow metrics.
	Metrics *RunMetrics
	// Plan is the physical plan the run executed: the scheme, the local
	// join the joiner's tasks ran and why, and the components.
	Plan *Plan
	// JoinerComponent is the metrics key of the join component.
	JoinerComponent string
	// Pressure is the end-of-run snapshot of the tiered-state degradation
	// ladder (nil unless the run set Tier with a MemCapBytes): peak resident
	// bytes against the cap, spill/fault/quarantine counts and throttle
	// events. ResidentBytes reads zero here — finished tasks refund their
	// charges — so cap compliance is judged by PeakResident.
	Pressure *slab.PressureStats
}

// SortedRows returns collected rows in lexicographic order.
func (r *Result) SortedRows() []Tuple {
	rows := make([]Tuple, len(r.Rows))
	copy(rows, r.Rows)
	sort.Slice(rows, func(i, j int) bool { return rows[i].Compare(rows[j]) < 0 })
	return rows
}

// limitSink gathers up to limit rows and counts the rest.
type limitSink struct {
	mu    sync.Mutex
	rows  []Tuple
	count int64
	limit int
	// notify, when set, receives every materialized result batch as it
	// arrives — the serving engine's subscription feed. With a notify hook
	// every row is materialized (subscribers see the full delta stream) even
	// when limit caps what the sink retains. Called outside the sink lock.
	notify func(rows []Tuple)
}

// snapshot copies the retained rows (a subscription's replay prefix).
func (s *limitSink) snapshot() []Tuple {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Tuple(nil), s.rows...)
}

// rowCount reads the running output count (registry introspection).
func (s *limitSink) rowCount() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.count
}

// sinkBolt collects rows: Result.Rows is decoded here, at the sink. It
// counts encoded rows without decoding and only materializes the ones
// actually kept — with a CollectLimit, the terminal decode cost of a run
// drops to O(limit).
type sinkBolt struct{ s *limitSink }

func (b sinkBolt) ExecuteRow(in dataflow.RowInput, _ *dataflow.Collector) error {
	s := b.s
	var tup Tuple
	s.mu.Lock()
	s.count++
	if s.limit <= 0 || len(s.rows) < s.limit {
		tup = in.Cur.Tuple(nil)
		s.rows = append(s.rows, tup)
	} else if s.notify != nil {
		tup = in.Cur.Tuple(nil)
	}
	s.mu.Unlock()
	if s.notify != nil && tup != nil {
		s.notify([]Tuple{tup})
	}
	return nil
}

func (b sinkBolt) Finish(*dataflow.Collector) error { return nil }

// BuildScheme constructs the query's hypercube without running it (the
// paper's "hypercube properties" analyses).
func (q *JoinQuery) BuildScheme() (*core.Hypercube, error) {
	spec, err := q.spec()
	if err != nil {
		return nil, err
	}
	return core.BuildScheme(q.Scheme, spec, q.Machines)
}

func (q *JoinQuery) spec() (core.JoinSpec, error) {
	if q.Graph == nil {
		return core.JoinSpec{}, fmt.Errorf("squall: JoinQuery.Graph is nil")
	}
	if len(q.Sources) != q.Graph.NumRels {
		return core.JoinSpec{}, fmt.Errorf("squall: %d sources for %d relations", len(q.Sources), q.Graph.NumRels)
	}
	spec := core.JoinSpec{
		Graph:   q.Graph,
		Names:   make([]string, len(q.Sources)),
		Sizes:   make([]int64, len(q.Sources)),
		Skewed:  q.Skewed,
		TopFreq: q.TopFreq,
	}
	for i, s := range q.Sources {
		if s.Name == "" {
			return core.JoinSpec{}, fmt.Errorf("squall: source %d needs a name", i)
		}
		spec.Names[i] = s.Name
		spec.Sizes[i] = max(s.Size, int64(1))
	}
	return spec, nil
}

// ConfigError reports an option the plan cannot honour as given: what was
// asked, the option it conflicts with (empty when the value is invalid on
// its own), and what is supported instead.
type ConfigError struct {
	Option, Value, ConflictsWith, Supported string
}

func (e *ConfigError) Error() string {
	if e.ConflictsWith == "" {
		return fmt.Sprintf("squall: %s = %s is not supported; supported: %s", e.Option, e.Value, e.Supported)
	}
	return fmt.Sprintf("squall: %s = %s conflicts with %s; supported: %s", e.Option, e.Value, e.ConflictsWith, e.Supported)
}

// Plan is a query's physical plan (§3), decided before anything runs.
// decide makes every choice of a run and opens nothing; JoinQuery.Run,
// Engine.Register and a cluster worker's session each build their dataflow
// from a Plan, so the plan a Result reports is the one that ran.
type Plan struct {
	// Hypercube partitions the joiner (an adaptive run's initial matrix).
	Hypercube *core.Hypercube
	Joiner    JoinerPlan
	// Components are in registration order: the sources, the joiner, merge
	// or agg, and the sink.
	Components []PlanComponent
	// GroupCols and SumCol are the downstream aggregation's columns of the
	// joined row (nil and -1 when no aggregation follows the join).
	GroupCols []int
	SumCol    int
	// Ignored names each option the run accepts but does not apply.
	Ignored []string

	q     *JoinQuery
	opt   Options // parallelism defaulted, Recovery implied by FaultPlan
	adapt *dataflow.AdaptivePolicy
	relOf map[string]int
}

// JoinerPlan is the operator the joiner's tasks run, its state policy —
// the local-join core's "Traditional" (base-relation indexes) or "Views"
// (every connected intermediate view too), or AggJoin's "AggViews"
// (aggregate-annotated views) — and the one-line reason for both.
type JoinerPlan struct{ Operator, Policy, Reason string }

// PlanComponent is one dataflow component and its input edges.
type PlanComponent struct {
	Name        string
	Parallelism int
	Inputs      []PlanEdge
}

// PlanEdge is an input edge: the upstream component and the grouping that
// spreads its rows over the component's tasks.
type PlanEdge struct {
	From, Grouping string
	g              dataflow.Grouping
}

func (e PlanEdge) String() string { return e.From + " " + e.Grouping }

// joiner is the join component's name in every plan.
const joiner = "joiner"

// String renders the plan for output.
func (p *Plan) String() string {
	s := fmt.Sprintf("scheme %v over %d machines\njoiner operator: %s, %s policy (%s)\ncomponents: %v",
		p.Hypercube, p.Hypercube.Machines(), p.Joiner.Operator, p.Joiner.Policy, p.Joiner.Reason, p.Components)
	if p.GroupCols != nil {
		s += fmt.Sprintf("\ndownstream aggregate: group by %v, sum column %d", p.GroupCols, p.SumCol)
	}
	for _, ig := range p.Ignored {
		s += "\nignored: " + ig
	}
	return s
}

// Fingerprint hashes what every process of a cluster run must agree on:
// the plan but for Ignored, the seed, the batch size, the credit window
// (the effective ChannelBuf, which sizes both ends of every link) and
// whether recovery and adaptation are on. Spouts, stores, paths and tiering
// are left out.
func (p *Plan) Fingerprint() string {
	batch, window := p.opt.BatchSize, p.opt.ChannelBuf
	if batch <= 0 {
		batch = dataflow.DefaultBatchSize
	}
	if window <= 0 {
		window = max(1024/batch, 128) // dataflow.Options.ChannelBuf's default
	}
	h := sha256.New()
	fmt.Fprintf(h, "%v|%s/%s|%v|%v/%d|seed=%d batch=%d window=%d recovery=%v adaptive=%v", p.Hypercube,
		p.Joiner.Operator, p.Joiner.Policy, p.Components, p.GroupCols, p.SumCol,
		p.opt.Seed, batch, window, p.opt.Recovery != nil, p.adapt != nil)
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// decide makes every choice of a run, all of which the Plan holds; it
// opens no store and starts nothing.
func decide(q *JoinQuery, opt Options) (*Plan, error) {
	spec, err := q.spec()
	if err != nil {
		return nil, err
	}
	if q.Agg != nil && q.Post != nil {
		return nil, &ConfigError{Option: "JoinQuery.Post", Value: fmt.Sprintf("%d stage(s)", len(q.Post)),
			ConflictsWith: "JoinQuery.Agg", Supported: "Post without Agg; per-source transforms in Source.Pre"}
	}
	opt.SourcePar, opt.FinalPar = max(opt.SourcePar, 1), max(opt.FinalPar, 1)
	if opt.FaultPlan != nil && opt.Recovery == nil {
		opt.Recovery = &RecoveryOptions{}
	}
	p := &Plan{Joiner: q.chooseJoiner(opt), SumCol: -1, q: q, opt: opt, relOf: make(map[string]int, len(q.Sources))}
	if q.AdaptiveJoin {
		p.Hypercube, p.adapt, err = q.adaptivePolicy(spec)
	} else {
		p.Hypercube, err = core.BuildScheme(q.Scheme, spec, q.Machines)
	}
	if err != nil {
		return nil, err
	}
	// Every source encodes once, at the source; the executor routes the
	// bytes into the hypercube.
	joinIn := make([]PlanEdge, len(q.Sources))
	for i, s := range q.Sources {
		p.add(s.Name, opt.SourcePar)
		p.relOf[s.Name] = i
		joinIn[i] = PlanEdge{s.Name, "hypercube", p.Hypercube.GroupingFor(i)}
	}
	if q.AdaptiveJoin {
		// The matrix may grow into the whole budget, so the joiner runs at
		// full parallelism rather than the initial shape's.
		p.add(joiner, q.Machines, joinIn...)
	} else {
		p.add(joiner, p.Hypercube.Machines(), joinIn...)
	}
	switch {
	case p.Joiner.Policy == "AggViews":
		// HyLD with the aggregation inside the joiner (aggregate views); the
		// merge combines the joiners' partial aggregates.
		cols := make([]int, len(q.Agg.GroupBy))
		for i := range cols {
			cols[i] = i
		}
		p.add("merge", opt.FinalPar, edge(joiner, cols))
		if opt.Tier != nil {
			p.Ignored = append(p.Ignored, "Tier: aggregate views keep their state resident")
		}
	case q.Agg != nil:
		// The join emits delta rows; the aggregation runs downstream.
		offsets := q.relOffsets()
		p.GroupCols = make([]int, len(q.Agg.GroupBy))
		for i, g := range q.Agg.GroupBy {
			col, ok := colOf(g.E)
			if !ok {
				return nil, fmt.Errorf("squall: downstream aggregation needs plain column refs in GROUP BY")
			}
			p.GroupCols[i] = offsets[g.Rel] + col
		}
		if q.Agg.Sum != nil {
			col, ok := colOf(q.Agg.Sum.E)
			if !ok {
				return nil, fmt.Errorf("squall: downstream aggregation needs a plain column ref in SUM")
			}
			p.SumCol = offsets[q.Agg.Sum.Rel] + col
		}
		p.add("agg", opt.FinalPar, edge(joiner, p.GroupCols))
	}
	p.add("sink", 1, edge(p.Components[len(p.Components)-1].Name, nil))
	return p, nil
}

func (p *Plan) add(name string, par int, inputs ...PlanEdge) {
	p.Components = append(p.Components, PlanComponent{name, par, inputs})
}

// edge hashes from's rows on cols, or sends them all to task 0 without.
func edge(from string, cols []int) PlanEdge {
	if len(cols) == 0 {
		return PlanEdge{from, "global", dataflow.Global()}
	}
	return PlanEdge{from, fmt.Sprintf("fields%v", cols), dataflow.Fields(cols...)}
}

// chooseJoiner picks the joiner's operator and index policy. DBToaster
// under an aggregate over an equi-join keeps aggregate views unless a
// condition declines them; every other plan runs the local-join core,
// under the Views policy only when the graph has an intermediate view to
// keep.
func (q *JoinQuery) chooseJoiner(opt Options) JoinerPlan {
	declined := ""
	if q.Agg != nil && q.Local == DBToaster {
		switch {
		case !q.Graph.IsEquiOnly():
			declined = "the join graph has theta conjuncts (aggregate views are equi-only)"
		case q.ForceDeltaJoin:
			declined = "ForceDeltaJoin is set"
		case q.AdaptiveJoin:
			declined = "AdaptiveJoin is on (aggregate views cannot migrate)"
		case opt.Recovery != nil:
			declined = "Recovery is on (aggregate views cannot be checkpointed)"
		default:
			return JoinerPlan{"dbtoaster.AggJoin", "AggViews", "DBToaster under an aggregate over an equi-join: aggregate views inside the joiner"}
		}
	}
	j := JoinerPlan{"localjoin.Traditional", "Traditional", "Traditional policy: base-relation indexes re-probed on every arrival"}
	switch {
	case q.Local == DBToaster && dbtoaster.ViewLess(q.Graph):
		j.Reason = "DBToaster on a 2-relation graph: no intermediate view, base-relation core"
	case q.Local == DBToaster:
		j.Policy = "Views"
		j.Reason = fmt.Sprintf("DBToaster on a %d-relation graph: Views policy, intermediate views materialized and probed", q.Graph.NumRels)
	}
	if declined != "" {
		j.Reason += "; aggregate views declined: " + declined
	}
	return j
}

// buildEnv is what a host hands build besides the plan: the serving
// engine's or a worker's shared pressure ladder (with Options.Tier nil, it
// means default tiered state), the engine's tap spouts by source index, and
// a cluster's shared store for the recovery checkpoints.
type buildEnv struct {
	pressure *slab.Pressure
	taps     []dataflow.RowSpoutFactory
	ckpt     CheckpointStore
}

// execution is a built plan: the dataflow topology plus the options that
// run it, and the handles that assemble a Result afterwards. A sink is
// single-use, so every run builds afresh from its Plan.
type execution struct {
	plan     *Plan
	topo     *dataflow.Topology
	dopts    dataflow.Options
	sink     *limitSink
	pressure *slab.Pressure      // the ladder (nil untiered or uncapped), for Result.Pressure
	spill    *recovery.DiskStore // opened on TierOptions.SpillDir, else nil
}

// close releases the SpillDir segment store and its log once the run, if
// any, has returned; closing twice is safe. The log is scratch no later run
// can read, so a failed close or removal loses nothing and is not reported.
func (x *execution) close() {
	if x.spill != nil {
		_ = x.spill.Close()
	}
}

// result assembles the Result for a finished run.
func (x *execution) result(metrics *RunMetrics) *Result {
	r := &Result{Rows: x.sink.rows, RowCount: x.sink.count, Metrics: metrics, Plan: x.plan, JoinerComponent: joiner}
	if x.pressure != nil {
		ps := x.pressure.Stats()
		r.Pressure = &ps
	}
	return r
}

// Run executes the query to completion and returns rows plus metrics. The
// topology is: one spout per source (with its Pre pipeline co-located), a
// joiner component partitioned by the hypercube scheme, and — when Agg is
// set — a merger component combining the joiners' partial aggregates.
// When opt.Cluster is set the same topology is spread over squalld worker
// processes instead (see cluster.go).
func (q *JoinQuery) Run(opt Options) (*Result, error) {
	p, err := decide(q, opt)
	if err != nil {
		return nil, err
	}
	if opt.Cluster != nil {
		return runCluster(p)
	}
	x, err := build(p, buildEnv{})
	if err != nil {
		return nil, err
	}
	defer x.close()
	metrics, runErr := dataflow.Run(x.topo, x.dopts)
	return x.result(metrics), runErr
}

// build wires the plan's dataflow: every component's spout or bolt, the
// tiered state's stores and ladder, and the recovery policy.
func build(p *Plan, env buildEnv) (*execution, error) {
	q, opt := p.q, p.opt
	x := &execution{plan: p, sink: &limitSink{limit: opt.CollectLimit}}
	if env.pressure != nil && p.Joiner.Policy == "AggViews" {
		// The host's ladder charges the tiered arenas of tuple-level joins.
		cp := *p
		cp.Ignored = append(slices.Clip(p.Ignored), "MemCapBytes: aggregate views keep their state resident, outside the engine cap")
		x.plan = &cp
	}
	// Tiered state (PR 10): the join bolts capture the config, whose stores
	// and ladder are resolved once the topology has built.
	var tier *slab.TierConfig
	to := opt.Tier
	if to == nil && env.pressure != nil {
		to = &TierOptions{}
	}
	if to != nil {
		tier = &slab.TierConfig{SegmentRows: to.SegmentRows, CacheSegments: to.CacheSegments, KeyPrefix: joiner}
	}
	b := dataflow.NewBuilder()
	for i, c := range p.Components {
		switch {
		case i < len(env.taps) && env.taps[i] != nil:
			b.Spout(c.Name, c.Parallelism, env.taps[i]) // a shared scan's tap applies Pre itself
		case i < len(q.Sources) && q.Sources[i].Spout == nil:
			return nil, fmt.Errorf("squall: source %d (%s) needs a spout", i, c.Name)
		case i < len(q.Sources):
			b.Spout(c.Name, c.Parallelism, ops.PackedSpout(q.Sources[i].Spout, q.Sources[i].Pre))
		case c.Name == joiner && p.Joiner.Policy == "AggViews":
			spec := dbtoaster.AggSpec{GroupBy: q.Agg.GroupBy, Kind: dbtoaster.AggCount}
			if q.Agg.Kind != Count {
				spec.Kind, spec.Sum = dbtoaster.AggSum, q.Agg.Sum
			}
			b.Bolt(c.Name, c.Parallelism, ops.AggJoinBolt(q.Graph, spec, p.relOf))
		case c.Name == joiner:
			b.Bolt(c.Name, c.Parallelism, ops.JoinBolt(q.Graph, p.Joiner.Policy == "Views", p.relOf, q.Post, tier))
		case c.Name == "merge":
			b.Bolt(c.Name, c.Parallelism, ops.MergeBolt(len(q.Agg.GroupBy), q.Agg.Kind))
		case c.Name == "agg":
			b.Bolt(c.Name, c.Parallelism, ops.AggBolt(p.GroupCols, q.Agg.Kind, p.SumCol))
		default:
			b.Bolt(c.Name, c.Parallelism, func(int, int) dataflow.Bolt { return sinkBolt{x.sink} })
		}
		for _, e := range c.Inputs {
			b.Input(c.Name, e.From, e.g)
		}
	}
	var err error
	if x.topo, err = b.Build(); err != nil {
		return nil, err
	}
	if tier != nil {
		tier.Store = to.Store
		if tier.Store == nil && to.SpillDir != "" {
			if x.spill, err = recovery.NewDiskStore(to.SpillDir); err != nil {
				return nil, err
			}
			tier.Store = x.spill
		}
		if tier.Store == nil {
			tier.Store = recovery.NewMemStore()
		}
		if x.pressure = env.pressure; x.pressure == nil && to.MemCapBytes > 0 {
			x.pressure = slab.NewPressure(to.MemCapBytes)
		}
		tier.Pressure = x.pressure
	}
	var recPolicy *dataflow.RecoveryPolicy
	if opt.Recovery != nil {
		// A cluster's shared store replaces the configured one. Resolve the
		// default store here (rather than letting the policy default it) so
		// tiered checkpoints can reference segments in the store the policy
		// writes.
		recStore := opt.Recovery.Store
		if env.ckpt != nil {
			recStore = env.ckpt
		}
		if recStore == nil && tier != nil {
			recStore = recovery.NewMemStore()
		}
		// The §5 plan made live: a relation is peer-recoverable at a failed
		// machine iff the scheme replicates it, and the peers are the
		// machines sharing the failed one's coordinates on the relation's own
		// dimensions.
		recPolicy = &dataflow.RecoveryPolicy{
			Component:       joiner,
			RelOf:           p.relOf,
			NumRels:         len(q.Sources),
			Shape:           p.Hypercube,
			Store:           recStore,
			CheckpointEvery: opt.Recovery.CheckpointEvery,
			DisablePeer:     opt.Recovery.DisablePeer,
			Fault:           opt.FaultPlan,
		}
		if tier != nil {
			// Checkpoints go incremental when the checkpoint store can hold
			// sealed segments: spilling writes the checkpoint copy once, and
			// later manifests reference it instead of re-exporting the rows.
			if ss, ok := recStore.(slab.SegmentStore); ok {
				tier.CkStore = ss
			}
		}
	}
	x.dopts = dataflow.Options{
		Seed:            opt.Seed,
		ChannelBuf:      opt.ChannelBuf,
		BatchSize:       opt.BatchSize,
		MemLimitPerTask: opt.MemLimitPerTask,
		Adaptive:        p.adapt,
		Recovery:        recPolicy,
		Pressure:        x.pressure,
	}
	return x, nil
}

// adaptivePolicy builds the adaptive run's initial shape — core.OneBucket,
// pinned by the query's InitialRows x InitialCols or sized by the optimizer
// for the declared source sizes — and the dataflow control plane's policy
// that starts from it.
func (q *JoinQuery) adaptivePolicy(spec core.JoinSpec) (*core.Hypercube, *dataflow.AdaptivePolicy, error) {
	cfg := AdaptConfig{}
	if q.Adapt != nil {
		cfg = *q.Adapt
	}
	hc, err := core.OneBucket(spec, q.Machines, cfg.InitialRows, cfg.InitialCols)
	if err != nil {
		return nil, nil, err
	}
	rows, cols := hc.Matrix()
	return hc, &dataflow.AdaptivePolicy{
		Component:   joiner,
		RStream:     q.Sources[0].Name,
		SStream:     q.Sources[1].Name,
		InitialRows: rows,
		InitialCols: cols,
		ReportEvery: cfg.ReportEvery,
		MinGain:     cfg.MinGain,
		MinObserved: cfg.MinObserved,
		Static:      cfg.Static,
	}, nil
}

// relOffsets returns each relation's column offset in the concatenated join
// result row.
func (q *JoinQuery) relOffsets() []int {
	offsets := make([]int, len(q.Sources))
	off := 0
	for i, s := range q.Sources {
		offsets[i] = off
		off += s.Schema.Arity()
	}
	return offsets
}

func colOf(e expr.Expr) (int, bool) {
	if c, ok := e.(expr.Col); ok {
		return c.Index, true
	}
	return 0, false
}
