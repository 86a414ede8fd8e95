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
	"fmt"
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
	// LocalJoinKind selects the per-machine join algorithm.
	LocalJoinKind = ops.LocalJoinKind
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

// Scheme and local-join constants, re-exported.
const (
	HashHypercube   = core.HashHypercube
	RandomHypercube = core.RandomHypercube
	HybridHypercube = core.HybridHypercube

	Traditional = ops.Traditional
	DBToaster   = ops.DBToaster

	Count = ops.Count
	Sum   = ops.Sum
	Avg   = ops.Avg
)

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
	// raw marks Spout as execution-ready: plan() installs it verbatim instead
	// of wrapping it in ops.PackedSpout (and Pre is expected to be already
	// applied inside it). The serving engine sets it on the fan-out
	// taps it substitutes for shared sources, whose frames arrive
	// pre-encoded.
	raw bool
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
	// Post transforms each join result row (ignored when Agg is set).
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
	// ReportEvery, MinGain, MinObserved and MaxReshapes map onto
	// dataflow.AdaptivePolicy (zero = that policy's defaults).
	ReportEvery int
	MinGain     float64
	MinObserved int64
	MaxReshapes int
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
	// rewritten once sealed. Ignored by the aggregate-view fast path.
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

	// pressure, when set, is a shared ladder injected by the serving engine
	// (EngineOptions.MemCapBytes): every query's arenas charge it instead of
	// a per-run ladder built from MemCapBytes.
	pressure *slab.Pressure
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
	// Metrics are the dataflow metrics; Hypercube is the scheme used.
	Metrics   *RunMetrics
	Hypercube *core.Hypercube
	// JoinerComponent is the metrics key of the join component.
	JoinerComponent string
	// Pressure is the end-of-run snapshot of the tiered-state degradation
	// ladder (nil unless the run set Tier with a MemCapBytes): peak resident
	// bytes against the cap, spill/fault/quarantine counts and throttle
	// events. ResidentBytes reads zero here — finished tasks refund their
	// charges — so cap compliance is judged by PeakResident.
	Pressure *slab.PressureStats
	// LocalJoin is the plan as decided for the joiner: the operator every
	// joiner task runs and the rule that picked it, which is a function of
	// the query's shape as well as of JoinQuery.Local.
	LocalJoin LocalJoinPlan
}

// LocalJoinPlan names the local-join operator a plan's joiner tasks run and
// gives the one-line reason it was chosen.
type LocalJoinPlan struct {
	Operator string
	Reason   string
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

func (s *limitSink) factory() dataflow.BoltFactory {
	return func(task, ntasks int) dataflow.Bolt { return sinkBolt{s} }
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
		if s.Name == "" || s.Spout == nil {
			return core.JoinSpec{}, fmt.Errorf("squall: source %d needs a name and a spout", i)
		}
		spec.Names[i] = s.Name
		spec.Sizes[i] = max(s.Size, int64(1))
	}
	return spec, nil
}

// queryPlan is a fully built execution: the dataflow topology plus the
// options that run it, and the handles needed to assemble a Result
// afterwards. Building the plan is separated from running it so a cluster
// worker can rebuild the coordinator's exact execution from the query alone
// (see cluster.go).
type queryPlan struct {
	topo   *dataflow.Topology
	dopts  dataflow.Options
	sink   *limitSink
	hc     *core.Hypercube
	joiner string
	// pressure is the run's ladder (nil when untiered or uncapped), kept so
	// the Result can snapshot its counters after the run.
	pressure  *slab.Pressure
	localJoin LocalJoinPlan
	// components lists every component name in topology order — the
	// placement domain for cluster runs.
	components []string
	// spill is the segment store the plan opened on TierOptions.SpillDir
	// (nil otherwise); close releases it once the run is over.
	spill *recovery.DiskStore
}

// close releases what the plan opened for its run: the SpillDir segment
// store and its log. Every caller of plan closes the plan on every exit
// path once the plan's run, if any, has returned; closing twice is safe.
// The log is scratch that no later run can read, so a failed close or
// removal loses nothing and is not reported.
func (p *queryPlan) close() {
	if p.spill != nil {
		_ = p.spill.Close()
	}
}

// result assembles the Result for a finished run of this plan.
func (p *queryPlan) result(metrics *RunMetrics) *Result {
	r := &Result{
		Rows:            p.sink.rows,
		RowCount:        p.sink.count,
		Metrics:         metrics,
		Hypercube:       p.hc,
		JoinerComponent: p.joiner,
		LocalJoin:       p.localJoin,
	}
	if p.pressure != nil {
		ps := p.pressure.Stats()
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
	if opt.Cluster != nil {
		return q.runCluster(opt)
	}
	p, err := q.plan(opt)
	if err != nil {
		return nil, err
	}
	defer p.close()
	metrics, runErr := dataflow.Run(p.topo, p.dopts)
	return p.result(metrics), runErr
}

// aggViewsDeclined names the condition that keeps an aggregate query under
// DBToaster off aggregate views, or returns "" when none does.
func (q *JoinQuery) aggViewsDeclined(opt Options) string {
	switch {
	case q.Agg == nil || q.Local != DBToaster:
		return ""
	case !q.Graph.IsEquiOnly():
		return "the join graph has theta conjuncts (aggregate views are equi-only)"
	case q.ForceDeltaJoin:
		return "ForceDeltaJoin is set"
	case q.AdaptiveJoin:
		return "AdaptiveJoin is on (aggregate views cannot migrate)"
	case opt.Recovery != nil:
		return "Recovery is on (aggregate views cannot be checkpointed)"
	}
	return ""
}

// plan translates the query into a ready-to-run dataflow topology. A plan
// that fails closes the spill store it opened.
func (q *JoinQuery) plan(opt Options) (_ *queryPlan, err error) {
	const joiner = "joiner"
	var hc *core.Hypercube
	var policy *dataflow.AdaptivePolicy
	var spill *recovery.DiskStore
	defer func() {
		if err != nil && spill != nil {
			_ = spill.Close() // scratch, as in queryPlan.close
		}
	}()
	if q.AdaptiveJoin {
		hc, policy, err = q.adaptivePolicy(joiner)
	} else {
		hc, err = q.BuildScheme()
	}
	if err != nil {
		return nil, err
	}
	if opt.SourcePar <= 0 {
		opt.SourcePar = 1
	}
	if opt.FinalPar <= 0 {
		opt.FinalPar = 1
	}

	// Every source encodes once, at the source: Pre runs packed over the
	// encoded row and the executor routes the bytes.
	b := dataflow.NewBuilder()
	relOf := map[string]int{}
	for i, s := range q.Sources {
		spout := s.Spout
		if !s.raw {
			spout = ops.PackedSpout(s.Spout, s.Pre)
		}
		b.Spout(s.Name, opt.SourcePar, spout)
		relOf[s.Name] = i
	}

	sink := &limitSink{limit: opt.CollectLimit}
	joinerPar := hc.Machines()
	if q.AdaptiveJoin {
		// The matrix may grow into the whole budget, so the joiner runs at
		// full parallelism rather than the initial shape's.
		joinerPar = q.Machines
	}
	if opt.FaultPlan != nil && opt.Recovery == nil {
		opt.Recovery = &RecoveryOptions{}
	}
	// Tiered state (PR 10): resolve the segment store and pressure ladder up
	// front; the join bolts below capture the config. CkStore is wired after
	// the recovery policy resolves its checkpoint store.
	var tier *slab.TierConfig
	var pressure *slab.Pressure
	if opt.Tier != nil {
		to := opt.Tier
		store := to.Store
		if store == nil && to.SpillDir != "" {
			if spill, err = recovery.NewDiskStore(to.SpillDir); err != nil {
				return nil, err
			}
			store = spill
		}
		if store == nil {
			store = recovery.NewMemStore()
		}
		if to.pressure != nil {
			pressure = to.pressure
		} else if to.MemCapBytes > 0 {
			pressure = slab.NewPressure(to.MemCapBytes)
		}
		tier = &slab.TierConfig{
			SegmentRows:   to.SegmentRows,
			Store:         store,
			CacheSegments: to.CacheSegments,
			Pressure:      pressure,
			KeyPrefix:     joiner,
		}
	}
	declined := q.aggViewsDeclined(opt)
	useAggViews := q.Agg != nil && q.Local == DBToaster && declined == ""
	var localJoin LocalJoinPlan
	if useAggViews {
		localJoin = LocalJoinPlan{"dbtoaster.AggJoin", "DBToaster under an aggregate over an equi-join: aggregate views inside the joiner"}
	} else {
		localJoin.Operator, localJoin.Reason = ops.DescribeLocalJoin(q.Graph, q.Local)
		if declined != "" {
			localJoin.Reason += "; aggregate views declined: " + declined
		}
	}
	switch {
	case useAggViews:
		// HyLD with the aggregation inside the joiner (aggregate views).
		spec := dbtoaster.AggSpec{GroupBy: q.Agg.GroupBy, Kind: dbtoaster.AggCount}
		if q.Agg.Kind != Count {
			spec.Kind = dbtoaster.AggSum
			spec.Sum = q.Agg.Sum
		}
		b.Bolt(joiner, joinerPar, ops.AggJoinBolt(q.Graph, spec, relOf))
		b.Bolt("merge", opt.FinalPar, ops.MergeBolt(len(q.Agg.GroupBy), q.Agg.Kind))
		b.Bolt("sink", 1, sink.factory())
		b.Input("merge", joiner, mergeGrouping(len(q.Agg.GroupBy)))
		b.Input("sink", "merge", dataflow.Global())
	case q.Agg != nil:
		// Join emits delta rows; aggregation runs downstream.
		offsets := q.relOffsets()
		groupCols := make([]int, len(q.Agg.GroupBy))
		for i, g := range q.Agg.GroupBy {
			col, ok := colOf(g.E)
			if !ok {
				return nil, fmt.Errorf("squall: downstream aggregation needs plain column refs in GROUP BY")
			}
			groupCols[i] = offsets[g.Rel] + col
		}
		sumCol := -1
		if q.Agg.Sum != nil {
			col, ok := colOf(q.Agg.Sum.E)
			if !ok {
				return nil, fmt.Errorf("squall: downstream aggregation needs a plain column ref in SUM")
			}
			sumCol = offsets[q.Agg.Sum.Rel] + col
		}
		b.Bolt(joiner, joinerPar, ops.JoinBolt(q.Graph, q.Local, relOf, nil, tier))
		b.Bolt("agg", opt.FinalPar, ops.AggBolt(groupCols, q.Agg.Kind, sumCol))
		b.Bolt("sink", 1, sink.factory())
		b.Input("agg", joiner, dataflow.Fields(groupCols...))
		b.Input("sink", "agg", dataflow.Global())
	default:
		b.Bolt(joiner, joinerPar, ops.JoinBolt(q.Graph, q.Local, relOf, q.Post, tier))
		b.Bolt("sink", 1, sink.factory())
		b.Input("sink", joiner, dataflow.Global())
	}
	for i, s := range q.Sources {
		b.Input(joiner, s.Name, hc.GroupingFor(i))
	}
	topo, err := b.Build()
	if err != nil {
		return nil, err
	}
	var recPolicy *dataflow.RecoveryPolicy
	if opt.Recovery != nil {
		recStore := opt.Recovery.Store
		if recStore == nil && tier != nil {
			// Resolve the default store here (rather than letting the policy
			// default it) so tiered checkpoints can reference segments in it.
			recStore = recovery.NewMemStore()
		}
		// The §5 plan made live: a relation is peer-recoverable at a failed
		// machine iff the scheme replicates it, and the peers are the
		// machines sharing the failed one's coordinates on the relation's own
		// dimensions.
		recPolicy = &dataflow.RecoveryPolicy{
			Component:       joiner,
			RelOf:           relOf,
			NumRels:         len(q.Sources),
			Shape:           hc,
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
	components := make([]string, 0, len(q.Sources)+3)
	for _, s := range q.Sources {
		components = append(components, s.Name)
	}
	components = append(components, joiner)
	switch {
	case useAggViews:
		components = append(components, "merge", "sink")
	case q.Agg != nil:
		components = append(components, "agg", "sink")
	default:
		components = append(components, "sink")
	}
	return &queryPlan{
		topo: topo,
		dopts: dataflow.Options{
			Seed:            opt.Seed,
			ChannelBuf:      opt.ChannelBuf,
			BatchSize:       opt.BatchSize,
			MemLimitPerTask: opt.MemLimitPerTask,
			Adaptive:        policy,
			Recovery:        recPolicy,
			Pressure:        pressure,
		},
		sink:       sink,
		hc:         hc,
		joiner:     joiner,
		pressure:   pressure,
		localJoin:  localJoin,
		components: components,
		spill:      spill,
	}, nil
}

// adaptivePolicy builds the adaptive run's initial shape — core.OneBucket,
// pinned by the query's InitialRows x InitialCols or sized by the optimizer
// for the declared source sizes — and the dataflow control plane's policy
// that starts from it.
func (q *JoinQuery) adaptivePolicy(joiner string) (*core.Hypercube, *dataflow.AdaptivePolicy, error) {
	cfg := AdaptConfig{}
	if q.Adapt != nil {
		cfg = *q.Adapt
	}
	spec, err := q.spec()
	if err != nil {
		return nil, nil, err
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
		MaxReshapes: cfg.MaxReshapes,
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

// mergeGrouping routes partial rows by the group columns, or globally when
// there is no grouping.
func mergeGrouping(ngroup int) dataflow.Grouping {
	if ngroup == 0 {
		return dataflow.Global()
	}
	cols := make([]int, ngroup)
	for i := range cols {
		cols[i] = i
	}
	return dataflow.Fields(cols...)
}
