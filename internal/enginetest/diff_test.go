package enginetest

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"squall"
	"squall/internal/core"
	"squall/internal/dataflow"
	"squall/internal/expr"
	"squall/internal/recovery"
	"squall/internal/types"
)

var (
	allSchemes = []squall.SchemeKind{squall.HashHypercube, squall.RandomHypercube, squall.HybridHypercube}
	allLocals  = []squall.LocalJoinKind{squall.Traditional, squall.DBToaster}
	allBatches = []int{1, 3, 64}
	// allMachines sizes the matrix's cluster: 6 factors into several grid
	// shapes; 7 is prime, so every hypercube grid over it is one-dimensional
	// or leaves machines unused.
	allMachines = []int{6, 7}
	// execLegs are the execution paths crossed with the static matrix: the
	// default (one producer task per relation, operators' row faces), two
	// producer tasks per relation (per-producer replay buffers and
	// sequences; see EngineConfig.SourcePar), and computed join keys
	// (evaluated where the row path reads them; see EngineConfig.ExprKeys).
	execLegs = []struct {
		sourcePar int
		exprKeys  bool
	}{{1, false}, {2, false}, {1, true}}
)

// TestDifferentialAllConfigs is the harness proper: randomized workloads
// through every (machines x scheme x local join x batch size x adaptive
// on/off x execution leg) combination, bag-compared against the nested-loop
// oracle. Seeds are logged so any failure reproduces by pinning the seed.
func TestDifferentialAllConfigs(t *testing.T) {
	cases := []struct {
		name               string
		seed               int64
		rels, rows, domain int
		theta              bool
		band               bool
	}{
		{"2way-equi", 11, 2, 200, 25, false, false},
		{"2way-theta", 12, 2, 120, 20, true, false},
		{"3way-chain", 13, 3, 60, 10, false, false},
		// Band first (Band3Workload): DBToaster range-probes a view's tree
		// index.
		{"3way-band", 14, 3, 40, 10, false, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			t.Logf("workload seed=%d rels=%d rows=%d domain=%d theta=%v band=%v", c.seed, c.rels, c.rows, c.domain, c.theta, c.band)
			w := RandomWorkload(c.seed, c.rels, c.rows, c.domain, c.theta)
			if c.band {
				w = Band3Workload(c.seed, c.rows, c.domain)
			}
			ref := w.ReferenceBag()
			if len(ref) == 0 {
				t.Fatalf("degenerate workload: oracle produced no rows")
			}
			for _, machines := range allMachines {
				for _, scheme := range allSchemes {
					for _, local := range allLocals {
						for _, batch := range allBatches {
							for _, adaptive := range []bool{false, true} {
								if adaptive && c.rels != 2 {
									continue // the adaptive 1-Bucket operator is 2-way
								}
								for _, leg := range execLegs {
									if leg.exprKeys && adaptive && batch != allBatches[0] {
										// Adaptive edges route without
										// keys: one batch point covers the
										// computed-keys corner. Two
										// producers per relation cross
										// every batch point, so reshapes
										// re-route pending rows at each.
										continue
									}
									ec := EngineConfig{
										Scheme: scheme, Local: local, BatchSize: batch,
										Adaptive: adaptive, SourcePar: leg.sourcePar, ExprKeys: leg.exprKeys,
										Machines: machines, Seed: c.seed,
									}
									name := ec.String()
									if machines != allMachines[0] {
										name += fmt.Sprintf("/machines=%d", machines)
									}
									t.Run(name, func(t *testing.T) {
										got, _, err := w.RunEngine(ec)
										if err != nil {
											t.Fatalf("seed=%d %v: %v", c.seed, ec, err)
										}
										if diff := DiffBags(ref, got); diff != "" {
											t.Fatalf("seed=%d %v: engine diverges from oracle:\n%s", c.seed, ec, diff)
										}
									})
								}
							}
						}
					}
				}
			}
		})
	}
}

// TestExprKeysDefeatLowering pins what the computed-keys leg is for: every
// rewritten conjunct side is an expression, not a column ref, so the leg
// runs the row path's computed-key reads (evaluated where they are read)
// instead of repeating the column-key legs.
func TestExprKeysDefeatLowering(t *testing.T) {
	w := RandomWorkload(1, 3, 4, 2, true)
	ec := EngineConfig{Scheme: squall.HashHypercube, BatchSize: 1, Machines: 6}
	ec.ExprKeys = true
	q, _ := w.Plan(ec)
	for i, c := range q.Graph.Conjuncts {
		for _, e := range []expr.Expr{c.Left, c.Right} {
			if _, ok := expr.ColIndex(e); ok {
				t.Fatalf("conjunct %d (%v): side %v is still a column ref", i, c, e)
			}
		}
	}
	for i, c := range q.Graph.Conjuncts {
		want := w.Graph.Conjuncts[i]
		if c.LRel != want.LRel || c.RRel != want.RRel || c.Op != want.Op {
			t.Fatalf("conjunct %d: rewrite changed its relations or operator: %v, want %v", i, c, want)
		}
	}
}

// TestDifferentialSpill is the tiered-state acceptance matrix (PR 10): the
// same workloads run with joiner arenas sealing 64-row checksummed segments
// and spilling every sealed segment, so probes continually fault state back
// in through the CRC-verified read path. Each configuration must stay
// bag-equal to the oracle — with a mid-run task kill on top, recovery runs
// through incremental (segment-referencing) checkpoints. Each workload runs
// two seeds: one spills to the in-process MemStore, whose blobs fault in
// without a copy, the other to a DiskStore log, whose blobs fault into
// recycled buffers. The band legs put a range probe first: on the 2-way
// BandWorkload the joiner's frame-at-a-time probe gathers tree-index
// candidates and walks them segment by segment; on the 3-way Band3Workload
// DBToaster range-probes a combo view and faults its rows in per
// candidate.
func TestDifferentialSpill(t *testing.T) {
	cases := []struct {
		name               string
		seed               int64
		rels, rows, domain int
		theta              bool
		disk               bool
		band               bool
	}{
		{"2way-equi", 31, 2, 400, 25, false, false, false},
		{"2way-equi-disk", 34, 2, 400, 25, false, true, false},
		{"3way-chain", 32, 3, 150, 10, false, false, false},
		{"3way-chain-disk", 35, 3, 150, 10, false, true, false},
		{"2way-band-disk", 36, 2, 300, 25, true, true, true},
		{"3way-band-disk", 37, 3, 200, 100, false, true, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			t.Logf("workload seed=%d rels=%d rows=%d domain=%d theta=%v disk=%v band=%v", c.seed, c.rels, c.rows, c.domain, c.theta, c.disk, c.band)
			spillDir := ""
			if c.disk {
				spillDir = t.TempDir()
			}
			w := RandomWorkload(c.seed, c.rels, c.rows, c.domain, c.theta)
			switch {
			case c.band && c.rels == 3:
				w = Band3Workload(c.seed, c.rows, c.domain)
			case c.band:
				w = BandWorkload(c.seed, c.rows, c.domain)
			}
			ref := w.ReferenceBag()
			if len(ref) == 0 {
				t.Fatalf("degenerate workload: oracle produced no rows")
			}
			for _, local := range allLocals {
				for _, batch := range []int{1, 64} {
					for _, kill := range []bool{false, true} {
						// Two machines keep per-task state large enough to
						// seal segments (sealing needs 64 rows per arena).
						ec := EngineConfig{
							Scheme: squall.HashHypercube, Local: local, BatchSize: batch,
							Spill: true, SpillDir: spillDir, Kill: kill, Machines: 2, Seed: c.seed,
						}
						t.Run(ec.String(), func(t *testing.T) {
							got, _, err := w.RunEngine(ec)
							if err != nil {
								t.Fatalf("seed=%d %v: %v", c.seed, ec, err)
							}
							if diff := DiffBags(ref, got); diff != "" {
								t.Fatalf("seed=%d %v: engine diverges from oracle:\n%s", c.seed, ec, diff)
							}
						})
					}
				}
			}
			// Computed keys under a kill: the segment restore lands in the
			// Traditional joiner's computed-key insertRow. One-row frames
			// keep input flowing after the kill, so later arrivals probe the
			// restored rows.
			ec := EngineConfig{
				Scheme: squall.HashHypercube, Local: squall.Traditional, BatchSize: 1,
				Spill: true, SpillDir: spillDir, Kill: true, ExprKeys: true, Machines: 2, Seed: c.seed,
			}
			t.Run(ec.String(), func(t *testing.T) {
				q, opts := w.Plan(ec)
				opts.FaultPlan.AfterTuples = sealedKillPoint(t, w, q, opts)
				res, err := q.Run(opts)
				if err != nil {
					t.Fatalf("seed=%d %v: %v", c.seed, ec, err)
				}
				got := make(map[string]int, len(res.Rows))
				for _, r := range res.Rows {
					got[r.Key()]++
				}
				if diff := DiffBags(ref, got); diff != "" {
					t.Fatalf("seed=%d %v: engine diverges from oracle:\n%s", c.seed, ec, diff)
				}
				if k := res.Metrics.Recovery.Kills.Load(); k != 1 {
					t.Fatalf("seed=%d %v: %d kills recovered, want 1", c.seed, ec, k)
				}
				if res.Metrics.Recovery.SegmentBytes.Load() == 0 {
					t.Fatalf("seed=%d %v: the kill restored no sealed segment", c.seed, ec)
				}
			})
		})
	}
}

// sealedKillPoint picks the joiner task kill point at which, under every
// interleaving of the task's input, the last checkpoint before the kill
// holds a sealed segment of a relation that recovers through the checkpoint
// route (no peer holds its rows). Until some such relation has more than
// SegmentRows rows the task can have received at most every row of the
// peer-routed relations and SegmentRows of each checkpoint-routed one; the
// kill waits one checkpoint interval past that. The task's rows per relation
// come from routing the workload through the plan's cube, and the point must
// fall before the task's last row, or the kill would never fire.
func sealedKillPoint(t *testing.T, w *Workload, q *squall.JoinQuery, opts squall.Options) int {
	t.Helper()
	task := opts.FaultPlan.Task
	hc, err := q.BuildScheme()
	if err != nil {
		t.Fatal(err)
	}
	ms, err := core.Moves(hc, hc, []int{task})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	var buf []int
	total, kill := 0, opts.Recovery.CheckpointEvery+1
	rows := make([]int, len(w.Rels))
	for rel, tuples := range w.Rels {
		for _, tu := range tuples {
			if buf, err = hc.Targets(rel, tu, rng, buf); err != nil {
				t.Fatal(err)
			}
			if slices.Contains(buf, task) {
				rows[rel]++
			}
		}
		total += rows[rel]
		if slices.Contains(ms.From[rel][task], core.Checkpoint) {
			kill += min(rows[rel], opts.Tier.SegmentRows)
		} else {
			kill += rows[rel]
		}
	}
	if kill >= total {
		t.Fatalf("setup: task %d holds %d rows (%v per relation), too few to seal a checkpoint-routed relation before a kill", task, total, rows)
	}
	t.Logf("task %d holds %v rows per relation; kill after %d of %d", task, rows, kill, total)
	return kill
}

// TestSpillActuallySpills pins the dimension's premise: with the spill knobs
// on, sealed segments really do land in the segment store (a regression
// here would quietly turn TestDifferentialSpill into a plain slab run), on
// the equi workload and on the band leg's.
func TestSpillActuallySpills(t *testing.T) {
	for name, w := range map[string]*Workload{
		"equi": RandomWorkload(33, 2, 400, 25, false),
		"band": BandWorkload(36, 300, 25),
	} {
		t.Run(name, func(t *testing.T) {
			ref := w.ReferenceBag()
			q, opts := w.Plan(EngineConfig{
				Scheme: squall.HashHypercube, Local: squall.Traditional, BatchSize: 64,
				Spill: true, Machines: 2, Seed: w.Seed,
			})
			ms := recovery.NewMemStore()
			opts.Tier.Store = ms
			res, err := q.Run(opts)
			if err != nil {
				t.Fatal(err)
			}
			got := make(map[string]int, len(res.Rows))
			for _, r := range res.Rows {
				got[r.Key()]++
			}
			if diff := DiffBags(ref, got); diff != "" {
				t.Fatalf("engine diverges from oracle:\n%s", diff)
			}
			if ms.Bytes() == 0 {
				t.Fatalf("no sealed segments reached the spill store; the spill dimension is not exercising the tier")
			}
		})
	}
}

// TestDifferentialChaosKill is the fault-tolerance acceptance matrix: every
// (scheme x local join x batch x adaptive x execution leg) configuration
// runs with one joiner task killed at a seeded point and must stay bag-equal to the
// nested-loop oracle — the kill is recovered live (peer refetch where the
// scheme replicates, checkpoint + replay elsewhere), never surfaced as an
// error.
func TestDifferentialChaosKill(t *testing.T) {
	cases := []struct {
		name               string
		seed               int64
		rels, rows, domain int
		theta              bool
	}{
		{"2way-equi", 31, 2, 220, 25, false},
		{"2way-theta", 32, 2, 120, 20, true},
		{"3way-chain", 33, 3, 60, 10, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			t.Logf("workload seed=%d rels=%d rows=%d domain=%d theta=%v", c.seed, c.rels, c.rows, c.domain, c.theta)
			w := RandomWorkload(c.seed, c.rels, c.rows, c.domain, c.theta)
			ref := w.ReferenceBag()
			if len(ref) == 0 {
				t.Fatalf("degenerate workload: oracle produced no rows")
			}
			for _, scheme := range allSchemes {
				for _, local := range allLocals {
					for _, batch := range allBatches {
						for _, adaptive := range []bool{false, true} {
							if adaptive && c.rels != 2 {
								continue // the adaptive 1-Bucket operator is 2-way
							}
							for _, leg := range execLegs {
								if leg != execLegs[0] && (adaptive || batch != allBatches[2]) {
									// The corners are covered at one batch
									// point; the default runs the full
									// kill matrix.
									continue
								}
								ec := EngineConfig{
									Scheme: scheme, Local: local, BatchSize: batch,
									Adaptive: adaptive, SourcePar: leg.sourcePar, ExprKeys: leg.exprKeys,
									Kill: true, Machines: 6, Seed: c.seed,
								}
								t.Run(ec.String(), func(t *testing.T) {
									got, res, err := w.RunEngine(ec)
									if err != nil {
										t.Fatalf("seed=%d %v: %v", c.seed, ec, err)
									}
									if f := res.Metrics.Recovery.Faults.Load(); f != 1 {
										t.Fatalf("seed=%d %v: %d faults recovered, want 1", c.seed, ec, f)
									}
									if diff := DiffBags(ref, got); diff != "" {
										t.Fatalf("seed=%d %v: engine diverges from oracle after kill:\n%s", c.seed, ec, diff)
									}
								})
							}
						}
					}
				}
			}
		})
	}
}

// TestChaosKillMidStreamPeerRoute pins the §5 route on a mid-stream kill: a
// Random-Hypercube replicates every relation, so the killed task's state
// must come back from peers, and post-recovery arrivals must join against
// the restored state (a wrong restore shows up as a bag mismatch).
func TestChaosKillMidStreamPeerRoute(t *testing.T) {
	const seed = int64(41)
	w := RandomWorkload(seed, 2, 900, 60, false)
	ref := w.ReferenceBag()
	ec := EngineConfig{
		Scheme: squall.RandomHypercube, Local: squall.Traditional,
		BatchSize: 8, Kill: true, Machines: 6, Seed: seed,
	}
	got, res, err := w.RunEngine(ec)
	if err != nil {
		t.Fatalf("seed=%d: %v", seed, err)
	}
	rm := &res.Metrics.Recovery
	if rm.Faults.Load() != 1 {
		t.Fatalf("seed=%d: %d faults, want 1", seed, rm.Faults.Load())
	}
	if rm.PeerRels.Load() == 0 {
		t.Fatalf("seed=%d: Random-Hypercube kill recovered without any peer route (peer=%d ckpt=%d)",
			seed, rm.PeerRels.Load(), rm.CheckpointRels.Load())
	}
	if rm.RestoredTuples.Load() == 0 {
		t.Fatalf("seed=%d: no tuples restored", seed)
	}
	if diff := DiffBags(ref, got); diff != "" {
		t.Fatalf("seed=%d: diverges from oracle after mid-stream kill:\n%s", seed, diff)
	}
}

// TestDifferentialAdaptiveDrift is the acceptance scenario: under a
// heavily drifting |R| : |S| ratio the adaptive run must reshape at least
// once, report migrated bytes, and stay bag-equal to both the oracle and
// the frozen-matrix static run. The computed-keys leg migrates through the
// Traditional joiner's decode-and-Insert import branch.
func TestDifferentialAdaptiveDrift(t *testing.T) {
	const seed = int64(21)
	t.Logf("workload seed=%d", seed)
	w := RandomWorkload(seed, 2, 60, 40, false)
	// Drift: rebuild relation 0 much larger than relation 1, so the ratio
	// the controller observes wanders far from the initial square-ish guess.
	big := RandomWorkload(seed+1, 2, 6000, 40, false)
	w.Rels[0] = big.Rels[0]
	ref := w.ReferenceBag()
	for _, exprKeys := range []bool{false, true} {
		t.Run(fmt.Sprintf("exprkeys=%v", exprKeys), func(t *testing.T) {
			adaptiveDrift(t, w, ref, seed, exprKeys)
		})
	}
}

func adaptiveDrift(t *testing.T, w *Workload, ref map[string]int, seed int64, exprKeys bool) {
	// A moderate batch size keeps the in-flight tuple budget small enough
	// that the controller observes the drift while the stream is live.
	adaptiveCfg := EngineConfig{
		Scheme: squall.RandomHypercube, Local: squall.Traditional,
		BatchSize: 16, Adaptive: true, ExprKeys: exprKeys, Machines: 8, Seed: seed,
	}
	staticCfg := adaptiveCfg
	staticCfg.Adaptive = false

	q := w.query(adaptiveCfg)
	// Start from the worst shape for an R-heavy stream: one row means every
	// machine receives every R tuple.
	q.Adapt.InitialRows, q.Adapt.InitialCols = 1, 8
	// From 1x8 an R-heavy reshape keeps R in place and moves S, so S must
	// be stored before the controller decides. S's first batches are in the
	// joiner inboxes, ahead of any R tuple, by the time R starts.
	q.Sources[1].Spout, q.Sources[0].Spout = afterEOS(q.Sources[1].Spout, q.Sources[0].Spout)
	res, err := q.Run(squall.Options{Seed: seed, BatchSize: 16, ChannelBuf: 8})
	if err != nil {
		t.Fatalf("seed=%d adaptive run: %v", seed, err)
	}
	if got := res.Metrics.Adapt.Reshapes.Load(); got < 1 {
		t.Fatalf("seed=%d: adaptive run performed %d reshapes, want >= 1", seed, got)
	}
	if got := res.Metrics.Adapt.MigratedBytes.Load(); got <= 0 {
		t.Fatalf("seed=%d: adaptive run reported %d migrated bytes, want > 0", seed, got)
	}
	adaptiveBag := make(map[string]int, len(res.Rows))
	for _, r := range res.Rows {
		adaptiveBag[r.Key()]++
	}
	if diff := DiffBags(ref, adaptiveBag); diff != "" {
		t.Fatalf("seed=%d: adaptive run diverges from oracle:\n%s", seed, diff)
	}

	staticBag, _, err := w.RunEngine(staticCfg)
	if err != nil {
		t.Fatalf("seed=%d static run: %v", seed, err)
	}
	if diff := DiffBags(staticBag, adaptiveBag); diff != "" {
		t.Fatalf("seed=%d: adaptive and static runs disagree:\n%s", seed, diff)
	}
}

// TestDifferentialViewLessDBToaster crosses the local-join rule with the
// planes that reach into operator state: Local: DBToaster on 2-relation
// graphs runs the base-relation core (Result.Plan says so), and must
// stay bag-equal to the oracle under a capped tier, a killed-and-recovered
// task on tiered state, and adaptive reshaping (with and without a kill).
// The two-process cluster leg of the same crossing is
// in multiproc_test.go.
func TestDifferentialViewLessDBToaster(t *testing.T) {
	for _, c := range []struct {
		name  string
		seed  int64
		theta bool
	}{
		{"2way-equi", 51, false},
		{"2way-theta", 52, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			w := RandomWorkload(c.seed, 2, 1200, 60, c.theta)
			ref := w.ReferenceBag()
			if len(ref) == 0 {
				t.Fatalf("degenerate workload: oracle produced no rows")
			}
			base := EngineConfig{
				Scheme: squall.HashHypercube, Local: squall.DBToaster, BatchSize: 16,
				Machines: 2, Seed: c.seed,
			}
			run := func(t *testing.T, ec EngineConfig, tune func(*squall.Options)) *squall.Result {
				t.Helper()
				q, opts := w.Plan(ec)
				if tune != nil {
					tune(&opts)
				}
				res, err := q.Run(opts)
				if err != nil {
					t.Fatalf("seed=%d %v: %v", c.seed, ec, err)
				}
				got := make(map[string]int, len(res.Rows))
				for _, r := range res.Rows {
					got[r.Key()]++
				}
				if diff := DiffBags(ref, got); diff != "" {
					t.Fatalf("seed=%d %v: engine diverges from oracle:\n%s", c.seed, ec, diff)
				}
				if res.Plan.Joiner.Operator != "localjoin.Traditional" {
					t.Fatalf("seed=%d %v: joiner ran %q (%s), want the base-relation core",
						c.seed, ec, res.Plan.Joiner.Operator, res.Plan.Joiner.Reason)
				}
				return res
			}

			t.Run("tier+cap", func(t *testing.T) {
				ec := base
				ec.Spill = true
				// Size the cap from the join's own residency: an effectively
				// uncapped ladder never spills, so its peak is the true
				// arena footprint.
				uncapped := run(t, ec, func(o *squall.Options) { o.Tier.MemCapBytes = 1 << 40 })
				limit := uncapped.Pressure.PeakResident / 2
				for _, kill := range []bool{false, true} {
					ec.Kill = kill
					res := run(t, ec, func(o *squall.Options) { o.Tier.MemCapBytes = limit })
					if res.Pressure.Spills == 0 {
						t.Fatalf("kill=%v: a cap at half the uncapped peak (%d B) spilled nothing", kill, limit)
					}
					if kill && res.Metrics.Recovery.Faults.Load() != 1 {
						t.Fatalf("%d faults recovered, want 1", res.Metrics.Recovery.Faults.Load())
					}
				}
			})
			for _, ec := range []EngineConfig{
				{Kill: true},
				{Spill: true, Kill: true},
				{Adaptive: true},
				{Adaptive: true, Kill: true},
			} {
				ec.Scheme, ec.Local, ec.BatchSize, ec.Seed = base.Scheme, base.Local, base.BatchSize, base.Seed
				ec.Machines = 4
				t.Run(ec.String(), func(t *testing.T) {
					res := run(t, ec, nil)
					if ec.Kill && res.Metrics.Recovery.Faults.Load() != 1 {
						t.Fatalf("%d faults recovered, want 1", res.Metrics.Recovery.Faults.Load())
					}
				})
			}
		})
	}
}

// TestDifferentialAggregates is the aggregate dimension: COUNT(*) and SUM
// over a 2-way graph and a 3-way chain with zipf keys, grouped by columns of
// different relations, run under DBToaster — aggregate views in the joiner —
// across scheme x batch x final parallelism x computed keys on/off and
// compared, as bags, with the oracle aggregated in plain Go. One
// ForceDeltaJoin leg runs the same queries with deltas shipped to a
// downstream aggregation instead (column-ref GROUP BY only: a downstream
// aggregation rejects computed keys at plan time).
// The two-process cluster leg is in multiproc_test.go.
func TestDifferentialAggregates(t *testing.T) {
	for _, c := range []struct {
		name               string
		seed               int64
		rels, rows, domain int
	}{
		{"2way", 61, 2, 300, 30},
		{"3way-chain", 62, 3, 120, 12},
	} {
		t.Run(c.name, func(t *testing.T) {
			w := ZipfWorkload(c.seed, c.rels, c.rows, c.domain)
			last := c.rels - 1
			for _, agg := range []*AggConfig{
				{GroupBy: []AggCol{{0, 1}, {last, 1}}},
				{GroupBy: []AggCol{{last, 1}}, Sum: &AggCol{0, 2}},
			} {
				ref := w.ReferenceAggBag(agg)
				if len(ref) < 4 {
					t.Fatalf("degenerate workload: oracle produced %d groups", len(ref))
				}
				run := func(t *testing.T, ec EngineConfig, operator, reason string) {
					got, res, err := w.RunEngine(ec)
					if err != nil {
						t.Fatalf("seed=%d %v: %v", c.seed, ec, err)
					}
					if diff := DiffBags(ref, got); diff != "" {
						t.Fatalf("seed=%d %v: engine diverges from oracle:\n%s", c.seed, ec, diff)
					}
					if res.Plan.Joiner.Operator != operator || !strings.Contains(res.Plan.Joiner.Reason, reason) {
						t.Fatalf("seed=%d %v: joiner ran %q (%s), want %s (%s)", c.seed, ec, res.Plan.Joiner.Operator, res.Plan.Joiner.Reason, operator, reason)
					}
				}
				for _, scheme := range allSchemes {
					for _, batch := range []int{1, 64} {
						for _, finalPar := range []int{1, 2} {
							for _, exprKeys := range []bool{false, true} {
								ec := EngineConfig{
									Scheme: scheme, Local: squall.DBToaster, BatchSize: batch,
									Agg: agg, FinalPar: finalPar, ExprKeys: exprKeys,
									Machines: 6, Seed: c.seed,
								}
								t.Run(ec.String(), func(t *testing.T) { run(t, ec, "dbtoaster.AggJoin", "aggregate views") })
							}
						}
					}
				}
				ec := EngineConfig{
					Scheme: squall.HashHypercube, Local: squall.DBToaster, BatchSize: 16,
					Agg: agg, ForceDeltaJoin: true, FinalPar: 2, Machines: 6, Seed: c.seed,
				}
				policy := "Views policy"
				if c.rels == 2 {
					policy = "no intermediate view"
				}
				t.Run(ec.String(), func(t *testing.T) { run(t, ec, "localjoin.Traditional", policy) })
			}
		})
	}
}

// afterEOS wraps two spout factories so no task of the second emits until
// every task of the first has reached end of stream.
func afterEOS(first, second dataflow.SpoutFactory) (dataflow.SpoutFactory, dataflow.SpoutFactory) {
	var once sync.Once
	var left sync.WaitGroup
	gate := make(chan struct{})
	wrapFirst := func(task, ntasks int) dataflow.Spout {
		once.Do(func() {
			left.Add(ntasks)
			go func() { left.Wait(); close(gate) }()
		})
		return &eosSpout{Spout: first(task, ntasks), done: left.Done}
	}
	wrapSecond := func(task, ntasks int) dataflow.Spout {
		return &gatedSpout{Spout: second(task, ntasks), gate: gate}
	}
	return wrapFirst, wrapSecond
}

type eosSpout struct {
	dataflow.Spout
	done func()
}

func (s *eosSpout) Next() (types.Tuple, bool) {
	t, ok := s.Spout.Next()
	if !ok && s.done != nil {
		s.done()
		s.done = nil
	}
	return t, ok
}

type gatedSpout struct {
	dataflow.Spout
	gate <-chan struct{}
}

func (s *gatedSpout) Next() (types.Tuple, bool) {
	<-s.gate
	return s.Spout.Next()
}
