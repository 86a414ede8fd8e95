// squallbench regenerates the paper's tables and figures as text tables.
//
//	go run ./cmd/squallbench [-json] [-smoke] [figure5|figure6|figure7|figure8|table1|table2|section5|batch|adapt|recover|exec|vec|net|chaos|serve|spill|all]
//	go run ./cmd/squallbench compare old.json new.json
//
// The extra `batch` experiment measures the PR 1 batched-transport speedup
// (network-hop and full-join stages at batch=1 vs the default batch size,
// plus decode allocation counts); with -json it also writes the results to
// BENCH_PR1.json for the perf trajectory.
//
// The `adapt` experiment (PR 2) runs the §5 drifting-ratio comparison of
// the live adaptive 1-Bucket operator against static matrices; with -json
// it writes BENCH_PR2.json, and with -smoke it runs at CI scale. It exits
// non-zero when the adaptive run fails the paper's claims, so CI uses it
// as an acceptance gate.
//
// The `recover` experiment (PR 4) reproduces the §5 fault-tolerance claim
// live: a replicated Random-Hypercube join with one joiner task killed
// mid-run, recovered once from a peer machine and once from a disk
// checkpoint. With -json it writes BENCH_PR4.json; it exits non-zero when a
// recovered run stops being bag-equal to the fault-free run, when peer
// recovery stops beating disk recovery, or when the recovered run's
// end-to-end overhead reaches 25% (the CI gate).
//
// The `exec` experiment (PR 5) compares the packed-row execution path
// (wire.Cursor views, lowered predicates, frame transport, blitted slab
// inserts) against the boxed tuple pipeline: per-tuple cost and allocations
// on the source -> join hot path, plus end-to-end full-join throughput at
// the 1M-tuple point. With -json it writes BENCH_PR5.json; it exits
// non-zero when packed execution stops paying for itself (the CI gate).
//
// The `vec` experiment (PR 6) compares vectorized frame execution (column
// footers, selection-vector kernels, group-wise frame folds) against the
// PR 5 packed-row baseline and the boxed tuple pipeline: per-tuple cost on
// the select/agg hot path plus the end-to-end aggregated full join in all
// three modes. With -json it writes BENCH_PR6.json; it exits non-zero when
// the vectorized path misses its speedup gate or any mode's results
// diverge (the CI gate).
//
// The `net` experiment (PR 7) runs the same join once in-process and once as
// a real cluster — this binary re-executed as two squalld-style worker
// processes joined to the coordinator over loopback TCP — measuring the
// end-to-end cost of the socket hop. With -json it writes BENCH_PR7.json; it
// exits non-zero when the distributed run (including one with a remote
// joiner task killed and recovered mid-run) stops being bag-equal to the
// in-process engine (the CI gate).
//
// The `chaos` experiment (PR 8) measures cluster survivability under
// injected faults: the same trickled join with a worker killed mid-run under
// each ClusterSpec policy (FateShare, Retry, Recover) plus a one-way link
// partition — detectable only by missed heartbeats — injected through
// transport.FaultSpec. With -json it writes BENCH_PR8.json; it exits
// non-zero when FateShare/Retry stop failing loudly on a dead worker, or
// when Recover (kill) and Retry (partition) stop converging bag-equal to
// the in-process oracle (the CI gate).
//
// The `serve` experiment (PR 9) registers K=8 continuous queries on one
// multi-query serving engine sharing five physical TPC-H scans — plus a
// deliberately failing query and a budget-capped tenant — and gates that
// every shared-scan query stays bag-equal to its standalone run, that
// source rows are wire-encoded once instead of once per query, that the
// failing query is isolated, and that admission control rejects the
// over-budget registration with the typed error. With -json it writes
// BENCH_PR9.json (the CI gate).
//
// The `spill` experiment (PR 10) runs the same 2-way join untiered, tiered
// with an uncapped ladder, and tiered with the resident cap at 50% of the
// uncapped peak — the degradation ladder must keep residency under the cap
// by spilling sealed, CRC-checksummed segments while the result stays
// bag-equal — plus a full-vs-incremental checkpoint comparison and a run
// with one spill segment deliberately corrupted, which must be quarantined
// and recovered through the PR 4 plane exactly-once. With -json it writes
// BENCH_PR10.json (the CI gate).
//
// `squallbench compare old.json new.json` diffs two bench JSON files and
// exits non-zero when a gated metric (speedup/reduction ratios, alloc
// counts) regresses more than 15% — CI runs it against the checked-in
// smoke baseline.
//
// Scales are thousandth-scale stand-ins for the paper's cluster runs; the
// expected shapes (orderings, rough ratios) are documented per experiment in
// EXPERIMENTS.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"squall"
	"squall/experiments"
	"squall/internal/dataflow"
	"squall/internal/datagen"
)

var allSchemes = []squall.SchemeKind{squall.HashHypercube, squall.RandomHypercube, squall.HybridHypercube}

var (
	jsonOut = flag.Bool("json", false, "write machine-readable results (BENCH_PR1.json / BENCH_PR2.json) for the batch and adapt experiments")
	smoke   = flag.Bool("smoke", false, "run the gated experiments at CI smoke scale")
)

func main() {
	maybeNetWorker()
	flag.Parse()
	if flag.NArg() > 0 && flag.Arg(0) == "compare" {
		compareMain(flag.Args()[1:])
		return
	}
	if flag.NArg() > 1 {
		// A flag after the experiment name (e.g. `batch -json`) would be
		// silently dropped by flag.Parse; reject it instead.
		fmt.Fprintf(os.Stderr, "unexpected arguments %v: flags go before the experiment name, e.g. `squallbench -json batch`\n", flag.Args()[1:])
		os.Exit(2)
	}
	what := "all"
	if flag.NArg() > 0 {
		what = flag.Arg(0)
	}
	run := map[string]func(){
		"figure5":  figure5,
		"figure6":  figure6,
		"figure7":  figure7,
		"figure8":  figure8,
		"table1":   tables12, // Tables 1 and 2 come from the same runs
		"table2":   tables12,
		"section5": section5,
		"batch":    batchTransport,
		"adapt":    adaptBench,
		"recover":  recoverBench,
		"exec":     execBench,
		"vec":      vecBench,
		"net":      netBench,
		"chaos":    chaosBench,
		"serve":    serveBench,
		"spill":    spillBench,
	}
	if what == "all" {
		for _, name := range []string{"figure5", "figure6", "figure7", "table1", "figure8", "section5"} {
			run[name]()
		}
		return
	}
	f, ok := run[what]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; options: figure5 figure6 figure7 figure8 table1 table2 section5 batch adapt recover exec vec net chaos serve spill all (or: compare old.json new.json)\n", what)
		os.Exit(2)
	}
	f()
}

func header(title string) {
	fmt.Printf("\n=== %s ===\n", title)
}

func figure5() {
	header("Figure 5: finding the bottleneck (Customer ⋈ Orders, 240k orders, 4J)")
	gen := datagen.NewTPCH(42, 960_000, 0)
	var base time.Duration
	for _, stage := range experiments.Figure5Stages(gen, 4, 1) {
		best := time.Duration(1 << 62)
		for rep := 0; rep < 3; rep++ {
			d, err := stage.Run()
			if err != nil {
				fmt.Printf("  %-22s ERROR: %v\n", stage.Name, err)
				return
			}
			if d < best {
				best = d
			}
		}
		if base == 0 {
			base = best
		}
		fmt.Printf("  %-22s %10v  (%.2fx RF)\n", stage.Name, best.Round(time.Millisecond), float64(best)/float64(base))
	}
	fmt.Println("  paper shape: sel(int) ~+1.6%, sel(date) ~+16%, network dominates, join cpu small")
}

func figure6() {
	header("Figure 6: 3-reachability — multi-way join vs pipeline of 2-way joins (8J)")
	w := datagen.NewWebGraph(3, 3000, 30000, 0)
	fmt.Printf("  %-28s %12s %14s %10s\n", "plan", "runtime", "sent tuples", "groups")
	for _, scheme := range []squall.SchemeKind{squall.HashHypercube, squall.HybridHypercube} {
		res, err := experiments.Reachability3(w, scheme, squall.DBToaster, 8).Run(squall.Options{Seed: 1})
		if err != nil {
			fmt.Printf("  multiway %v ERROR: %v\n", scheme, err)
			return
		}
		fmt.Printf("  %-28s %12v %14d %10d\n", "Multiway-"+scheme.String(),
			res.Metrics.Elapsed.Round(time.Millisecond), res.Metrics.TotalSent(), res.RowCount)
	}
	pres, err := experiments.Reachability3Pipeline(w, squall.DBToaster, 8, 1)
	if err != nil {
		fmt.Printf("  pipeline ERROR: %v\n", err)
		return
	}
	fmt.Printf("  %-28s %12v %14d %10d\n", "Pipeline of 2-way joins",
		pres.Metrics.Elapsed.Round(time.Millisecond), pres.TotalSent, int64(len(pres.Rows)))
	fmt.Println("  paper shape: multiway ships less (132.6M vs 160.6M) and runs 1.43x faster")
}

func fig7cases() []struct {
	name      string
	mk        func(squall.SchemeKind) *squall.JoinQuery
	memBudget int
} {
	gen10 := datagen.NewTPCH(42, 60_000, 2)
	gen80 := datagen.NewTPCH(43, 480_000, 2)
	web := experiments.WebAnalyticsConfig{Seed: 5, Hosts: 20000, Arcs: 60000, InS: 1.1, OutS: 1.5}
	return []struct {
		name      string
		mk        func(squall.SchemeKind) *squall.JoinQuery
		memBudget int
	}{
		{"TPCH9-Partial 10G/8J", func(s squall.SchemeKind) *squall.JoinQuery {
			return experiments.TPCH9Partial(gen10, s, squall.DBToaster, 8)
		}, 0},
		// 32 MiB per task ≈ a blade's share at thousandth scale: fits the
		// Hybrid's balanced tuple-level state, not the Hash heavy task's.
		{"TPCH9-Partial 80G/100J", func(s squall.SchemeKind) *squall.JoinQuery {
			return experiments.TPCH9Partial(gen80, s, squall.DBToaster, 100)
		}, 32 << 20},
		{"WebAnalytics 40J", func(s squall.SchemeKind) *squall.JoinQuery {
			return experiments.WebAnalytics(web, s, squall.DBToaster, 40)
		}, 0},
	}
}

func figure7() {
	header("Figure 7: hypercube scheme comparison (runtime)")
	for _, c := range fig7cases() {
		fmt.Printf("  %s\n", c.name)
		for _, scheme := range allSchemes {
			q := c.mk(scheme)
			opts := squall.Options{Seed: 2}
			if c.memBudget > 0 {
				// The paper's blades have fixed RAM; tuple-level DBToaster
				// views grow with received load, so the skewed Hash run
				// exhausts its budget at 80G.
				q.ForceDeltaJoin = true
				opts.MemLimitPerTask = c.memBudget
			}
			res, err := q.Run(opts)
			if err != nil {
				fmt.Printf("    %-18s %12s (%v)\n", scheme, "OVERFLOW", err)
				continue
			}
			fmt.Printf("    %-18s %12v  scheme %v\n", scheme,
				res.Metrics.Elapsed.Round(time.Millisecond), res.Hypercube)
		}
	}
	fmt.Println("  paper shape: Hybrid fastest under skew; Hash overflows at 80G; Random pays replication")
}

func tables12() {
	header("Tables 1 & 2: load per machine and replication factor")
	fmt.Printf("  %-24s %-18s %12s %12s %8s %8s\n", "query", "scheme", "maxload", "avgload", "skew", "repl")
	for _, c := range fig7cases() {
		for _, scheme := range allSchemes {
			res, err := c.mk(scheme).Run(squall.Options{Seed: 3})
			if err != nil {
				fmt.Printf("  %-24s %-18s %12s\n", c.name, scheme, "N/A (overflow)")
				continue
			}
			cm := res.Metrics.Component(res.JoinerComponent)
			fmt.Printf("  %-24s %-18s %12d %12.0f %8.2f %8.3f\n",
				c.name, scheme, cm.MaxLoad(), cm.AvgLoad(), cm.SkewDegree(),
				res.Metrics.ReplicationFactor(res.JoinerComponent))
		}
	}
	fmt.Println("  paper Table 1 (10G): Hash 38.5M/8.5M, Random 15.6M/15.6M, Hybrid 22.8M/8.6M")
	fmt.Println("  paper Table 2 (10G): Hash 1, Random 1.83, Hybrid 1.01; (80G): N/A, 6.19, 1.11")
}

func figure8() {
	header("Figure 8: DBToaster vs traditional local joins")
	gen := datagen.NewTPCH(42, 60_000, 2)
	google := &datagen.GoogleTrace{Seed: 11, TaskEvents: 120_000}
	cases := []struct {
		name string
		mk   func(squall.LocalJoinKind) *squall.JoinQuery
	}{
		{"TPCH9-Partial 10G/8J", func(l squall.LocalJoinKind) *squall.JoinQuery {
			return experiments.TPCH9Partial(gen, squall.HybridHypercube, l, 8)
		}},
		{"TPC-H Q3 10G/8J", func(l squall.LocalJoinKind) *squall.JoinQuery {
			return experiments.Q3(gen, squall.HybridHypercube, l, 8)
		}},
		{"Google TaskCount 8J", func(l squall.LocalJoinKind) *squall.JoinQuery {
			return experiments.GoogleTaskCount(google, squall.HybridHypercube, l, 8)
		}},
	}
	w := datagen.NewWebGraph(3, 3000, 30000, 0)
	cases = append(cases, struct {
		name string
		mk   func(squall.LocalJoinKind) *squall.JoinQuery
	}{"3-Reachability 8J (high fan-out)", func(l squall.LocalJoinKind) *squall.JoinQuery {
		return experiments.Reachability3(w, squall.HybridHypercube, l, 8)
	}})
	for _, c := range cases {
		fmt.Printf("  %s\n", c.name)
		var dbt time.Duration
		for _, local := range []squall.LocalJoinKind{squall.DBToaster, squall.Traditional} {
			res, err := c.mk(local).Run(squall.Options{Seed: 5})
			if err != nil {
				fmt.Printf("    %-14s ERROR: %v\n", local, err)
				continue
			}
			suffix := ""
			if local == squall.DBToaster {
				dbt = res.Metrics.Elapsed
			} else if dbt > 0 {
				suffix = fmt.Sprintf("  (%.1fx slower than DBToaster)", float64(res.Metrics.Elapsed)/float64(dbt))
			}
			fmt.Printf("    %-14s %12v%s\n", local, res.Metrics.Elapsed.Round(time.Millisecond), suffix)
		}
	}
	fmt.Println("  paper shape: ~10x on 8a/8b (extrapolated), 3-4x on 8c; the gap grows")
	fmt.Println("  with join fan-out — aggregate views collapse match enumeration")
}

func section5() {
	header("Section 5: hash imperfections (d distinct keys over p=8 machines, 500 key domains)")
	fmt.Printf("  %-8s %14s %14s %12s %12s %14s\n", "d", "hash maxkeys", "rr maxkeys", "hash skew", "rr skew", "hash subopt")
	for _, d := range []int{5, 7, 8, 15, 25} {
		r := experiments.HashImperfection(d, 8, 500)
		fmt.Printf("  %-8d %14.2f %14.0f %12.2f %12.2f %13.0f%%\n",
			d, r.HashMaxKeys, r.RoundRobinMaxKeys, r.HashSkew, r.RoundRobinSkew, 100*r.HashSuboptimal)
	}
	header("Section 5: temporal skew (sorted arrival, 64 bursts x 2000 tuples, 8 machines)")
	fmt.Printf("  %-22s %14s %14s\n", "grouping", "burst skew", "overall skew")
	h := experiments.TemporalSkew(dataflow.Fields(0), 64, 2000, 8, 1)
	s := experiments.TemporalSkew(dataflow.Shuffle(), 64, 2000, 8, 1)
	fmt.Printf("  %-22s %14.2f %14.2f\n", "hash (content-sens.)", h.BurstSkew, h.OverallSkew)
	fmt.Printf("  %-22s %14.2f %14.2f\n", "random (content-ins.)", s.BurstSkew, s.OverallSkew)
	fmt.Println("  paper claim: only content-insensitive schemes address temporal skew;")
	fmt.Println("  hash looks balanced overall (skew ~1) while serializing every burst (skew = p)")
}
