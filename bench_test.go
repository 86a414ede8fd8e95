// Benchmarks regenerating every table and figure of the paper's evaluation
// (§6, §7). Each benchmark maps to one experiment of DESIGN.md's
// per-experiment index; `go test -bench=. -benchmem` prints the series.
//
// Scales are reduced (the paper ran 10G-80G TPC-H on a 220-thread cluster;
// we run thousandth-scale in-process); DESIGN.md records the measured vs
// published shapes, and the shape tests (experiments/, squall_test.go) gate
// the ones that hold at this scale.
package squall_test

import (
	"errors"
	"fmt"
	"testing"

	"squall"
	"squall/experiments"
	"squall/internal/dataflow"
	"squall/internal/datagen"
)

// benchLineitems is the "10G" stand-in: 60k lineitems ≈ 1/1000 of 10G.
const benchLineitems = 60_000

// bigLineitems is the "80G" stand-in (1/1000 scale).
const bigLineitems = 480_000

var allSchemes = []squall.SchemeKind{squall.HashHypercube, squall.RandomHypercube, squall.HybridHypercube}

// reportJoin attaches the paper's §6 metrics to a benchmark.
func reportJoin(b *testing.B, res *squall.Result) {
	b.Helper()
	cm := res.Metrics.Component(res.JoinerComponent)
	b.ReportMetric(float64(cm.MaxLoad()), "maxload")
	b.ReportMetric(cm.AvgLoad(), "avgload")
	b.ReportMetric(cm.SkewDegree(), "skewdeg")
	b.ReportMetric(res.Metrics.ReplicationFactor(res.JoinerComponent), "replfactor")
	b.ReportMetric(res.Metrics.IntermediateNetworkFactor(), "netfactor")
}

// BenchmarkSection31_WorkedExample regenerates the §3.1 analysis: predicted
// loads for the three schemes on R ⋈ S ⋈ T with 64 machines and zipfian z
// (Hash ≈0.7H skewed max, Random 0.75H, Hybrid ≈0.365H).
func BenchmarkSection31_WorkedExample(b *testing.B) {
	for _, scheme := range allSchemes {
		b.Run(scheme.String(), func(b *testing.B) {
			var hc interface {
				PredictedMaxLoad() float64
				PredictedAvgLoad() float64
				PredictedReplicationFactor() float64
			}
			for i := 0; i < b.N; i++ {
				q := experiments.Section31Query(scheme, 1<<20)
				cube, err := q.BuildScheme()
				if err != nil {
					b.Fatal(err)
				}
				hc = cube
			}
			b.ReportMetric(hc.PredictedMaxLoad()/float64(1<<20), "maxload/H")
			b.ReportMetric(hc.PredictedAvgLoad()/float64(1<<20), "avgload/H")
			b.ReportMetric(hc.PredictedReplicationFactor(), "replfactor")
		})
	}
}

// BenchmarkFigure5_Bottleneck regenerates Figure 5: the cost decomposition
// of Customer ⋈ Orders (read, int selection, date selection, network hop,
// full join). Each stage runs at one-row batches (batch=1, every tuple
// shipped, serialized and decoded on its own, the paper's per-tuple series)
// and at the default batch size, so the series doubles as the PR 1 batching
// speedup measurement on the engine's hottest path.
func BenchmarkFigure5_Bottleneck(b *testing.B) {
	gen := datagen.NewTPCH(42, 240_000, 0)
	for _, batch := range []int{1, dataflow.DefaultBatchSize} {
		for _, stage := range experiments.Figure5StagesBatch(gen, 4, 1, batch) {
			b.Run(fmt.Sprintf("%s/batch=%d", stage.Name, batch), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := stage.Run(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFigure6_Reachability regenerates Figure 6: 3-step reachability as
// a multi-way hypercube join vs. the pipeline of 2-way joins. The paper's
// shape: the multi-way join ships fewer tuples (132.6M vs 160.6M) and runs
// ≈1.43x faster; Hash- and Hybrid-Hypercube coincide on the uniform sample.
func BenchmarkFigure6_Reachability(b *testing.B) {
	w := datagen.NewWebGraph(3, 3000, 30000, 0)
	const machines = 8
	for _, scheme := range []squall.SchemeKind{squall.HashHypercube, squall.HybridHypercube} {
		b.Run("Multiway-"+scheme.String(), func(b *testing.B) {
			var res *squall.Result
			for i := 0; i < b.N; i++ {
				var err error
				res, err = experiments.Reachability3(w, scheme, squall.DBToaster, machines).
					Run(squall.Options{Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Metrics.TotalSent()), "sent-tuples")
			reportJoin(b, res)
		})
	}
	b.Run("Pipeline2Way", func(b *testing.B) {
		var res *experiments.PipelineResult
		for i := 0; i < b.N; i++ {
			var err error
			res, err = experiments.Reachability3Pipeline(w, machines, 1)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(res.TotalSent), "sent-tuples")
	})
}

// figure7Cases are the three groups of Figure 7 (also Tables 1 and 2).
func figure7Cases() []struct {
	name     string
	machines int
	build    func(scheme squall.SchemeKind) *squall.JoinQuery
} {
	gen10 := datagen.NewTPCH(42, benchLineitems, 2)
	gen80 := datagen.NewTPCH(43, bigLineitems, 2)
	webCfg := experiments.WebAnalyticsConfig{Seed: 5, Hosts: 20000, Arcs: 60000, InS: 1.1, OutS: 1.5}
	return []struct {
		name     string
		machines int
		build    func(scheme squall.SchemeKind) *squall.JoinQuery
	}{
		{"TPCH9-10G-8J", 8, func(s squall.SchemeKind) *squall.JoinQuery {
			return experiments.TPCH9Partial(gen10, s, squall.DBToaster, 8)
		}},
		{"TPCH9-80G-100J", 100, func(s squall.SchemeKind) *squall.JoinQuery {
			return experiments.TPCH9Partial(gen80, s, squall.DBToaster, 100)
		}},
		{"WebAnalytics-40J", 40, func(s squall.SchemeKind) *squall.JoinQuery {
			return experiments.WebAnalytics(webCfg, s, squall.DBToaster, 40)
		}},
	}
}

// BenchmarkFigure7_Schemes regenerates Figure 7: runtimes of the three
// hypercube schemes on TPCH9-Partial (10G/8J, 80G/100J) and WebAnalytics.
// Expected shape: Hybrid fastest under skew; Hash worst (or overflows);
// Random pays replication.
func BenchmarkFigure7_Schemes(b *testing.B) {
	for _, c := range figure7Cases() {
		for _, scheme := range allSchemes {
			b.Run(c.name+"/"+scheme.String(), func(b *testing.B) {
				var res *squall.Result
				for i := 0; i < b.N; i++ {
					var err error
					res, err = c.build(scheme).Run(squall.Options{Seed: 2})
					if err != nil {
						b.Fatal(err)
					}
				}
				reportJoin(b, res)
			})
		}
	}
}

// BenchmarkTable1_Loads regenerates Table 1 (maximum and average load per
// machine) from real runs; the per-run metrics are attached to each series.
func BenchmarkTable1_Loads(b *testing.B) {
	for _, c := range figure7Cases() {
		for _, scheme := range allSchemes {
			b.Run(c.name+"/"+scheme.String(), func(b *testing.B) {
				var maxLoad, avgLoad float64
				for i := 0; i < b.N; i++ {
					res, err := c.build(scheme).Run(squall.Options{Seed: 3})
					if err != nil {
						b.Fatal(err)
					}
					cm := res.Metrics.Component(res.JoinerComponent)
					maxLoad, avgLoad = float64(cm.MaxLoad()), cm.AvgLoad()
				}
				b.ReportMetric(maxLoad, "maxload")
				b.ReportMetric(avgLoad, "avgload")
			})
		}
	}
}

// BenchmarkTable2_Replication regenerates Table 2 (replication factors) for
// TPCH9-Partial. Paper: 10G — Hash 1, Random 1.83, Hybrid 1.01;
// 80G — Random 6.19, Hybrid 1.11.
func BenchmarkTable2_Replication(b *testing.B) {
	gens := map[string]*datagen.TPCH{
		"10G-8J":   datagen.NewTPCH(42, benchLineitems, 2),
		"80G-100J": datagen.NewTPCH(43, bigLineitems, 2),
	}
	machines := map[string]int{"10G-8J": 8, "80G-100J": 100}
	for name, gen := range gens {
		for _, scheme := range allSchemes {
			b.Run(name+"/"+scheme.String(), func(b *testing.B) {
				var rf float64
				for i := 0; i < b.N; i++ {
					res, err := experiments.TPCH9Partial(gen, scheme, squall.DBToaster, machines[name]).
						Run(squall.Options{Seed: 4})
					if err != nil {
						b.Fatal(err)
					}
					rf = res.Metrics.ReplicationFactor(res.JoinerComponent)
				}
				b.ReportMetric(rf, "replfactor")
			})
		}
	}
}

// BenchmarkFigure8_LocalJoins regenerates Figure 8: multi-way joins with
// DBToaster vs. traditional local joins on TPCH9-Partial (8a), TPC-H Q3
// (8b) and Google TaskCount (8c). Expected shape: DBToaster several times
// faster wherever heavy keys multiply fan-out (paper: ~10x on 8a/8b, 3-4x
// on 8c).
func BenchmarkFigure8_LocalJoins(b *testing.B) {
	gen := datagen.NewTPCH(42, benchLineitems, 2)
	google := &datagen.GoogleTrace{Seed: 11, TaskEvents: 120_000}
	cases := []struct {
		name  string
		build func(local squall.LocalJoinKind) *squall.JoinQuery
	}{
		{"TPCH9-10G-8J", func(l squall.LocalJoinKind) *squall.JoinQuery {
			return experiments.TPCH9Partial(gen, squall.HybridHypercube, l, 8)
		}},
		{"Q3-10G-8J", func(l squall.LocalJoinKind) *squall.JoinQuery {
			return experiments.Q3(gen, squall.HybridHypercube, l, 8)
		}},
		{"GoogleTaskCount-8J", func(l squall.LocalJoinKind) *squall.JoinQuery {
			return experiments.GoogleTaskCount(google, squall.HybridHypercube, l, 8)
		}},
		// High fan-out case: aggregate views collapse the 2-hop enumeration,
		// exhibiting the order-of-magnitude DBToaster advantage clearly.
		{"Reachability3-8J", func(l squall.LocalJoinKind) *squall.JoinQuery {
			return experiments.Reachability3(datagen.NewWebGraph(3, 3000, 30000, 0), squall.HybridHypercube, l, 8)
		}},
	}
	for _, c := range cases {
		for _, local := range []squall.LocalJoinKind{squall.DBToaster, squall.Traditional} {
			b.Run(c.name+"/"+local.String(), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := c.build(local).Run(squall.Options{Seed: 5}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFigure7_MemoryOverflow reproduces the "Memory Overflow" outcome:
// the Hash-Hypercube exceeds a per-task budget that the Hybrid fits into.
func BenchmarkFigure7_MemoryOverflow(b *testing.B) {
	gen := datagen.NewTPCH(42, benchLineitems, 2)
	// Calibrate: twice the hybrid's peak task state.
	cal, err := experiments.TPCH9Partial(gen, squall.HybridHypercube, squall.Traditional, 8).
		Run(squall.Options{Seed: 6})
	if err != nil {
		b.Fatal(err)
	}
	var peak int64
	for _, tm := range cal.Metrics.Component(cal.JoinerComponent).Tasks {
		if m := tm.MaxMem.Load(); m > peak {
			peak = m
		}
	}
	budget := int(2 * peak)
	b.Run("Hash-overflows", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, err := experiments.TPCH9Partial(gen, squall.HashHypercube, squall.Traditional, 8).
				Run(squall.Options{Seed: 6, MemLimitPerTask: budget})
			if !errors.Is(err, dataflow.ErrMemoryOverflow) {
				b.Fatalf("expected overflow, got %v", err)
			}
		}
	})
	b.Run("Hybrid-completes", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := experiments.TPCH9Partial(gen, squall.HybridHypercube, squall.Traditional, 8).
				Run(squall.Options{Seed: 6, MemLimitPerTask: budget}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSection5_HashImperfection regenerates the §5 small-domain
// analysis: skew degree of hash vs round-robin key assignment for the
// distinct counts of TPC-H Q4 (5), Q12 (7) and Q5 (25) over 8 machines.
func BenchmarkSection5_HashImperfection(b *testing.B) {
	for _, d := range []int{5, 7, 15, 25} {
		b.Run(fmt.Sprintf("d=%d_p=8", d), func(b *testing.B) {
			var res experiments.ImperfectionResult
			for i := 0; i < b.N; i++ {
				res = experiments.HashImperfection(d, 8, 200)
			}
			b.ReportMetric(res.HashSkew, "hash-skewdeg")
			b.ReportMetric(res.RoundRobinSkew, "rr-skewdeg")
			b.ReportMetric(res.HashSuboptimal, "hash-subopt-frac")
		})
	}
}

// BenchmarkSection5_Recovery regenerates the §5 fault-tolerance claim ("network
// accesses are several times faster than disk accesses"): one joiner of a
// replicated Random-Hypercube 2-way join is killed mid-run and recovered from
// a peer, then from its checkpoint on the modeled disk (2 ms seek, 120 MB/s).
// Reports both recovery times and the peer-recovered run's elapsed time over
// the fault-free run's, each the best of three interleaved runs, and both
// routes' fetches priced by the substitution model (RecoveryRun.Price).
func BenchmarkSection5_Recovery(b *testing.B) {
	var res experiments.RecoveryResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.Section5Recovery(experiments.RecoveryConfig{RTuples: 60_000, STuples: 60_000, Machines: 8, Reps: 3})
		if err != nil {
			b.Fatal(err)
		}
		if !res.BagEqual {
			b.Fatal("recovered runs are not bag-equal to the fault-free run")
		}
	}
	b.ReportMetric(float64(res.Peer.Recovery)/1e3, "peer-recovery-us")
	b.ReportMetric(float64(res.Disk.Recovery)/1e3, "disk-recovery-us")
	b.ReportMetric(res.Overhead(), "recovered-overhead-x")
	b.ReportMetric(float64(res.Peer.Price)/1e3, "peer-priced-us")
	b.ReportMetric(float64(res.Disk.Price)/1e3, "disk-priced-us")
}

// BenchmarkSection5_TemporalSkew regenerates the §5 temporal-skew analysis:
// per-burst concentration of sorted arrival under content-sensitive (hash)
// vs content-insensitive (shuffle) partitioning.
func BenchmarkSection5_TemporalSkew(b *testing.B) {
	groupings := []struct {
		name string
		g    dataflow.Grouping
	}{
		{"Hash", dataflow.Fields(0)},
		{"Shuffle", dataflow.Shuffle()},
	}
	for _, gr := range groupings {
		b.Run(gr.name, func(b *testing.B) {
			var res experiments.TemporalResult
			for i := 0; i < b.N; i++ {
				res = experiments.TemporalSkew(gr.g, 64, 2000, 8, 1)
			}
			b.ReportMetric(res.BurstSkew, "burst-skewdeg")
			b.ReportMetric(res.OverallSkew, "overall-skewdeg")
		})
	}
}
