package experiments

import (
	"runtime"
	"testing"
	"time"

	"squall"
	"squall/internal/dataflow"
	"squall/internal/datagen"
	"squall/internal/expr"
	"squall/internal/types"
)

// TestFigure6ShapeMultiwayBeatsPipeline: the multi-way join must ship fewer
// tuples than the pipeline of 2-way joins when the intermediate result is
// large relative to the inputs (§7.2: 132.6M vs 160.6M at paper scale), and
// both must produce identical aggregates.
func TestFigure6ShapeMultiwayBeatsPipeline(t *testing.T) {
	// Dense sample: 2000 hosts, 20000 arcs gives |W1⋈W2| ≈ arcs²/hosts =
	// 200k >> 20k inputs, the paper's regime.
	w := datagen.NewWebGraph(3, 2000, 20000, 0)
	const machines = 8

	multi := Reachability3(w, squall.HashHypercube, squall.DBToaster, machines)
	mres, err := multi.Run(squall.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	pres, err := Reachability3Pipeline(w, squall.DBToaster, machines, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Identical results.
	mrows := mres.SortedRows()
	prows := pres.Rows
	if len(mrows) == 0 {
		t.Fatal("reachability produced no groups")
	}
	pm := map[string]int64{}
	for _, r := range prows {
		pm[r[0].Str] = r[1].I
	}
	for _, r := range mrows {
		if pm[r[0].Str] != r[1].I {
			t.Fatalf("group %v: multiway %d, pipeline %d", r[0], r[1].I, pm[r[0].Str])
		}
	}
	// Network shape: the multi-way join ships fewer tuple copies because it
	// never shuffles the intermediate W1⋈W2.
	msent := mres.Metrics.TotalSent()
	psent := pres.TotalSent
	if msent >= psent {
		t.Errorf("multiway shipped %d tuples, pipeline %d — multiway must ship less", msent, psent)
	}
	t.Logf("network: multiway %d vs pipeline %d (ratio %.2f)", msent, psent, float64(psent)/float64(msent))
}

// TestFigure7ShapeSchemesOnWebAnalytics: Hybrid must beat Hash on max load
// and Random on total load for the WebAnalytics query.
func TestFigure7ShapeSchemesOnWebAnalytics(t *testing.T) {
	// Paper ratios: W1 : W2 : C ≈ 1 : 3.8 : 42. With 20k hosts and 60k arcs,
	// InS=1.1 gives W1 ≈ 0.1·arcs, OutS=1.5 gives W2 ≈ 0.35·arcs, C = 20k.
	cfg := WebAnalyticsConfig{Seed: 5, Hosts: 20000, Arcs: 60000, InS: 1.1, OutS: 1.5}
	loads := map[squall.SchemeKind][3]float64{} // max, avg, repl
	var rows map[string]int64
	for _, scheme := range []squall.SchemeKind{squall.HashHypercube, squall.RandomHypercube, squall.HybridHypercube} {
		q := WebAnalytics(cfg, scheme, squall.DBToaster, 8)
		res, err := q.Run(squall.Options{Seed: 2})
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		cm := res.Metrics.Component(res.JoinerComponent)
		loads[scheme] = [3]float64{float64(cm.MaxLoad()), cm.AvgLoad(),
			res.Metrics.ReplicationFactor(res.JoinerComponent)}
		got := map[string]int64{}
		for _, r := range res.Rows {
			got[r[0].AsString()+"|"+r[1].AsString()] = r[2].I
		}
		if rows == nil {
			rows = got
		} else if len(rows) != len(got) {
			t.Fatalf("%v: %d groups, reference %d", scheme, len(got), len(rows))
		}
	}
	hash, random, hybrid := loads[squall.HashHypercube], loads[squall.RandomHypercube], loads[squall.HybridHypercube]
	if hybrid[0] >= hash[0] {
		t.Errorf("hybrid max load %.0f must beat hash %.0f (hub skew)", hybrid[0], hash[0])
	}
	if hybrid[1] >= random[1] {
		t.Errorf("hybrid avg load %.0f must beat random %.0f (replication)", hybrid[1], random[1])
	}
	if hybrid[2] >= random[2] {
		t.Errorf("hybrid replication %.2f must beat random %.2f", hybrid[2], random[2])
	}
}

// TestFigure8ShapeGoogleTaskCount: both local joins compute the same result;
// the schemes coincide (no significant skew, §7.4).
func TestFigure8ShapeGoogleTaskCount(t *testing.T) {
	gen := &datagen.GoogleTrace{Seed: 11, TaskEvents: 30000}
	var ref []squall.Tuple
	for _, local := range []squall.LocalJoinKind{squall.DBToaster, squall.Traditional} {
		q := GoogleTaskCount(gen, squall.HybridHypercube, local, 8)
		res, err := q.Run(squall.Options{Seed: 3})
		if err != nil {
			t.Fatalf("%v: %v", local, err)
		}
		rows := res.SortedRows()
		if len(rows) == 0 {
			t.Fatal("TaskCount produced no groups")
		}
		if ref == nil {
			ref = rows
			continue
		}
		if len(rows) != len(ref) {
			t.Fatalf("%v: %d rows vs %d", local, len(rows), len(ref))
		}
		for i := range rows {
			if rows[i].Compare(ref[i]) != 0 {
				t.Fatalf("row %d: %v vs %v", i, rows[i], ref[i])
			}
		}
	}
	// Hash and Hybrid coincide on this skew-free query.
	hq := GoogleTaskCount(gen, squall.HashHypercube, squall.DBToaster, 8)
	hhc, err := hq.BuildScheme()
	if err != nil {
		t.Fatal(err)
	}
	yq := GoogleTaskCount(gen, squall.HybridHypercube, squall.DBToaster, 8)
	yhc, err := yq.BuildScheme()
	if err != nil {
		t.Fatal(err)
	}
	if hhc.String() != yhc.String() {
		t.Errorf("Hash %v and Hybrid %v must coincide without skew", hhc, yhc)
	}
}

// TestFigure8Shape locks Figure 8's headline at the benchmark's scale: on the
// high fan-out 3-Reachability query, DBToaster's aggregate views beat the
// traditional local join, which re-enumerates every 2-hop match. TPCH9-Partial
// and Q3 are timed and logged, not gated: at this scale neither local join is
// reliably ahead on them. Each timing is the best of interleaved rounds with
// rotating order and a GC before every run; both local joins must agree on
// the result count.
func TestFigure8Shape(t *testing.T) {
	gen := datagen.NewTPCH(42, 60_000, 2)
	web := datagen.NewWebGraph(3, 3000, 30000, 0)
	cases := []struct {
		name  string
		build func(squall.LocalJoinKind) *squall.JoinQuery
	}{
		{"Reachability3", func(l squall.LocalJoinKind) *squall.JoinQuery {
			return Reachability3(web, squall.HybridHypercube, l, 8)
		}},
		{"TPCH9-Partial", func(l squall.LocalJoinKind) *squall.JoinQuery {
			return TPCH9Partial(gen, squall.HybridHypercube, l, 8)
		}},
		{"Q3", func(l squall.LocalJoinKind) *squall.JoinQuery {
			return Q3(gen, squall.HybridHypercube, l, 8)
		}},
	}
	locals := []squall.LocalJoinKind{squall.DBToaster, squall.Traditional}
	rounds := 5
	if raceEnabled {
		rounds = 1
	}
	for _, c := range cases {
		best := map[squall.LocalJoinKind]time.Duration{}
		rows := map[squall.LocalJoinKind]int64{}
		for round := 0; round < rounds; round++ {
			for k := range locals {
				local := locals[(round+k)%len(locals)]
				runtime.GC()
				res, err := c.build(local).Run(squall.Options{Seed: 5})
				if err != nil {
					t.Fatalf("%s/%v: %v", c.name, local, err)
				}
				rows[local] = res.RowCount
				if b, ok := best[local]; !ok || res.Metrics.Elapsed < b {
					best[local] = res.Metrics.Elapsed
				}
			}
		}
		if rows[squall.DBToaster] != rows[squall.Traditional] {
			t.Fatalf("%s: DBToaster %d rows, Traditional %d", c.name, rows[squall.DBToaster], rows[squall.Traditional])
		}
		dbt, trad := best[squall.DBToaster], best[squall.Traditional]
		t.Logf("%s: DBToaster %v, Traditional %v (best of %d)", c.name, dbt, trad, rounds)
		if c.name == "Reachability3" && !raceEnabled && dbt >= trad {
			t.Errorf("Reachability3: DBToaster (%v) must beat Traditional (%v)", dbt, trad)
		}
	}
}

// TestSection5Recovery is the §5 recovery claim at CI scale: a killed joiner
// of a replicated Random-Hypercube join comes back bag-equal from peers and
// from the modeled disk, each relation takes the route asked for, and the
// peer route is the cheaper one. "Cheaper" is decided on what the engine
// fetched, priced by the substitution model (RecoveryRun.Price), not on wall
// time, which the other packages' tests stretch when they share the CPUs.
func TestSection5Recovery(t *testing.T) {
	reps := 3
	if raceEnabled {
		reps = 1 // the runs and their routes still count; their timings do not
	}
	res, err := Section5Recovery(RecoveryConfig{RTuples: 16_000, STuples: 16_000, Machines: 8, Reps: reps})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []RecoveryRun{res.FaultFree, res.Peer, res.Disk} {
		t.Logf("%-10s elapsed %v, recovery %v, routes %dp/%dc, fetches priced %v", r.Name, r.Elapsed, r.Recovery, r.PeerRels, r.CheckpointRels, r.Price)
	}
	if !res.BagEqual || res.FaultFree.Rows == 0 {
		t.Fatalf("recovered runs are not bag-equal to the fault-free run (%d rows)", res.FaultFree.Rows)
	}
	if res.Peer.PeerRels != 2 {
		t.Errorf("peer run recovered %d of 2 relations from peers", res.Peer.PeerRels)
	}
	if res.Disk.CheckpointRels != 2 {
		t.Errorf("disk run recovered %d of 2 relations from checkpoints", res.Disk.CheckpointRels)
	}
	if res.Peer.Price >= res.Disk.Price {
		t.Errorf("peer recovery (priced %v) is not cheaper than disk recovery (priced %v)", res.Peer.Price, res.Disk.Price)
	}
}

// TestQ3SchemesAgree: Q3 under zipf custkey skew across schemes.
func TestQ3SchemesAgree(t *testing.T) {
	gen := datagen.NewTPCH(21, 30000, 2)
	var refCount int64 = -1
	for _, scheme := range []squall.SchemeKind{squall.HashHypercube, squall.HybridHypercube, squall.RandomHypercube} {
		q := Q3(gen, scheme, squall.DBToaster, 8)
		res, err := q.Run(squall.Options{Seed: 4})
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		if refCount < 0 {
			refCount = res.RowCount
			if refCount == 0 {
				t.Fatal("Q3 produced no groups")
			}
			continue
		}
		if res.RowCount != refCount {
			t.Fatalf("%v: %d groups, reference %d", scheme, res.RowCount, refCount)
		}
	}
}

// TestFigure5StagesOrdering: the bars must be monotone in the documented
// way — date selection costs more than int selection; the network hop adds
// visible cost over the int selection. Every timing is the best of six
// interleaved rounds, rotating which run goes first, so a slow stretch of
// the machine lands on all of them instead of on one.
//
// The network hop is compared stage against stage. The two selection bars
// differ only in their selection, a few percent of a stage's wall time at
// this scale and inside its run-to-run spread, so the selections themselves
// are compared on the same parsed Orders rows the stages read.
func TestFigure5StagesOrdering(t *testing.T) {
	gen := datagen.NewTPCH(31, 120000, 0)
	stages := Figure5Stages(gen, 4, 9)
	if len(stages) != 5 {
		t.Fatalf("stages = %d", len(stages))
	}
	orders := make([]types.Tuple, gen.Orders())
	for i := range orders {
		orders[i] = gen.Order(int64(i))
	}
	runs := []Figure5Stage{
		stages[1], // RF+sel(int)
		stages[3], // RF+sel(int),network
		{Name: "sel(int)", Run: selectAll(selInt, orders)},
		{Name: "sel(date)", Run: selectAll(selDate, orders)},
	}
	rounds := 6
	if raceEnabled {
		rounds = 1 // the stages still run; their timings mean nothing here
	}
	best := map[string]time.Duration{}
	for round := 0; round < rounds; round++ {
		for k := range runs {
			s := runs[(round+k)%len(runs)]
			runtime.GC() // no run pays for the garbage of the one before
			d, err := s.Run()
			if err != nil {
				t.Fatalf("%s: %v", s.Name, err)
			}
			if b, ok := best[s.Name]; !ok || d < b {
				best[s.Name] = d
			}
		}
	}
	if raceEnabled {
		t.Skip("timing assertions skipped under -race")
	}
	t.Logf("best of %d: %v", rounds, best)
	if best["sel(date)"] <= best["sel(int)"] {
		t.Errorf("date selection (%v) must cost more than int selection (%v)", best["sel(date)"], best["sel(int)"])
	}
	if best["RF+sel(int),network"] <= best["RF+sel(int)"] {
		t.Errorf("network hop (%v) must cost more than no network (%v)",
			best["RF+sel(int),network"], best["RF+sel(int)"])
	}
}

// selectAll times p over every row.
func selectAll(p expr.Pred, rows []types.Tuple) func() (time.Duration, error) {
	return func() (time.Duration, error) {
		start := time.Now()
		for _, r := range rows {
			if _, err := p.Eval(r); err != nil {
				return 0, err
			}
		}
		return time.Since(start), nil
	}
}

func TestHashImperfection(t *testing.T) {
	// d=15, p=8: the paper's example — hashing very likely gives some
	// machine 3+ keys (1.5x optimum); round-robin caps at ceil(15/8)=2.
	res := HashImperfection(15, 8, 300)
	if res.RoundRobinMaxKeys != 2 {
		t.Errorf("round-robin max keys = %g, want exactly 2", res.RoundRobinMaxKeys)
	}
	if res.HashMaxKeys <= res.RoundRobinMaxKeys {
		t.Errorf("hash mean max keys %.2f must exceed round robin %.2f", res.HashMaxKeys, res.RoundRobinMaxKeys)
	}
	if res.HashSuboptimal < 0.5 {
		t.Errorf("hash suboptimal in only %.0f%% of trials; the paper says 'very likely'", 100*res.HashSuboptimal)
	}
	// d == p: round robin gives exactly 1 key per machine (perfect); hash
	// almost surely idles a machine (the §5 d=p argument).
	res = HashImperfection(8, 8, 300)
	if res.RoundRobinMaxKeys != 1 || res.RoundRobinSkew != 1.0 {
		t.Errorf("d=p round robin: keys=%g skew=%.3f, want 1/1.0", res.RoundRobinMaxKeys, res.RoundRobinSkew)
	}
	if res.HashMaxKeys < 1.5 {
		t.Errorf("d=p hash mean max keys %.2f, want ~2 (some machine doubled up)", res.HashMaxKeys)
	}
}

func TestTemporalSkew(t *testing.T) {
	// Sorted arrival, 64 keys x 500 tuples over 8 machines.
	hash := TemporalSkew(dataflow.Fields(0), 64, 500, 8, 1)
	shuffle := TemporalSkew(dataflow.Shuffle(), 64, 500, 8, 1)
	// Hash: each burst goes to ONE machine: burst skew = 8 (sequential).
	if hash.BurstSkew < 7.9 {
		t.Errorf("hash burst skew = %.2f, want 8 (one machine at a time)", hash.BurstSkew)
	}
	// Overall it can still look balanced — the §5 point that data
	// distribution alone does not reveal temporal skew.
	if hash.OverallSkew > 2 {
		t.Errorf("hash overall skew = %.2f, should look moderate", hash.OverallSkew)
	}
	if shuffle.BurstSkew > 1.3 {
		t.Errorf("shuffle burst skew = %.2f, want ≈1 (content-insensitive)", shuffle.BurstSkew)
	}
}

// TestAdaptiveDriftBeatsWorstStatic is the PR acceptance scenario at smoke
// scale: under the drifting |R|:|S| ratio the adaptive run reshapes at
// least once, reports its migration volume, agrees with every static run
// on the result count, and lands strictly below the worst static matrix on
// max per-task load.
func TestAdaptiveDriftBeatsWorstStatic(t *testing.T) {
	runs, err := AdaptiveDrift(DriftConfig{
		Machines: 8, RTuples: 6000, STuples: 400, KeyDomain: 1024, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	adaptive := runs[0]
	if adaptive.Name != "adaptive" {
		t.Fatalf("first run is %q, want adaptive", adaptive.Name)
	}
	if adaptive.Reshapes < 1 {
		t.Fatalf("adaptive run performed %d reshapes, want >= 1", adaptive.Reshapes)
	}
	if adaptive.MigratedBytes <= 0 || adaptive.MigratedTuples <= 0 {
		t.Fatalf("adaptive run reported no migration volume: %+v", adaptive)
	}
	var worst DriftRun
	for _, r := range runs[1:] {
		if r.Rows != adaptive.Rows {
			t.Fatalf("run %s produced %d rows, adaptive produced %d", r.Name, r.Rows, adaptive.Rows)
		}
		if r.Reshapes != 0 {
			t.Fatalf("static run %s reshaped %d times", r.Name, r.Reshapes)
		}
		if r.MaxLoad > worst.MaxLoad {
			worst = r
		}
	}
	if adaptive.MaxLoad >= worst.MaxLoad {
		t.Fatalf("adaptive max load %d does not beat worst static %s (%d)",
			adaptive.MaxLoad, worst.Name, worst.MaxLoad)
	}
	t.Logf("adaptive: %+v", adaptive)
	t.Logf("worst static: %s max load %d", worst.Name, worst.MaxLoad)
}
