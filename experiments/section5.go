package experiments

import (
	"fmt"
	"math/rand"
	"slices"

	"squall"
	"squall/internal/dataflow"
	"squall/internal/expr"
	"squall/internal/types"
	"squall/internal/wire"
)

// ImperfectionResult compares key-to-machine assignments for a small key
// domain (§5, "skew due to hash imperfections"), averaged over many random
// key domains (a key domain is whatever distinct values the data happens to
// contain — its hash placement is luck; round-robin assignment is not).
type ImperfectionResult struct {
	Distinct int
	Machines int
	// Mean over trials of the largest number of keys any machine owns.
	HashMaxKeys, RoundRobinMaxKeys float64
	// Mean skew degree (max load / avg load) for a uniform stream.
	HashSkew, RoundRobinSkew float64
	// Fraction of trials where hashing was worse than the optimal
	// ceil(d/p) keys per machine.
	HashSuboptimal float64
}

// HashImperfection routes a uniform stream over d distinct keys to p
// machines with plain hashing and with Squall's round-robin key map, over
// `trials` random key domains. The paper's claim: for d close to p (TPC-H
// Q4/Q12/Q5 have 5/7/25 distinct values), hashing very likely assigns some
// machine ≥ 2x its share, while round-robin guarantees key counts differ by
// at most one.
func HashImperfection(d, p int, trials int) ImperfectionResult {
	if trials <= 0 {
		trials = 200
	}
	rng := rand.New(rand.NewSource(int64(d)*1000 + int64(p)))
	res := ImperfectionResult{Distinct: d, Machines: p}
	optimal := (d + p - 1) / p
	for trial := 0; trial < trials; trial++ {
		keys := make([]types.Tuple, d)
		for i := range keys {
			keys[i] = types.Tuple{types.Int(rng.Int63())}
		}
		rr := dataflow.RoundRobinKeyMap(keys, []int{0}, p)
		hash := dataflow.Fields(0)
		count := func(g dataflow.Grouping) []int {
			owned := make([]int, p)
			var r router
			for _, k := range keys {
				owned[r.targets(g, k, p, nil)[0]]++
			}
			return owned
		}
		hOwned := count(hash)
		rOwned := count(rr)
		res.HashMaxKeys += float64(slices.Max(hOwned))
		res.RoundRobinMaxKeys += float64(slices.Max(rOwned))
		res.HashSkew += skewDegree(hOwned)
		res.RoundRobinSkew += skewDegree(rOwned)
		if slices.Max(hOwned) > optimal {
			res.HashSuboptimal++
		}
	}
	n := float64(trials)
	res.HashMaxKeys /= n
	res.RoundRobinMaxKeys /= n
	res.HashSkew /= n
	res.RoundRobinSkew /= n
	res.HashSuboptimal /= n
	return res
}

// router routes tuples through a grouping as the engine does: encoded, and
// read through a cursor.
type router struct {
	enc []byte
	cur wire.Cursor
	buf []int
}

func (r *router) targets(g dataflow.Grouping, t types.Tuple, ntasks int, rng *rand.Rand) []int {
	r.enc = wire.Encode(r.enc[:0], t)
	if err := r.cur.Reset(r.enc); err != nil {
		panic(err)
	}
	r.buf = g.RowTargets(&r.cur, ntasks, rng, r.buf[:0])
	return r.buf
}

// TemporalResult reports the §5 temporal-skew experiment.
type TemporalResult struct {
	// BurstSkew is the mean over key bursts of (max task load within the
	// burst / avg task load within the burst): 1.0 means every machine works
	// during every burst, `machines` means one machine at a time (serialized
	// execution).
	BurstSkew float64
	// OverallSkew is the whole-run skew degree (content-sensitive schemes
	// can look balanced overall while being serialized in time).
	OverallSkew float64
}

// TemporalSkew streams tuples in sorted key order (bursts of `perKey` tuples
// per key) through a grouping and measures how concentrated each burst is.
// Content-sensitive groupings (hash) send a whole burst to one machine —
// equivalent to sequential execution — while content-insensitive groupings
// (shuffle / random partitioning) spread every burst (§5: "only
// content-insensitive schemes can address temporal skew").
func TemporalSkew(g dataflow.Grouping, keys, perKey, machines int, seed int64) TemporalResult {
	rng := rand.New(rand.NewSource(seed))
	total := make([]int, machines)
	var burstSkews float64
	var r router
	for k := 0; k < keys; k++ {
		burst := make([]int, machines)
		for i := 0; i < perKey; i++ {
			t := types.Tuple{types.Int(int64(k)), types.Int(int64(i))}
			for _, m := range r.targets(g, t, machines, rng) {
				burst[m]++
				total[m]++
			}
		}
		burstSkews += skewDegree(burst)
	}
	return TemporalResult{
		BurstSkew:   burstSkews / float64(keys),
		OverallSkew: skewDegree(total),
	}
}

// DriftConfig parameterizes the §5 adaptive 1-Bucket drift experiment: a
// 2-way equi join whose declared sizes claim |R| = |S|, while the streamed
// sizes end up RTuples : STuples — the small side drains early, so the
// observed ratio drifts further and further from the declared one as the
// run progresses. The adaptive operator must chase the drift; every static
// matrix is stuck with its initial guess.
type DriftConfig struct {
	Machines  int
	RTuples   int
	STuples   int
	KeyDomain int
	Seed      int64
}

// DriftRun reports one configuration of the drift experiment.
type DriftRun struct {
	Name           string  `json:"name"`
	Matrix         string  `json:"matrix"` // final (adaptive) or fixed shape
	Rows           int64   `json:"rows"`   // result rows (must agree across runs)
	MaxLoad        int64   `json:"max_load_per_task"`
	AvgLoad        float64 `json:"avg_load_per_task"`
	Skew           float64 `json:"skew_degree"`
	Reshapes       int64   `json:"reshapes"`
	MigratedTuples int64   `json:"migrated_tuples"`
	MigratedBytes  int64   `json:"migrated_bytes"`
	ElapsedMS      float64 `json:"elapsed_ms"`
}

// driftQuery builds the experiment's join. Both sources declare the same
// size — the offline optimizer's stale belief — while streaming their true
// row counts.
func driftQuery(cfg DriftConfig) *squall.JoinQuery {
	key := func(seed int64) func(i int) types.Tuple {
		return func(i int) types.Tuple {
			h := uint64(i)*2654435761 + uint64(seed)*0x9e3779b97f4a7c15
			return types.Tuple{types.Int(int64(h % uint64(cfg.KeyDomain))), types.Int(int64(i))}
		}
	}
	declared := int64(cfg.RTuples+cfg.STuples) / 2
	return &squall.JoinQuery{
		Sources: []squall.Source{
			{Name: "R", Spout: dataflow.GenSpout(cfg.RTuples, key(cfg.Seed)), Size: declared},
			{Name: "S", Spout: dataflow.GenSpout(cfg.STuples, key(cfg.Seed+1)), Size: declared},
		},
		Graph:    expr.MustJoinGraph(2, expr.EquiCol(0, 0, 1, 0)),
		Scheme:   squall.RandomHypercube,
		Machines: cfg.Machines,
		Local:    squall.Traditional,
	}
}

// driftRun executes one configuration (adaptive, or one frozen matrix) and
// snapshots its metrics.
func driftRun(cfg DriftConfig, name string, adapt *squall.AdaptConfig) (DriftRun, error) {
	q := driftQuery(cfg).Adaptive(true)
	q.Adapt = adapt
	res, err := q.Run(squall.Options{
		Seed: cfg.Seed,
		// Shallow inboxes backpressure the sources behind the joiner, so
		// the controller observes the drifting ratio while tuples are still
		// in flight instead of after the fact.
		ChannelBuf:   16,
		CollectLimit: 1,
	})
	if err != nil {
		return DriftRun{}, fmt.Errorf("%s: %w", name, err)
	}
	cm := res.Metrics.Component(res.JoinerComponent)
	ad := &res.Metrics.Adapt
	return DriftRun{
		Name:           name,
		Matrix:         fmt.Sprintf("%dx%d", ad.FinalRows.Load(), ad.FinalCols.Load()),
		Rows:           res.RowCount,
		MaxLoad:        cm.MaxLoad(),
		AvgLoad:        cm.AvgLoad(),
		Skew:           cm.SkewDegree(),
		Reshapes:       ad.Reshapes.Load(),
		MigratedTuples: ad.MigratedTuples.Load(),
		MigratedBytes:  ad.MigratedBytes.Load(),
		ElapsedMS:      float64(res.Metrics.Elapsed.Microseconds()) / 1000,
	}, nil
}

// AdaptiveDrift runs the drifting-ratio experiment: the live adaptive
// operator against every static matrix that exactly tiles the budget,
// identical transport (the static runs use the adaptive machinery with a
// frozen shape). The paper's claim reproduced here: adaptation tracks the
// drift, ending near the best static oracle and far below the worst, at
// the price of explicit migration traffic.
func AdaptiveDrift(cfg DriftConfig) ([]DriftRun, error) {
	var runs []DriftRun
	r, err := driftRun(cfg, "adaptive", &squall.AdaptConfig{
		ReportEvery: 64,
		MinObserved: 256,
		MinGain:     0.15,
	})
	if err != nil {
		return nil, err
	}
	runs = append(runs, r)
	for rows := 1; rows <= cfg.Machines; rows++ {
		if cfg.Machines%rows != 0 {
			continue // only exact factorizations use the whole budget
		}
		cols := cfg.Machines / rows
		r, err := driftRun(cfg, fmt.Sprintf("static %dx%d", rows, cols), &squall.AdaptConfig{
			InitialRows: rows, InitialCols: cols, Static: true,
		})
		if err != nil {
			return nil, err
		}
		runs = append(runs, r)
	}
	return runs, nil
}

func skewDegree(load []int) float64 {
	sum, maxv := 0, 0
	for _, x := range load {
		sum += x
		if x > maxv {
			maxv = x
		}
	}
	if sum == 0 {
		return 0
	}
	avg := float64(sum) / float64(len(load))
	return float64(maxv) / avg
}
