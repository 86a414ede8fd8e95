package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"squall"
	"squall/internal/dataflow"
	"squall/internal/expr"
	"squall/internal/types"
)

// Sizes. Calibrated once on the 2-core reference box so that one closed-loop
// run lasts 1-2 s (several fit in a 12 s measurement), then frozen: they are
// never derived at run time, so two commits always do the same work. See
// README.md for how each was chosen.
const (
	q3Lineitems = 600_000 // + 150k orders + 15k customers = 765k input tuples
	joinFullN   = 400_000 // tuples per relation
	joinSpillN  = 40_000
	joinCkptN   = 100_000
	joinTCPN    = 300_000
	// pacedRate is the total offered rate of serve_paced in tuples/s (both
	// relations together): about half of what the same four queries sustain
	// closed-loop on the reference box.
	pacedRate = 80_000

	machines = 4 // joiner budget of every workload

	// spillCapPerTuple is join_spill's resident cap in bytes per input
	// tuple: half of the 21 B/tuple the untiered join keeps resident in its
	// slab arenas at peak (join_full with an unreachable cap).
	spillCapPerTuple = 10.5

	// capOvershoot is how far over its cap join_spill's resident state may
	// peak before the run counts as failed. The cap degrades, it does not
	// stop: sources are throttled while spilling catches up, and about one run
	// in a hundred peaks some 10% over for a moment.
	capOvershoot = 1.25

	// verifyDiv is the scale of the verify phase: the workload's exact
	// configuration on 1/16 of the input, every result row collected.
	verifyDiv = 16
)

// sample is what one run of a workload showed a user.
type sample struct {
	tuples int64         // input tuples offered
	wall   time.Duration // of JoinQuery.Run, or of the paced window
	cpu    time.Duration // user+sys, this process and the worker
	// Result latency, per slice. Open loop: the paced window is cut into
	// slices by due time; a result row's latency is its receipt minus the
	// scheduled emission of the later contributing source tuple, and each
	// slice after warm-up gives its median and its 99th percentile. Closed
	// loop: the run is one slice with one sample, first input offered to
	// complete final result (a batch job's latency), so the two are equal.
	// latency_p50_ms and latency_p99_ms are the medians of these over the
	// pass: typical figures, which one stall of the host does not move.
	sliceP50, sliceP99 []float64
	latencies          int // samples behind them
	// drainMS, closed loop only, is the part of the run after the last input
	// was handed over: the wait for the results of the final tuples, which
	// under saturation is the backlog the engine's buffers hold.
	drainMS float64
	peak    int64 // peak joiner state in bytes
	failed  int64 // input tuples (or undelivered result rows) this run got wrong
	err     error

	lagMS float64        // paced only: worst lateness of the generator
	res   *squall.Result // closed loop only: the engine's own counters
	serve *serveStats    // paced only
}

// instance is one workload set up for one seed: inputs in memory, reference
// answer computed, directories and processes started.
type instance interface {
	// run executes the workload once. collect asks for every result row to be
	// kept and compared to the reference (the verify phase); timed runs count
	// rows instead. run is the id spans carry.
	run(tr *tracer, parent, run int, collect bool) sample
	// replay measures each layer alone on this instance's inputs.
	replay(tr *tracer, parent int) (layerCosts, error)
	close() error
}

// workload is one named entry of BENCHMARK.json.
type workload struct {
	name string
	// openLoop marks the workload whose one run is a paced window of the
	// pass's whole length; the others repeat closed-loop runs, after a
	// discarded warm-up run, until the pass has measured long enough.
	openLoop bool
	// setup builds an instance at 1/div of the frozen size for seconds of
	// measuring (only the paced workload's input depends on the duration).
	// dir is a fresh directory the instance may fill and must leave to the
	// caller to remove.
	setup func(seed int64, div int, seconds float64, dir string) (instance, error)
}

var workloads = []workload{
	{name: "q3_agg", setup: setupQ3},
	{name: "join_full", setup: func(seed int64, div int, _ float64, dir string) (instance, error) {
		return setupJoin("join_full", seed, joinFullN/div, machines, dir, nil)
	}},
	{name: "join_spill", setup: func(seed int64, div int, _ float64, dir string) (instance, error) {
		n := joinSpillN / div
		c, err := setupJoin("join_spill", seed, n, machines, dir, func(runDir string, o *squall.Options) error {
			o.Tier = &squall.TierOptions{MemCapBytes: int64(spillCapPerTuple * float64(2*n)), SpillDir: runDir}
			return nil
		})
		if err != nil {
			return nil, err
		}
		c.enforceCap = div == 1
		return c, nil
	}},
	{name: "join_ckpt", setup: func(seed int64, div int, _ float64, dir string) (instance, error) {
		n := joinCkptN / div
		return setupJoin("join_ckpt", seed, n, machines, dir, func(runDir string, o *squall.Options) error {
			store, err := squall.NewDiskCheckpointStore(runDir)
			if err != nil {
				return err
			}
			// Tiered state makes the checkpoints incremental. The kill lands
			// when task 1 has seen half of its quarter of the 2n inputs.
			o.Tier = &squall.TierOptions{}
			o.Recovery = &squall.RecoveryOptions{Store: store}
			o.FaultPlan = &squall.FaultPlan{Task: 1, AfterTuples: n / 4}
			return nil
		})
	}},
	{name: "join_tcp", setup: setupTCP},
	{name: "serve_paced", openLoop: true, setup: setupPaced},
}

// singleTask is join_full on one joiner task: the single-threaded baseline
// the all-workloads mode prints next to the others. Not a declared workload.
var singleTask = workload{name: "join_full_1task", setup: func(seed int64, div int, _ float64, dir string) (instance, error) {
	return setupJoin("join_full_1task", seed, joinFullN/div, 1, dir, nil)
}}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// source replays one relation to the engine from memory and notes when the
// engine took the first tuple and asked past the last.
type source struct {
	name   string
	schema *types.Schema
	rows   []types.Tuple // pre-parsed input, or
	lines  []string      // text the spout parses as the engine pulls

	first, last atomic.Int64 // unix ns of the latest run
}

func (s *source) size() int { return max(len(s.rows), len(s.lines)) }

func (s *source) spout(task, ntasks int) dataflow.Spout {
	return &sourceSpout{src: s, pos: task, stride: ntasks}
}

type sourceSpout struct {
	src         *source
	pos, stride int
}

func (sp *sourceSpout) Next() (types.Tuple, bool) {
	s := sp.src
	if sp.pos < sp.stride {
		s.first.Store(time.Now().UnixNano())
	}
	if sp.pos >= s.size() {
		s.last.Store(time.Now().UnixNano())
		return nil, false
	}
	i := sp.pos
	sp.pos += sp.stride
	if s.rows != nil {
		return s.rows[i], true
	}
	t, err := types.ParseLine(s.schema, s.lines[i], '|')
	if err != nil {
		panic(fmt.Sprintf("bench: generated line %d of %s does not parse: %v", i, s.name, err))
	}
	return t, true
}

// closedLoop is an instance whose run is one JoinQuery.Run to completion,
// the spouts emitting as fast as the engine pulls.
type closedLoop struct {
	name    string
	sources []*source
	query   *squall.JoinQuery
	// options fills in what the workload changes from the default Options;
	// runDir is a fresh directory removed after the run. May be nil.
	options func(runDir string, o *squall.Options) error
	rows    int64 // reference row count
	// want computes the reference rows, for the verify phase to compare.
	want   func() ([]types.Tuple, error)
	dir    string
	runs   int
	worker *worker // join_tcp only
	// enforceCap fails a run whose resident state peaked well over the cap
	// its options set. Only the full-size input can honour the cap: scaled down,
	// the unsealed head of each arena alone exceeds it.
	enforceCap bool

	planMS float64 // CompileSQL and BuildScheme, timed during set-up
}

func (c *closedLoop) tuples() int64 {
	var n int64
	for _, s := range c.sources {
		n += int64(s.size())
	}
	return n
}

func (c *closedLoop) run(tr *tracer, parent, run int, collect bool) sample {
	smp := sample{tuples: c.tuples()}
	fail := func(err error) sample {
		smp.err = fmt.Errorf("%s run %d: %w", c.name, run, err)
		smp.failed = smp.tuples
		return smp
	}
	c.runs++
	runDir := filepath.Join(c.dir, fmt.Sprintf("run%d", c.runs))
	if err := os.Mkdir(runDir, 0o755); err != nil {
		return fail(err)
	}
	defer os.RemoveAll(runDir)
	opt := squall.Options{CollectLimit: 1}
	if collect {
		opt.CollectLimit = 0
	}
	if c.options != nil {
		if err := c.options(runDir, &opt); err != nil {
			return fail(err)
		}
	}

	id, end := tr.begin(parent, "run", run)
	cpu0, err := cpuTime(c.worker)
	if err != nil {
		return fail(err)
	}
	t0 := time.Now()
	res, err := c.query.Run(opt)
	t1 := time.Now()
	smp.wall = t1.Sub(t0)
	end()
	if err != nil {
		return fail(err)
	}
	cpu1, err := cpuTime(c.worker)
	if err != nil {
		return fail(err)
	}
	smp.cpu = cpu1 - cpu0
	smp.res = res

	// The sources this process hosted say when the last input was handed
	// over; what remains of the run after that is the wait for the final
	// result. (In join_tcp S is read by the worker and only R is seen.)
	var last int64
	for _, s := range c.sources {
		if f := s.first.Swap(0); f != 0 {
			l := s.last.Swap(0)
			tr.mark(id, "source."+s.name, run, time.Unix(0, f), time.Unix(0, l))
			last = max(last, l)
		}
	}
	if last == 0 {
		return fail(fmt.Errorf("no source ran in this process"))
	}
	tr.mark(id, "drain", run, time.Unix(0, last), t1)
	ms := float64(smp.wall.Nanoseconds()) / 1e6
	smp.sliceP50, smp.sliceP99, smp.latencies = []float64{ms}, []float64{ms}, 1
	smp.drainMS = float64(t1.UnixNano()-last) / 1e6

	if p := res.Pressure; p != nil {
		smp.peak = p.PeakResident
		if c.enforceCap && float64(p.PeakResident) > capOvershoot*float64(p.CapBytes) {
			return fail(fmt.Errorf("resident state peaked at %d B, more than %g times the %d B cap", p.PeakResident, capOvershoot, p.CapBytes))
		}
	} else {
		for _, t := range res.Metrics.Component(res.JoinerComponent).Tasks {
			smp.peak += t.MaxMem.Load()
		}
	}
	if res.RowCount != c.rows {
		return fail(fmt.Errorf("%d result rows, reference has %d", res.RowCount, c.rows))
	}
	if opt.FaultPlan != nil && res.Metrics.Recovery.Kills.Load() != 1 {
		return fail(fmt.Errorf("%d kills recovered, want 1", res.Metrics.Recovery.Kills.Load()))
	}
	if collect {
		want, err := c.want()
		if err == nil {
			err = sameBag(res.Rows, want)
		}
		if err != nil {
			return fail(err)
		}
	}
	return smp
}

func (c *closedLoop) close() error {
	if c.worker != nil {
		return c.worker.stop()
	}
	return nil
}

// joinGraph is R.key = S.key.
var joinGraph = expr.MustJoinGraph(2, expr.EquiCol(0, 0, 1, 0))

// joinQuery is the 2-way equi-join every join_* workload runs: Hash-
// Hypercube over 4 machines, DBToaster tuple-level views, every delta row
// shipped to the sink.
func joinQuery(r, s *source, machines int) *squall.JoinQuery {
	return &squall.JoinQuery{
		Graph:    joinGraph,
		Scheme:   squall.HashHypercube,
		Machines: machines,
		Local:    squall.DBToaster,
		Sources: []squall.Source{
			{Name: "R", Schema: joinSchema, Spout: r.spout, Size: int64(r.size())},
			{Name: "S", Schema: joinSchema, Spout: s.spout, Size: int64(s.size())},
		},
	}
}

func setupJoin(name string, seed int64, n, machines int, dir string, options func(string, *squall.Options) error) (*closedLoop, error) {
	rRows, sRows := genJoin(seed, n)
	c := &closedLoop{
		name:    name,
		sources: []*source{{name: "R", schema: joinSchema, rows: rRows}, {name: "S", schema: joinSchema, rows: sRows}},
		options: options,
		dir:     dir,
	}
	refJoin(rRows, sRows, func(_, _ types.Tuple) { c.rows++ })
	c.want = func() (rows []types.Tuple, _ error) {
		refJoin(rRows, sRows, func(r, s types.Tuple) { rows = append(rows, concat(r, s)) })
		return rows, nil
	}
	t0 := time.Now()
	c.query = joinQuery(c.sources[0], c.sources[1], machines)
	if _, err := c.query.BuildScheme(); err != nil {
		return nil, err
	}
	c.planMS = float64(time.Since(t0).Nanoseconds()) / 1e6
	return c, nil
}

// setupQ3 compiles TPC-H Q3 from SQL over text-line sources: zipf(1) skew on
// Orders.custkey declared to the Hybrid-Hypercube, aggregate views in the
// joiner, everything else default.
func setupQ3(seed int64, div int, _ float64, dir string) (instance, error) {
	lines := genQ3(seed, q3Lineitems/div)
	c := &closedLoop{
		name: "q3_agg",
		sources: []*source{
			{name: "CUSTOMER", schema: customerSchema, lines: lines.customer},
			{name: "ORDERS", schema: ordersSchema, lines: lines.orders},
			{name: "LINEITEM", schema: lineitemSchema, lines: lines.lineitem},
		},
		dir: dir,
	}
	want, err := refQ3(lines)
	if err != nil {
		return nil, err
	}
	c.rows = int64(len(want))
	c.want = func() ([]types.Tuple, error) { return want, nil }

	cat := squall.Catalog{}
	for _, s := range c.sources {
		cat[s.name] = squall.CatalogEntry{Schema: s.schema, Spout: s.spout, Size: int64(s.size())}
	}
	orders := cat["ORDERS"]
	orders.Skewed = map[string]bool{"custkey": true}
	orders.TopFreq = map[string]float64{"custkey": lines.topCustFreq}
	cat["ORDERS"] = orders
	t0 := time.Now()
	c.query, err = squall.CompileSQL(q3SQL, cat, squall.SQLOptions{
		Scheme: squall.HybridHypercube, Local: squall.DBToaster, Machines: machines,
	})
	if err != nil {
		return nil, err
	}
	if _, err := c.query.BuildScheme(); err != nil {
		return nil, err
	}
	c.planMS = float64(time.Since(t0).Nanoseconds()) / 1e6
	return c, nil
}

// tcpJob is the cluster job join_tcp registers: the coordinator and the
// worker process both rebuild the query from these parameters.
const tcpJob = "bench-join"

type tcpParams struct {
	Seed int64 `json:"seed"`
	N    int   `json:"n"`
}

// tcpInputs caches the worker's regenerated inputs, so only the first
// (discarded) run of a session pays for generating them.
var tcpInputs struct {
	sync.Mutex
	p    tcpParams
	r, s *source
}

func init() {
	squall.RegisterClusterJob(tcpJob, func(params []byte) (*squall.JoinQuery, squall.Options, error) {
		var p tcpParams
		if err := json.Unmarshal(params, &p); err != nil {
			return nil, squall.Options{}, fmt.Errorf("bench: decoding %s params: %w", tcpJob, err)
		}
		c := &tcpInputs
		c.Lock()
		defer c.Unlock()
		if c.r == nil || c.p != p {
			rRows, sRows := genJoin(p.Seed, p.N)
			c.p = p
			c.r = &source{name: "R", schema: joinSchema, rows: rRows}
			c.s = &source{name: "S", schema: joinSchema, rows: sRows}
		}
		return joinQuery(c.r, c.s, machines), squall.Options{CollectLimit: 1}, nil
	})
}

// setupTCP is join_full as a cluster run: this process coordinates and one
// worker process (this binary re-executed) hosts S and the joiner under the
// default placement, so R's tuples and every result row cross a loopback
// socket.
func setupTCP(seed int64, div int, _ float64, dir string) (instance, error) {
	n := joinTCPN / div
	w, err := startWorker()
	if err != nil {
		return nil, err
	}
	params, err := json.Marshal(tcpParams{Seed: seed, N: n})
	if err != nil {
		w.stop()
		return nil, err
	}
	c, err := setupJoin("join_tcp", seed, n, machines, dir, func(_ string, o *squall.Options) error {
		o.Cluster = &squall.ClusterSpec{Workers: []string{w.addr}, Job: tcpJob, Params: params, Policy: squall.FateShare}
		return nil
	})
	if err != nil {
		w.stop()
		return nil, err
	}
	c.worker = w
	return c, nil
}
