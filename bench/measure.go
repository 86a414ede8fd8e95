package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// outDir, relative to the benchmark's directory, holds everything a pass
// writes: temporary spill and checkpoint directories, trace files.
const outDir = "out"

// metricDef declares one metric. BENCHMARK.json carries the same list (the
// suite test holds the two together) plus each end-to-end metric's bound.
type metricDef struct {
	name, unit string
	higher     bool // better when higher
}

var endToEnd = []metricDef{
	{"tuples_per_s", "1/s", true},
	{"cpu_us_per_tuple", "us", false},
	{"latency_p50_ms", "ms", false},
	{"latency_p99_ms", "ms", false},
	{"peak_state_mb", "MB", false},
	{"setup_s", "s", false},
}

var perLayer = []metricDef{
	{"core.plan_ms", "ms", false},
	{"core.route_ns_row", "ns", false},
	{"core.replication", "ratio", false},
	{"types.parse_ns_row", "ns", false},
	{"wire.encode_ns_row", "ns", false},
	{"wire.cursor_ns_row", "ns", false},
	{"wire.decode_ns_row", "ns", false},
	{"wire.bytes_row", "B", false},
	{"ops.select_ns_row", "ns", false},
	{"ops.select_frame_ns_row", "ns", false},
	{"ops.selectivity", "ratio", false},
	{"ops.fold_ns_row", "ns", false},
	{"slab.insert_ns_row", "ns", false},
	{"slab.bytes_row", "B", false},
	{"slab.spills", "count", false},
	{"slab.faults_per_spill", "ratio", false},
	{"slab.peak_resident", "MB", false},
	{"slab.replay_spilled_mb", "MB", false},
	{"index.insert_ns", "ns", false},
	{"index.probe_ns", "ns", false},
	{"index.verify_ratio", "ratio", true},
	{"join.onrow_ns_row", "ns", false},
	{"join.deltas_row", "ratio", false},
	{"recovery.ckpt_ms", "ms", false},
	{"recovery.ckpt_bytes", "B", false},
	{"recovery.restore_ms", "ms", false},
	{"recovery.checkpoints", "count", false},
	{"recovery.replayed_tuples", "count", false},
	{"transport.frame_us", "us", false},
	{"transport.mb_s", "MB/s", true},
	{"serve.encodes_per_row", "ratio", false},
	{"serve.tap_stalls", "count", false},
	{"serve.register_ms", "ms", false},
	{"dataflow.path_us_tuple", "us", false},
	{"dataflow.residual_us_tuple", "us", false},
	{"dataflow.vec_share", "ratio", true},
	{"dataflow.bytes_out_tuple", "B", false},
	{"dataflow.batches", "count", false},
	{"dataflow.skew", "ratio", false},
	{"trace.cpu_us_per_tuple", "us", false},
	{"trace.overhead_pct", "%", false},
}

// metric is one measured value. Value is what is reported and compared; Q1,
// Q3 and N describe the per-run values behind it, when there are several.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
}

// result is one pass over one workload.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Traced    bool              `json:"traced"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"` // input tuples offered to timed runs
	Failed    int64             `json:"failed"`    // of those, in runs that erred or answered wrong, plus undelivered rows
	Errors    []string          `json:"errors,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	// Info is printed, never gated: run and sample counts, generator lag.
	Info      map[string]float64 `json:"info"`
	TraceFile string             `json:"trace_file,omitempty"`
}

func (r *result) errorRate() float64 {
	if r.Attempted == 0 {
		return 1
	}
	return float64(r.Failed) / float64(r.Attempted)
}

const (
	setupRepeats = 5 // set-ups per pass; setup_s is their median
	minRuns      = 3 // closed-loop timed runs per pass, however short the pass
)

// measure runs one pass: set-up (five times), the verify phase, a warm-up
// run, then timed runs for the given seconds. A traced pass alternates
// untraced and traced runs, replays the stages, and reports the per-layer
// metrics instead of the end-to-end ones. div scales the frozen input sizes
// down; only the suite test passes anything but 1.
func measure(w workload, seed int64, seconds float64, traced bool, div int) (*result, error) {
	res := &result{Workload: w.name, Seed: seed, Seconds: seconds, Traced: traced,
		Metrics: map[string]metric{}, Info: map[string]float64{}}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	root, err := os.MkdirTemp(outDir, w.name+"-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	subdir := func(name string) (string, error) {
		d := filepath.Join(root, name)
		return d, os.Mkdir(d, 0o755)
	}

	goroutines := runtime.NumGoroutine()
	var tr *tracer
	if traced {
		tr = newTracer(w.name)
	}
	rootID, endRoot := tr.begin(0, "workload", 0)

	// A traced pass splits its time between untraced and traced runs; the
	// paced window is the only input whose size depends on it.
	window := seconds
	if traced {
		window = seconds / 2
	}

	var inst instance
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		dir, err := subdir(fmt.Sprintf("setup%d", i))
		if err != nil {
			return nil, err
		}
		_, end := tr.begin(rootID, "setup", i)
		t0 := time.Now()
		inst, err = w.setup(seed, div, window, dir)
		setups = append(setups, time.Since(t0).Seconds())
		end()
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		if i < setupRepeats-1 {
			if err := inst.close(); err != nil {
				return nil, fmt.Errorf("%s: tearing down set-up %d: %w", w.name, i, err)
			}
		}
	}
	closed := false
	closeInst := func() error {
		if closed {
			return nil
		}
		closed = true
		return inst.close()
	}
	defer closeInst()

	note := func(err error) { res.Errors = append(res.Errors, err.Error()) }

	// Verify: the exact configuration at 1/16 scale, every row compared.
	vdir, err := subdir("verify")
	if err != nil {
		return nil, err
	}
	vinst, err := w.setup(seed, max(div, verifyDiv), window, vdir)
	if err != nil {
		return nil, fmt.Errorf("%s: verify set-up: %w", w.name, err)
	}
	vs := vinst.run(tr, rootID, -1, true)
	if err := vinst.close(); err != nil {
		note(err)
	}
	if vs.err != nil {
		note(fmt.Errorf("verify: %w", vs.err))
	}

	if !w.openLoop {
		if s := inst.run(nil, 0, 0, false); s.err != nil { // warm-up, discarded
			note(fmt.Errorf("warm-up: %w", s.err))
		}
	}

	// Timed runs. Odd runs of a traced pass carry the tracer.
	var plain, withTrace []sample
	var spent time.Duration
	for k := 0; ; k++ {
		enough := spent.Seconds() >= seconds && len(plain) >= minRuns && (!traced || len(withTrace) >= minRuns)
		if w.openLoop {
			// One paced window is the whole measurement (two when traced).
			enough = len(plain) == 1 && (!traced || len(withTrace) == 1)
		}
		if enough {
			break
		}
		runtime.GC()
		var s sample
		if traced && k%2 == 1 {
			s = inst.run(tr, rootID, k+1, false)
			withTrace = append(withTrace, s)
		} else {
			s = inst.run(nil, 0, k+1, false)
			plain = append(plain, s)
		}
		spent += s.wall
		res.Attempted += s.tuples
		res.Failed += s.failed
		if s.err != nil {
			note(s.err)
			if s.wall == 0 {
				break // failing before it starts: do not spin
			}
		}
	}

	if traced {
		lc, err := inst.replay(tr, rootID)
		if err != nil {
			note(fmt.Errorf("replay: %w", err))
		}
		layerMetrics(res, lc, plain, withTrace)
	} else {
		endToEndMetrics(res, plain, setups)
	}

	if err := closeInst(); err != nil {
		note(err)
	}
	endRoot()
	if traced {
		if res.TraceFile, err = tr.write(outDir); err != nil {
			note(err)
		}
		for name, ms := range tr.selfMS() {
			res.Info["self_ms "+name] = ms
		}
	}
	// Every goroutine the workload started must be gone; give exiting ones a
	// moment to be descheduled for the last time.
	for wait := time.Now(); runtime.NumGoroutine() > goroutines; time.Sleep(10 * time.Millisecond) {
		if time.Since(wait) > 2*time.Second {
			note(fmt.Errorf("%d goroutines after the workload, %d before it", runtime.NumGoroutine(), goroutines))
			res.Failed = res.Attempted
			break
		}
	}
	res.Correct = len(res.Errors) == 0 && res.Failed == 0 && res.Attempted > 0
	return res, nil
}

// endToEndMetrics fills res.Metrics from the timed runs of an untraced pass.
func endToEndMetrics(res *result, runs []sample, setups []float64) {
	var tps, cpu, peak, p50, p99, drain []float64
	latencies := 0
	var cpuNS, tuples float64
	for _, s := range runs {
		if s.err != nil || s.wall == 0 {
			continue
		}
		tps = append(tps, float64(s.tuples)/s.wall.Seconds())
		cpu = append(cpu, float64(s.cpu.Microseconds())/float64(s.tuples))
		peak = append(peak, float64(s.peak)/1e6)
		p50 = append(p50, s.sliceP50...)
		p99 = append(p99, s.sliceP99...)
		latencies += s.latencies
		cpuNS += float64(s.cpu.Nanoseconds())
		tuples += float64(s.tuples)
		res.Info["generator_lag_ms"] = max(res.Info["generator_lag_ms"], s.lagMS)
		drain = append(drain, s.drainMS)
		if s.serve != nil {
			res.Info["latency_p50_first_half_ms"] = s.serve.earlyP50MS
			res.Info["latency_p50_second_half_ms"] = s.serve.lateP50MS
			res.Info["latency_p99_whole_window_ms"] = s.serve.wholeP99MS
		}
	}
	res.Info["runs"] = float64(len(tps))
	_, res.Info["drain_ms"], _ = quartiles(drain)
	res.Info["latency_samples"] = float64(latencies)
	// Each metric's series, per run or per slice; the reported value is its
	// median, except that CPU is totalled over the runs.
	series := map[string][]float64{
		"tuples_per_s": tps, "cpu_us_per_tuple": cpu, "latency_p50_ms": p50,
		"latency_p99_ms": p99, "peak_state_mb": peak, "setup_s": setups,
	}
	for _, d := range endToEnd {
		q1, value, q3 := quartiles(series[d.name])
		if d.name == "cpu_us_per_tuple" && tuples > 0 {
			value = cpuNS / 1e3 / tuples
		}
		res.Metrics[d.name] = metric{Value: value, Unit: d.unit, Q1: q1, Q3: q3, N: len(series[d.name])}
	}
}

// layerMetrics fills res.Metrics of a traced pass: the replay's figures, the
// engine's own counters from the last traced run, and what the replayed path
// leaves unexplained of the traced runs' CPU.
func layerMetrics(res *result, lc layerCosts, plain, traced []sample) {
	vals := map[string]float64{}
	for k, v := range lc.m {
		vals[k] = v
	}
	var cpuNS, tuples float64
	var wallPlain, wallTraced []float64
	var last *sample
	for i := range traced {
		s := &traced[i]
		if s.err != nil {
			continue
		}
		cpuNS += float64(s.cpu.Nanoseconds())
		tuples += float64(s.tuples)
		wallTraced = append(wallTraced, s.wall.Seconds())
		last = s
	}
	for _, s := range plain {
		if s.err == nil {
			wallPlain = append(wallPlain, s.wall.Seconds())
		}
	}
	if tuples > 0 {
		vals["trace.cpu_us_per_tuple"] = cpuNS / 1e3 / tuples
		vals["dataflow.path_us_tuple"] = lc.pathNS / 1e3 / float64(last.tuples)
		vals["dataflow.residual_us_tuple"] = vals["trace.cpu_us_per_tuple"] - vals["dataflow.path_us_tuple"]
	}
	if _, mp, _ := quartiles(wallPlain); mp > 0 {
		_, mt, _ := quartiles(wallTraced)
		vals["trace.overhead_pct"] = 100 * (mt - mp) / mp
	}
	if last != nil && last.res != nil {
		r := last.res
		m := r.Metrics
		j := m.Component(r.JoinerComponent)
		var vecRows int64
		for _, t := range j.Tasks {
			vecRows += t.VecRows.Load()
		}
		vals["dataflow.vec_share"] = per(float64(vecRows), int(j.ReceivedTotal()))
		vals["dataflow.bytes_out_tuple"] = per(float64(m.TotalBytesOut()), int(last.tuples))
		vals["dataflow.batches"] = float64(m.TotalBatches())
		vals["dataflow.skew"] = j.SkewDegree()
		vals["recovery.checkpoints"] = float64(m.Recovery.Checkpoints.Load())
		vals["recovery.replayed_tuples"] = float64(m.Recovery.ReplayedTuples.Load())
		if p := r.Pressure; p != nil {
			vals["slab.spills"] = float64(p.Spills)
			vals["slab.faults_per_spill"] = per(float64(p.SegmentFaults), int(p.Spills))
			vals["slab.peak_resident"] = float64(p.PeakResident) / 1e6
		}
	}
	if last != nil && last.serve != nil {
		sv := last.serve
		vals["serve.encodes_per_row"] = per(float64(sv.encodes), int(sv.rows))
		vals["serve.tap_stalls"] = float64(sv.stalls)
		vals["serve.register_ms"] = sv.registerMS
	}
	for _, d := range perLayer {
		res.Metrics[d.name] = metric{Value: vals[d.name], Unit: d.unit, Q1: vals[d.name], Q3: vals[d.name], N: 1}
	}
	res.Info["runs"] = float64(len(traced))
}
