package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// The test binary doubles as the join_tcp worker, as the benchmark binary
// does.
func TestMain(m *testing.M) {
	if os.Getenv(workerEnv) != "" {
		workerMain()
	}
	os.Exit(m.Run())
}

// testDiv shrinks every frozen size so the whole suite takes seconds.
const testDiv = 20

func declared(t *testing.T, what string, defs []metricDef, spec []specMetric, bounded bool) {
	t.Helper()
	if len(defs) != len(spec) {
		t.Fatalf("%s: the benchmark declares %d metrics, BENCHMARK.json %d", what, len(defs), len(spec))
	}
	for i, d := range defs {
		s := spec[i]
		better := "lower"
		if d.higher {
			better = "higher"
		}
		if s.Name != d.name || s.Unit != d.unit || s.Better != better {
			t.Errorf("%s metric %d: benchmark has %s [%s] %s, BENCHMARK.json has %s [%s] %s",
				what, i, d.name, d.unit, better, s.Name, s.Unit, s.Better)
		}
		if bounded && (s.Bound <= 0 || s.Bound > 0.25) {
			t.Errorf("%s metric %s: bound %v is not in (0, 0.25]", what, s.Name, s.Bound)
		}
	}
}

// TestDeclaration holds the metric and workload tables in this package to
// BENCHMARK.json.
func TestDeclaration(t *testing.T) {
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(sp.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if sp.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %s here and %s in BENCHMARK.json", i, w.name, sp.Workloads[i].Name)
		}
		if n := len(sp.Workloads[i].Why); n == 0 || n > 200 || strings.Contains(sp.Workloads[i].Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.name, n)
		}
	}
	declared(t, "end_to_end", endToEnd, sp.EndToEnd, true)
	declared(t, "per_layer", perLayer, sp.PerLayer, false)
	if len(sp.Paths) != 1 || sp.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", sp.Paths)
	}
}

// TestSuite runs every workload at 1/20 size, untraced and traced: the
// reference checks must pass, every declared metric must be emitted with its
// unit, and the trace file must parse with every span parented.
func TestSuite(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, err := measure(w, 7, 0.5, false, testDiv)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct {
				t.Fatalf("checks failed (%d of %d tuples): %v", res.Failed, res.Attempted, res.Errors)
			}
			for _, d := range endToEnd {
				if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit || m.Value <= 0 {
					t.Errorf("%s = %+v (present %v), want a positive value in %s", d.name, m, ok, d.unit)
				}
			}

			res, err = measure(w, 7, 0.5, true, testDiv)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct {
				t.Fatalf("traced pass: checks failed: %v", res.Errors)
			}
			for _, d := range perLayer {
				if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
					t.Errorf("%s = %+v (present %v), want unit %s", d.name, m, ok, d.unit)
				}
			}
			for _, name := range []string{"wire.encode_ns_row", "join.onrow_ns_row", "dataflow.path_us_tuple", "trace.cpu_us_per_tuple"} {
				if res.Metrics[name].Value <= 0 {
					t.Errorf("%s = %v, want it measured", name, res.Metrics[name].Value)
				}
			}
			sum := res.Metrics["dataflow.path_us_tuple"].Value + res.Metrics["dataflow.residual_us_tuple"].Value
			if cpu := res.Metrics["trace.cpu_us_per_tuple"].Value; sum < 0.999*cpu || sum > 1.001*cpu {
				t.Errorf("replayed path + residual = %v us/tuple, the traced runs used %v", sum, cpu)
			}

			data, err := os.ReadFile(res.TraceFile)
			if err != nil {
				t.Fatal(err)
			}
			var spans []span
			if err := json.Unmarshal(data, &spans); err != nil {
				t.Fatalf("%s: %v", res.TraceFile, err)
			}
			roots := 0
			for _, s := range spans {
				switch {
				case s.Parent == 0:
					roots++
				case s.Parent < 0 || s.Parent > len(spans) || s.Parent == s.ID:
					t.Errorf("span %d (%s) has parent %d of %d spans", s.ID, s.Name, s.Parent, len(spans))
				}
				if s.EndNS < s.StartNS || s.Workload != w.name {
					t.Errorf("span %+v: ends before it starts, or names another workload", s)
				}
			}
			if roots != 1 || len(spans) < 10 {
				t.Errorf("%d spans with %d roots, want one root over many", len(spans), roots)
			}
		})
	}
}

func TestCompare(t *testing.T) {
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	file := func(scale map[string]float64, spread float64) *outFile {
		f := &outFile{}
		for _, w := range sp.Workloads {
			r := &result{Workload: w.Name, Correct: true, Attempted: 100, Metrics: map[string]metric{}}
			for _, m := range sp.EndToEnd {
				v := 100.0
				if s, ok := scale[m.Name]; ok {
					v *= s
				}
				r.Metrics[m.Name] = metric{Value: v, Unit: m.Unit, Q1: v * (1 - spread/2), Q3: v * (1 + spread/2), N: 5}
			}
			f.Results = append(f.Results, r)
		}
		return f
	}
	var out strings.Builder
	base := file(nil, 0.01)
	if compare(&out, sp, base, file(nil, 0.01)) {
		t.Errorf("a file compared worse than its copy:\n%s", out.String())
	}
	if !compare(&out, sp, base, file(map[string]float64{"tuples_per_s": 0.5}, 0.01)) {
		t.Error("half the tuples per second did not compare worse")
	}
	if compare(&out, sp, base, file(map[string]float64{"tuples_per_s": 1.5, "cpu_us_per_tuple": 0.5}, 0.01)) {
		t.Error("a gain compared worse")
	}
	out.Reset()
	if compare(&out, sp, base, file(map[string]float64{"latency_p50_ms": 1.15}, 0.5)) || !strings.Contains(out.String(), "unresolved") {
		t.Errorf("a 15%% shift inside a 50%% spread should be unresolved, not worse:\n%s", out.String())
	}
	failing := file(nil, 0.01)
	failing.Results[0].Failed = 1
	if !compare(&out, sp, base, failing) {
		t.Error("a higher error rate did not compare worse")
	}
}
