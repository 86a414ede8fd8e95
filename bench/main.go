// Command bench is the repository's one benchmark: six named workloads, the
// end-to-end metrics a user of the engine sees, and a per-layer pass that
// says which module the time went to. BENCHMARK.json at the repository root
// declares it; README.md says why each workload and metric is there.
//
// Run from the repository root:
//
//	go run -C bench . -workload join_full -seed 1 -seconds 12 -trace 0
//	go run -C bench . -out a.json            # all workloads, untraced
//	go run -C bench . -trace 1               # plus the traced pass
//	go run -C bench . -compare a.json b.json
//	go run -C bench . -rates 40000,80000,120000
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

func main() {
	if os.Getenv(workerEnv) != "" {
		workerMain()
	}
	var (
		workloadName = flag.String("workload", "", "run this workload only and end with the one-line JSON result")
		seed         = flag.Int64("seed", 1, "seed every input is generated from")
		seconds      = flag.Float64("seconds", 12, "how long each pass measures")
		trace        = flag.Int("trace", 0, "1: make the traced per-layer pass (with -workload, instead of the untraced one)")
		out          = flag.String("out", "", "also write the results to this file, for -compare")
		doCompare    = flag.Bool("compare", false, "compare two -out files: bench -compare a.json b.json")
		rates        = flag.String("rates", "", "rerun serve_paced at these total rates (tuples/s, comma-separated) and report the highest sustainable one")
	)
	flag.Parse()
	if err := run(*workloadName, *seed, *seconds, *trace == 1, *out, *doCompare, *rates, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(workloadName string, seed int64, seconds float64, traced bool, out string, doCompare bool, rates string, args []string) error {
	switch {
	case doCompare:
		if len(args) != 2 {
			return fmt.Errorf("-compare needs two result files")
		}
		sp, err := loadSpec()
		if err != nil {
			return err
		}
		a, err := readOutFile(args[0])
		if err != nil {
			return err
		}
		b, err := readOutFile(args[1])
		if err != nil {
			return err
		}
		if compare(os.Stdout, sp, a, b) {
			return fmt.Errorf("%s is worse than %s", args[1], args[0])
		}
		return nil
	case rates != "":
		return sweepRates(seed, seconds, rates)
	case len(args) > 0:
		return fmt.Errorf("unexpected arguments %q", args)
	}

	file := outFile{Seed: seed, Seconds: seconds}
	defer func() {
		if out != "" {
			if err := writeJSON(out, file); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
			}
		}
	}()
	pass := func(w workload, traced bool) (*result, error) {
		res, err := measure(w, seed, seconds, traced, 1)
		if err != nil {
			return nil, err
		}
		file.Results = append(file.Results, res)
		printResult(res)
		return res, nil
	}

	if workloadName != "" {
		w, ok := findWorkload(workloadName)
		if !ok {
			return fmt.Errorf("unknown workload %q", workloadName)
		}
		res, err := pass(w, traced)
		if err != nil {
			return err
		}
		// The contract's last line: exactly these keys, value and unit only.
		type mv struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		}
		line := struct {
			Correct   bool          `json:"correct"`
			Attempted int64         `json:"attempted"`
			Failed    int64         `json:"failed"`
			Metrics   map[string]mv `json:"metrics"`
		}{res.Correct, res.Attempted, res.Failed, map[string]mv{}}
		for name, m := range res.Metrics {
			line.Metrics[name] = mv{m.Value, m.Unit}
		}
		data, err := json.Marshal(line)
		if err != nil {
			return err
		}
		fmt.Println(string(data))
		if !res.Correct {
			return fmt.Errorf("%s: %d of %d input tuples failed", w.name, res.Failed, res.Attempted)
		}
		return nil
	}

	failed := 0
	tps := map[string]float64{}
	for _, w := range append(workloads[:len(workloads):len(workloads)], singleTask) {
		res, err := pass(w, false)
		if err != nil {
			return err
		}
		tps[w.name] = res.Metrics["tuples_per_s"].Value
		if !res.Correct {
			failed++
		}
		if traced && w.name != singleTask.name {
			if res, err = pass(w, true); err != nil {
				return err
			}
			if !res.Correct {
				failed++
			}
		}
	}
	// Ratios the ROADMAP sets targets on. Information, not gates.
	if base := tps["join_full"]; base > 0 {
		fmt.Println("\ntuples_per_s relative to join_full:")
		for _, name := range []string{"join_spill", "join_ckpt", "join_tcp", singleTask.name} {
			fmt.Printf("  %-18s %.3f\n", name, tps[name]/base)
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d passes failed their checks", failed)
	}
	return nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printResult lists one pass: every metric by name with its unit, then the
// ungated information and any failed checks.
func printResult(r *result) {
	kind := "end-to-end"
	if r.Traced {
		kind = "per-layer (traced pass)"
	}
	fmt.Printf("\n%s, seed %d, %gs, %s\n", r.Workload, r.Seed, r.Seconds, kind)
	defs := endToEnd
	if r.Traced {
		defs = perLayer
	}
	for _, d := range defs {
		m := r.Metrics[d.name]
		if m.N > 1 {
			fmt.Printf("  %-28s %14.4f %-6s quartiles %.4f .. %.4f, n=%d\n", d.name, m.Value, m.Unit, m.Q1, m.Q3, m.N)
		} else {
			fmt.Printf("  %-28s %14.4f %-6s\n", d.name, m.Value, m.Unit)
		}
	}
	fmt.Printf("  %-28s %14.6f        %d of %d input tuples\n", "error_rate", r.errorRate(), r.Failed, r.Attempted)
	keys := make([]string, 0, len(r.Info))
	for k := range r.Info {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  (%s %.3f)\n", k, r.Info[k])
	}
	if r.TraceFile != "" {
		fmt.Printf("  (spans in %s)\n", r.TraceFile)
	}
	for _, e := range r.Errors {
		fmt.Printf("  FAILED: %s\n", e)
	}
}

// sweepRates reruns serve_paced at each rate and reports the highest one
// that is sustainable: 99th-percentile latency within 250 ms and no growing
// backlog (the second half's median latency not far above the first's).
// Offline use; nothing is gated on it.
func sweepRates(seed int64, seconds float64, list string) error {
	const limitMS = 250
	best := 0.0
	fmt.Printf("%12s %10s %10s %10s %10s %10s  %s\n", "rate 1/s", "p50 ms", "p99 ms", "1st half", "2nd half", "lag ms", "sustainable")
	for _, f := range strings.Split(list, ",") {
		rate, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil || rate <= 0 {
			return fmt.Errorf("-rates: %q is not a positive rate", f)
		}
		p, err := setupPacedAt(seed, 1, seconds, rate)
		if err != nil {
			return err
		}
		s := p.run(nil, 0, 0, false)
		if s.err != nil {
			return s.err
		}
		_, p50, _ := quartiles(s.sliceP50)
		p99 := s.serve.wholeP99MS
		growing := s.serve.lateP50MS > 2*s.serve.earlyP50MS+10
		ok := p99 <= limitMS && !growing
		if ok {
			best = max(best, rate)
		}
		fmt.Printf("%12.0f %10.2f %10.2f %10.2f %10.2f %10.2f  %v\n", rate, p50, p99, s.serve.earlyP50MS, s.serve.lateP50MS, s.lagMS, ok)
	}
	fmt.Printf("highest sustainable rate: %.0f tuples/s (p99 <= %d ms, no growing backlog)\n", best, limitMS)
	return nil
}
