package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// spec mirrors BENCHMARK.json, the declaration of this benchmark at the
// root of the repository.
type spec struct {
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// loadSpec reads BENCHMARK.json from the repository root, one level above
// the benchmark's directory, where `go run -C bench` and `go test` both run.
func loadSpec() (*spec, error) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// outFile is what -out writes and -compare reads: every pass of one
// invocation.
type outFile struct {
	Seed    int64     `json:"seed"`
	Seconds float64   `json:"seconds"`
	Results []*result `json:"results"`
}

func readOutFile(path string) (*outFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f outFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

func (f *outFile) find(workload string) *result {
	for _, r := range f.Results {
		if r.Workload == workload && !r.Traced {
			return r
		}
	}
	return nil
}

// compare holds b against a, one row per end-to-end metric and workload,
// using the bounds BENCHMARK.json fixes. A row is "worse" when b's value is
// worse than a's by more than the bound and by more than either side's
// quartile spread; "unresolved" when a spread exceeds the bound, so a
// change of the bound's size could not be seen; otherwise "same". It reports
// whether any row, or any workload's error rate, got worse.
func compare(w io.Writer, sp *spec, a, b *outFile) (worse bool) {
	fmt.Fprintf(w, "%-12s %-18s %14s %14s %8s %7s %7s  %s\n",
		"workload", "metric", "a", "b", "change", "spread", "bound", "verdict")
	for _, wl := range sp.Workloads {
		ra, rb := a.find(wl.Name), b.find(wl.Name)
		if ra == nil || rb == nil {
			fmt.Fprintf(w, "%-12s missing from one side\n", wl.Name)
			worse = true
			continue
		}
		for _, m := range sp.EndToEnd {
			ma, mb := ra.Metrics[m.Name], rb.Metrics[m.Name]
			if ma.Value == 0 {
				fmt.Fprintf(w, "%-12s %-18s no value in a\n", wl.Name, m.Name)
				worse = true
				continue
			}
			change := (mb.Value - ma.Value) / ma.Value // positive = grew
			if m.Better == "higher" {
				change = -change
			} // now positive = got worse
			spread := max(relSpread(ma), relSpread(mb))
			verdict := "same"
			switch {
			case change > m.Bound && change > spread:
				verdict = "worse"
				worse = true
			case spread > m.Bound:
				verdict = "unresolved"
			}
			fmt.Fprintf(w, "%-12s %-18s %14.4f %14.4f %+7.1f%% %6.1f%% %6.1f%%  %s\n",
				wl.Name, m.Name, ma.Value, mb.Value, 100*change, 100*spread, 100*m.Bound, verdict)
		}
		if ea, eb := ra.errorRate(), rb.errorRate(); eb > ea {
			fmt.Fprintf(w, "%-12s %-18s %14.6f %14.6f  worse\n", wl.Name, "error_rate", ea, eb)
			worse = true
		}
	}
	return worse
}

// relSpread is the distance between a metric's quartiles as a share of its
// value.
func relSpread(m metric) float64 {
	if m.Value == 0 {
		return 0
	}
	return (m.Q3 - m.Q1) / m.Value
}
