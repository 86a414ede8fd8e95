package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval recorded by the benchmark around a call into
// the engine or one of its layers. Spans of one workload pass share its
// name; Run tells the timed runs apart. A span's self time is its duration
// minus the part its children cover.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0 for the root
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Run      int    `json:"run"`
	StartNS  int64  `json:"start_ns"` // since the tracer was made
	EndNS    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the pass ends. A nil tracer records
// nothing, which is how the untraced pass runs the same code.
type tracer struct {
	workload string
	t0       time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now()}
}

// begin opens a span and returns the function that closes it, plus the id
// children name as their parent.
func (tr *tracer) begin(parent int, name string, run int) (id int, end func()) {
	if tr == nil {
		return 0, func() {}
	}
	id = tr.add(span{Parent: parent, Name: name, Run: run, StartNS: time.Since(tr.t0).Nanoseconds()})
	return id, func() {
		now := time.Since(tr.t0).Nanoseconds()
		tr.mu.Lock()
		tr.spans[id-1].EndNS = now
		tr.mu.Unlock()
	}
}

// mark records an already-measured interval (a spout's active period, read
// after the run it belongs to).
func (tr *tracer) mark(parent int, name string, run int, start, end time.Time) {
	if tr == nil {
		return
	}
	tr.add(span{Parent: parent, Name: name, Run: run,
		StartNS: start.Sub(tr.t0).Nanoseconds(), EndNS: end.Sub(tr.t0).Nanoseconds()})
}

// add stores s under the next id and returns the id.
func (tr *tracer) add(s span) int {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	s.ID, s.Workload = len(tr.spans)+1, tr.workload
	tr.spans = append(tr.spans, s)
	return s.ID
}

// selfMS sums self time by span name: a span's duration minus the part of it
// its children cover (children may overlap each other, as the sources of one
// run do, and are counted once).
func (tr *tracer) selfMS() map[string]float64 {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range tr.spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := make(map[string]float64)
	for _, s := range tr.spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
		covered, upTo := int64(0), s.StartNS
		for _, k := range kids {
			from, to := max(k.StartNS, upTo), min(k.EndNS, s.EndNS)
			if to > from {
				covered += to - from
				upTo = to
			}
		}
		self[s.Name] += float64(s.EndNS-s.StartNS-covered) / 1e6
	}
	return self
}

// write stores the spans as dir/trace-<workload>.json.
func (tr *tracer) write(dir string) (string, error) {
	tr.mu.Lock()
	data, err := json.MarshalIndent(tr.spans, "", " ")
	tr.mu.Unlock()
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+tr.workload+".json")
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}
