package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"squall/experiments"
	"squall/internal/dataflow"
	"squall/internal/datagen"
	"squall/internal/types"
	"squall/internal/wire"
)

// benchFile is where -json records the batched-transport numbers.
const benchFile = "BENCH_PR1.json"

// Figure5Runner runs one Figure 5 stage and returns its elapsed time.
type Figure5Runner = func() (time.Duration, error)

// stageResult is one Figure 5 stage measured at both transports.
type stageResult struct {
	Name       string  `json:"name"`
	Batch1NS   int64   `json:"batch1_ns"`
	BatchedNS  int64   `json:"batched_ns"`
	SpeedupX   float64 `json:"speedup_x"`
	Iterations int     `json:"iterations"`
}

// decodeResult compares per-tuple decode cost of the single-tuple path
// against the arena batch path on a 64-tuple frame.
type decodeResult struct {
	TuplesPerFrame      int     `json:"tuples_per_frame"`
	SingleNSPerTuple    float64 `json:"single_ns_per_tuple"`
	BatchNSPerTuple     float64 `json:"batch_ns_per_tuple"`
	SingleAllocsPerTup  float64 `json:"single_allocs_per_tuple"`
	BatchAllocsPerTup   float64 `json:"batch_allocs_per_tuple"`
	AllocReductionX     float64 `json:"alloc_reduction_x"`
	DecodeThroughputImp float64 `json:"decode_speedup_x"`
}

type benchReport struct {
	PR        int           `json:"pr"`
	Benchmark string        `json:"benchmark"`
	BatchSize int           `json:"batch_size"`
	Stages    []stageResult `json:"stages"`
	Decode    decodeResult  `json:"decode"`
}

// batchTransport measures what PR 1 bought: the network-hop and full-join
// stages of Figure 5 shipping one-row batches (batch=1) and default-size
// batches, plus the decode allocation amortization.
func batchTransport() {
	header(fmt.Sprintf("Batched transport: batch=1 (one-row batches) vs batch=%d (default)", dataflow.DefaultBatchSize))
	// 4x the bench_test scale: longer runs amortize additive scheduling noise
	// on shared boxes, which otherwise inflates the (shorter) batched runs
	// relatively more and understates the ratio.
	gen := datagen.NewTPCH(42, 960_000, 0)
	// Each configuration is measured like `go test -bench` measures it: one
	// discarded warmup run, then the mean of `reps` consecutive runs, so GC
	// pacing settles per configuration.
	const reps = 3
	hotStages := []string{"RF+sel(int),network", "Full join"}

	stagesFor := func(batchSize int) map[string]Figure5Runner {
		out := map[string]Figure5Runner{}
		for _, stage := range experiments.Figure5StagesBatch(gen, 4, 1, batchSize) {
			out[stage.Name] = stage.Run
		}
		return out
	}
	oneRowStages := stagesFor(1)
	batchedStages := stagesFor(dataflow.DefaultBatchSize)
	measure := func(run Figure5Runner, name string) time.Duration {
		// Collect before timing (as testing.B does between benchmarks) so one
		// configuration doesn't inherit the GC debt of the runs before it.
		runtime.GC()
		d, err := run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "  %s ERROR: %v\n", name, err)
			os.Exit(1)
		}
		return d
	}
	mean := func(run Figure5Runner, name string) time.Duration {
		measure(run, name) // warmup, discarded
		var total time.Duration
		for rep := 0; rep < reps; rep++ {
			total += measure(run, name)
		}
		return total / reps
	}

	report := benchReport{
		PR:        1,
		Benchmark: fmt.Sprintf("batched tuple transport (Figure 5 hot stages at 1/250-scale TPC-H, mean of %d after warmup)", reps),
		BatchSize: dataflow.DefaultBatchSize,
	}
	fmt.Printf("  %-22s %12s %12s %9s\n", "stage", "batch=1", "batched", "speedup")
	for _, name := range hotStages {
		l := mean(oneRowStages[name], name)
		b := mean(batchedStages[name], name)
		sp := float64(l) / float64(b)
		fmt.Printf("  %-22s %12v %12v %8.2fx\n", name, l.Round(time.Millisecond), b.Round(time.Millisecond), sp)
		report.Stages = append(report.Stages, stageResult{
			Name: name, Batch1NS: l.Nanoseconds(), BatchedNS: b.Nanoseconds(),
			SpeedupX: sp, Iterations: reps,
		})
	}

	report.Decode = measureDecode(dataflow.DefaultBatchSize)
	fmt.Printf("  decode (%d-tuple frame): %.1f -> %.2f allocs/tuple (%.1fx fewer), %.0f -> %.0f ns/tuple\n",
		report.Decode.TuplesPerFrame, report.Decode.SingleAllocsPerTup, report.Decode.BatchAllocsPerTup,
		report.Decode.AllocReductionX, report.Decode.SingleNSPerTuple, report.Decode.BatchNSPerTuple)

	if *jsonOut {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "marshal: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(benchFile, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "write %s: %v\n", benchFile, err)
			os.Exit(1)
		}
		fmt.Printf("  wrote %s\n", benchFile)
	}
}

// measureDecode uses testing.Benchmark to count decode allocations for one
// frame of n typical TPC-H-ish tuples, per-tuple vs arena batch decoding.
func measureDecode(n int) decodeResult {
	batch := make([]types.Tuple, n)
	for i := range batch {
		batch[i] = types.Tuple{
			types.Int(int64(i * 1001)),
			types.Str("1996-01-02"),
			types.Float(float64(i) + 0.25),
			types.Str("BUILDING"),
		}
	}
	frame := wire.EncodeBatch(nil, batch)
	encs := make([][]byte, n)
	for i, t := range batch {
		encs[i] = wire.Encode(nil, t)
	}

	single := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, e := range encs {
				if _, _, err := wire.Decode(e); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	var dec wire.BatchDecoder
	arena := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := dec.Decode(frame); err != nil {
				b.Fatal(err)
			}
		}
	})

	perTuple := float64(n)
	res := decodeResult{
		TuplesPerFrame:     n,
		SingleNSPerTuple:   float64(single.NsPerOp()) / perTuple,
		BatchNSPerTuple:    float64(arena.NsPerOp()) / perTuple,
		SingleAllocsPerTup: float64(single.AllocsPerOp()) / perTuple,
		BatchAllocsPerTup:  float64(arena.AllocsPerOp()) / perTuple,
	}
	if res.BatchAllocsPerTup > 0 {
		res.AllocReductionX = res.SingleAllocsPerTup / res.BatchAllocsPerTup
	}
	if res.BatchNSPerTuple > 0 {
		res.DecodeThroughputImp = res.SingleNSPerTuple / res.BatchNSPerTuple
	}
	return res
}
