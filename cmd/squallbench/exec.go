package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"squall"
	"squall/internal/dataflow"
	"squall/internal/expr"
	"squall/internal/localjoin"
	"squall/internal/ops"
	"squall/internal/types"
	"squall/internal/wire"
)

// benchFileExec is where `-json exec` records the PR 5 numbers.
const benchFileExec = "BENCH_PR5.json"

// stateTuple synthesizes a TPC-H-ish row: int key, date string, float, tag.
func stateTuple(key int64, i int) types.Tuple {
	return types.Tuple{
		types.Int(key),
		types.Str(fmt.Sprintf("1996-%02d-%02d", 1+i%12, 1+i%28)),
		types.Float(float64(i%100000) + 0.25),
		types.Str("BUILDING"),
	}
}

// stateJoinGraph is the 2-way equi join R.key = S.key.
func stateJoinGraph() *expr.JoinGraph {
	return expr.MustJoinGraph(2, expr.EquiCol(0, 0, 1, 0))
}

// execModeResult measures one execution path on the source -> join hot
// path: transport framing, a lowered selection, routing hash and the
// joiner's probe+insert, per tuple.
type execModeResult struct {
	Name           string  `json:"name"`
	NSPerTuple     float64 `json:"ns_per_tuple"`
	AllocsPerTuple float64 `json:"allocs_per_tuple"`
}

type execReport struct {
	PR              int               `json:"pr"`
	Benchmark       string            `json:"benchmark"`
	Legacy          execModeResult    `json:"legacy"`
	Packed          execModeResult    `json:"packed"`
	SpeedupX        float64           `json:"hot_path_speedup_x"`
	AllocReductionX float64           `json:"allocs_per_tuple_reduction_x"`
	FullJoin        fullJoinExecBench `json:"full_join"`
}

type fullJoinExecBench struct {
	RTuples  int     `json:"r_tuples"`
	STuples  int     `json:"s_tuples"`
	LegacyMS float64 `json:"legacy_ms"`
	PackedMS float64 `json:"packed_ms"`
	SpeedupX float64 `json:"throughput_speedup_x"`
	Rows     int64   `json:"result_rows"`
}

// execSelPred is the co-located selection both paths run per tuple (always
// true for the synthesized payloads, so the join load is identical).
func execSelPred() expr.Pred {
	return expr.Cmp{Op: expr.Lt, L: expr.C(2), R: expr.F(1e9)}
}

// measureExecHotPath benchmarks the source -> select -> route -> join
// insert/probe chain per tuple in one mode. The joiner is preloaded with
// `stored` R rows; the measured loop streams S arrivals through transport
// batches of 64, mirroring one engine edge at steady state.
func measureExecHotPath(packed bool, stored int) execModeResult {
	g := stateJoinGraph()
	const batch = 64
	rows := make([]types.Tuple, batch)
	pred := execSelPred()

	name := "legacy"
	if packed {
		name = "packed"
	}
	res := testing.Benchmark(func(b *testing.B) {
		j := localjoin.NewTraditional(g)
		for i := 0; i < stored; i++ {
			if err := j.Insert(0, stateTuple(int64(i), i)); err != nil {
				b.Fatal(err)
			}
		}
		for i := range rows {
			rows[i] = stateTuple(int64(i*2654435761%stored), i)
		}
		ppred, ok := expr.CompilePred(pred)
		if !ok {
			b.Fatal("selection did not lower")
		}
		var frame []byte
		var dec wire.BatchDecoder
		var cur wire.Cursor
		emit := func([]byte) error { return nil }
		b.ReportAllocs()
		b.ResetTimer()
		for n := 0; n < b.N; n += batch {
			// Producer: one wire frame per batch (both paths pay this).
			frame = wire.EncodeBatch(frame[:0], rows)
			if packed {
				// Consumer: cursor walk, lowered selection, packed routing
				// hash, blitted insert + packed probe.
				_, _, err := wire.EachRow(frame, &cur, func(row []byte) error {
					keep, err := ppred(&cur)
					if err != nil || !keep {
						return err
					}
					_ = cur.Hash(0) // hash-route on the join key
					return j.OnRow(1, row, &cur, emit)
				})
				if err != nil {
					b.Fatal(err)
				}
			} else {
				// Consumer: batch decode, boxed Eval, boxed routing hash,
				// decode-verify probe + re-encoding insert.
				out, _, err := dec.Decode(frame)
				if err != nil {
					b.Fatal(err)
				}
				for _, t := range out {
					keep, err := pred.Eval(t)
					if err != nil || !keep {
						b.Fatal(err)
					}
					_ = t.Hash(0)
					if _, err := j.OnTuple(1, t); err != nil {
						b.Fatal(err)
					}
				}
			}
		}
	})
	return execModeResult{
		Name:           name,
		NSPerTuple:     float64(res.NsPerOp()),
		AllocsPerTuple: float64(res.AllocsPerOp()),
	}
}

// fullJoinExec runs the end-to-end 2-way full join through the engine with
// packed execution on and off and compares elapsed time and row counts.
func fullJoinExec(rn, sn int) fullJoinExecBench {
	g := stateJoinGraph()
	rRows := make([]types.Tuple, rn)
	for i := range rRows {
		rRows[i] = stateTuple(int64(i%(rn/4+1)), i)
	}
	sRows := make([]types.Tuple, sn)
	for i := range sRows {
		sRows[i] = stateTuple(int64(i%(rn/4+1)), i)
	}
	run := func(mode squall.PackedMode) (time.Duration, int64) {
		q := &squall.JoinQuery{
			Graph:    g,
			Scheme:   squall.HybridHypercube,
			Machines: 8,
			Local:    squall.Traditional,
			Sources: []squall.Source{
				{Name: "R", Spout: dataflow.SliceSpout(rRows), Size: int64(rn),
					Pre: ops.Pipeline{ops.Select{P: execSelPred()}}},
				{Name: "S", Spout: dataflow.SliceSpout(sRows), Size: int64(sn),
					Pre: ops.Pipeline{ops.Select{P: execSelPred()}}},
			},
		}
		runtime.GC()
		res, err := q.Run(squall.Options{Seed: 7, CollectLimit: 1, PackedExec: mode})
		if err != nil {
			fmt.Fprintf(os.Stderr, "exec: full join (%v): %v\n", mode, err)
			os.Exit(1)
		}
		return res.Metrics.Elapsed, res.RowCount
	}
	const reps = 3
	mean := func(mode squall.PackedMode) (time.Duration, int64) {
		run(mode) // warmup, discarded
		var total time.Duration
		var rows int64
		for i := 0; i < reps; i++ {
			d, r := run(mode)
			total += d
			rows = r
		}
		return total / reps, rows
	}
	legacyD, legacyRows := mean(squall.PackedOff)
	packedD, packedRows := mean(squall.PackedOn)
	if legacyRows != packedRows {
		fmt.Fprintf(os.Stderr, "exec: FAIL: full join rows diverge: legacy %d, packed %d\n", legacyRows, packedRows)
		os.Exit(1)
	}
	return fullJoinExecBench{
		RTuples: rn, STuples: sn,
		LegacyMS: float64(legacyD.Microseconds()) / 1000,
		PackedMS: float64(packedD.Microseconds()) / 1000,
		SpeedupX: float64(legacyD) / float64(packedD),
		Rows:     packedRows,
	}
}

// execBench is the PR 5 experiment: the packed-row execution path against
// the boxed tuple pipeline — per-tuple cost and allocations on the
// source -> join hot path, plus end-to-end full-join throughput at the
// 1M-tuple point. It exits non-zero when packed execution stops paying for
// itself (the CI gate): allocs/tuple must drop >= 2x at any scale, and
// end-to-end throughput must improve >= 1.3x at the full scale point (the
// smoke scale, dominated by topology startup, only asserts no regression).
func execBench() {
	stored := 200_000
	fullR, fullS := 750_000, 250_000
	speedupGate := 1.3
	if *smoke {
		stored = 20_000
		fullR, fullS = 24_000, 6_000
		speedupGate = 0.95
	}
	header(fmt.Sprintf("Packed-row execution vs boxed tuple pipeline (%d stored, %d:%d full join)", stored, fullR, fullS))

	legacy := measureExecHotPath(false, stored)
	packed := measureExecHotPath(true, stored)

	fmt.Printf("  %-8s %14s %16s\n", "exec", "hot-path ns/t", "allocs/t")
	for _, r := range []execModeResult{legacy, packed} {
		fmt.Printf("  %-8s %14.0f %16.2f\n", r.Name, r.NSPerTuple, r.AllocsPerTuple)
	}

	report := execReport{
		PR: 5,
		Benchmark: fmt.Sprintf("packed vs boxed source->join hot path (%d stored R rows, 4-col TPC-H-ish rows) and end-to-end full join (%d:%d, 8J)",
			stored, fullR, fullS),
		Legacy:   legacy,
		Packed:   packed,
		SpeedupX: legacy.NSPerTuple / packed.NSPerTuple,
	}
	if packed.AllocsPerTuple > 0 {
		report.AllocReductionX = legacy.AllocsPerTuple / packed.AllocsPerTuple
	} else {
		report.AllocReductionX = legacy.AllocsPerTuple / 0.01 // alloc-free packed path
	}
	report.FullJoin = fullJoinExec(fullR, fullS)

	fmt.Printf("  hot path: %.2fx faster, %.1fx fewer allocs/tuple\n", report.SpeedupX, report.AllocReductionX)
	fmt.Printf("  end-to-end full join (%d:%d, 8J): legacy %.1fms, packed %.1fms (%.2fx), %d rows\n",
		fullR, fullS, report.FullJoin.LegacyMS, report.FullJoin.PackedMS, report.FullJoin.SpeedupX, report.FullJoin.Rows)

	ok := true
	if report.AllocReductionX < 2 {
		fmt.Fprintf(os.Stderr, "  FAIL: allocs/tuple reduction %.2fx < 2x\n", report.AllocReductionX)
		ok = false
	}
	if report.FullJoin.SpeedupX < speedupGate {
		fmt.Fprintf(os.Stderr, "  FAIL: full-join throughput %.2fx < %.2fx gate\n", report.FullJoin.SpeedupX, speedupGate)
		ok = false
	}
	if !ok {
		os.Exit(1)
	}

	if *jsonOut {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "marshal: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(benchFileExec, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "write %s: %v\n", benchFileExec, err)
			os.Exit(1)
		}
		fmt.Printf("  wrote %s\n", benchFileExec)
	}
}
