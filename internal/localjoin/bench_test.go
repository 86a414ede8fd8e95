package localjoin

import (
	"math/rand"
	"runtime"
	"testing"

	"squall/internal/expr"
	"squall/internal/types"
	"squall/internal/wire"
)

// BenchmarkOnRows measures the frame path under both index policies on the
// 3-way chain R.b = S.a, S.b = T.a: 64-row frames of one relation at a
// time, round-robin over the relations, joined against state prefilled
// with benchStored rows per relation. Every benchRound frames the operator
// is rebuilt and prefilled untimed, so state and fan-out stay near their
// prefilled size. An arrival meets stored²/(dom01·dom12) deltas on
// average: about 1 and 8 on the two equi chains; the selective chain
// (R–S keys from 40 values, S–T keys from 400,000) keeps an R–S view of
// stored²/40 combos that mostly fail to extend to T. ns/arrival,
// allocs/arrival and deltas/arrival are per arriving row.
func BenchmarkOnRows(b *testing.B) {
	const stored = 8192
	for _, c := range []struct {
		name         string
		dom01, dom12 int
	}{
		{"chain-fanout1", stored, stored},
		{"chain-fanout8", stored * 100 / 283, stored * 100 / 283},
		{"selective", 40, 400_000},
	} {
		for _, p := range []struct {
			name string
			mk   func(*expr.JoinGraph) *Traditional
		}{{"traditional", NewTraditional}, {"views", NewViews}} {
			b.Run(c.name+"/"+p.name, func(b *testing.B) { benchOnRows(b, p.mk, stored, c.dom01, c.dom12) })
		}
	}
}

const (
	benchFrameRows = 64
	benchRound     = 32 // frames per prefilled operator
)

func benchOnRows(b *testing.B, mk func(*expr.JoinGraph) *Traditional, stored, dom01, dom12 int) {
	g := chainGraph()
	rng := rand.New(rand.NewSource(1))
	pad := types.Str("payload-0123456789")
	row := func(rel int) []byte {
		var tu types.Tuple
		switch rel {
		case 0:
			tu = types.Tuple{types.Int(rng.Int63()), types.Int(int64(rng.Intn(dom01))), pad}
		case 1:
			tu = types.Tuple{types.Int(int64(rng.Intn(dom01))), types.Int(int64(rng.Intn(dom12))), pad}
		default:
			tu = types.Tuple{types.Int(int64(rng.Intn(dom12))), types.Int(rng.Int63()), pad}
		}
		return wire.Encode(nil, tu)
	}
	prefill := make([][]byte, 3*stored)
	for i := range prefill {
		prefill[i] = row(i % 3)
	}
	frames := make([][][]byte, benchRound)
	for f := range frames {
		for range benchFrameRows {
			frames[f] = append(frames[f], row(f%3))
		}
	}
	deltas := 0
	emit := func([]byte) error { deltas++; return nil }
	var cur wire.Cursor
	var ms runtime.MemStats
	mallocs := uint64(0)
	b.ResetTimer()
	for done := 0; done < b.N; {
		b.StopTimer()
		j := mk(g)
		for i, r := range prefill {
			if err := cur.Reset(r); err != nil {
				b.Fatal(err)
			}
			if err := j.ImportRow(i%3, r, &cur); err != nil {
				b.Fatal(err)
			}
		}
		runtime.ReadMemStats(&ms)
		m0 := ms.Mallocs
		b.StartTimer()
		for f := 0; f < benchRound && done < b.N; f, done = f+1, done+1 {
			if err := j.OnRows(f%3, frames[f], emit); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		runtime.ReadMemStats(&ms)
		mallocs += ms.Mallocs - m0
	}
	arrivals := float64(b.N * benchFrameRows)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/arrivals, "ns/arrival")
	b.ReportMetric(float64(mallocs)/arrivals, "allocs/arrival")
	b.ReportMetric(float64(deltas)/arrivals, "deltas/arrival")
}
