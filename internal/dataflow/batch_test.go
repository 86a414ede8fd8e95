package dataflow

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"squall/internal/types"
	"squall/internal/wire"
)

// runWithWatchdog fails the test instead of hanging forever if a transport
// regression deadlocks the run.
func runWithWatchdog(t *testing.T, topo *Topology, opts Options) (*RunMetrics, error) {
	t.Helper()
	type result struct {
		m   *RunMetrics
		err error
	}
	done := make(chan result, 1)
	go func() {
		m, err := Run(topo, opts)
		done <- result{m, err}
	}()
	select {
	case r := <-done:
		return r.m, r.err
	case <-time.After(30 * time.Second):
		t.Fatal("run deadlocked")
		return nil, nil
	}
}

// orderSink records the arrival sequence per (stream, producer task) so
// tests can assert the transport preserves per-pair FIFO order.
type orderSink struct {
	mu   sync.Mutex
	seqs map[[2]interface{}][]int64
}

func newOrderSink() *orderSink {
	return &orderSink{seqs: make(map[[2]interface{}][]int64)}
}

func (s *orderSink) factory() BoltFactory {
	return func(int, int) Bolt {
		return FuncBolt{OnRow: func(in RowInput, _ *Collector) error {
			s.mu.Lock()
			key := [2]interface{}{in.Stream, in.FromTask}
			s.seqs[key] = append(s.seqs[key], in.Cur.Tuple(nil)[0].I)
			s.mu.Unlock()
			return nil
		}}
	}
}

// TestEOSFlushesPartialBatches: with a batch size far above the row count,
// every tuple sits in a pending buffer until EOS — all of them must still
// arrive (flush precedes the EOS marker on the same FIFO inbox), and Finish
// must still observe them.
func TestEOSFlushesPartialBatches(t *testing.T) {
	rows := intRows(10)
	sink := NewGather()
	counter := func(int, int) Bolt {
		n := int64(0)
		return FuncBolt{
			OnRow:    func(RowInput, *Collector) error { n++; return nil },
			OnFinish: func(out *Collector) error { return emit(out, types.Tuple{types.Int(n)}) },
		}
	}
	topo, _ := NewBuilder().
		Spout("src", 2, sliceRows(rows)).
		Bolt("count", 2, counter).
		Bolt("sink", 1, sink.Factory()).
		Input("count", "src", Shuffle()).
		Input("sink", "count", Global()).
		Build()
	m, err := runWithWatchdog(t, topo, Options{Seed: 1, BatchSize: 1000})
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, r := range sink.Rows() {
		total += r[0].I
	}
	if total != 10 {
		t.Errorf("counted %d tuples, want 10 (partial batches lost at EOS?)", total)
	}
	// 10 tuples in flight must have used well under one envelope per tuple...
	if sent, batches := m.TotalSent(), m.TotalBatches(); batches >= sent && sent > 2 {
		t.Errorf("sent %d tuples in %d batches; expected batching", sent, batches)
	}
}

// TestBatchSizeOnePreservesLegacySemantics: batch=1 must deliver one tuple
// per envelope (legacy framing) and keep per-producer-task FIFO order.
func TestBatchSizeOnePreservesLegacySemantics(t *testing.T) {
	const n = 500
	sink := newOrderSink()
	topo, _ := NewBuilder().
		Spout("src", 3, genRows(n, func(i int) types.Tuple {
			return types.Tuple{types.Int(int64(i))}
		})).
		Bolt("sink", 1, sink.factory()).
		Input("sink", "src", Global()).
		Build()
	m, err := runWithWatchdog(t, topo, Options{Seed: 7, BatchSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sent, batches := m.TotalSent(), m.TotalBatches(); sent != batches || sent != n {
		t.Errorf("batch=1 sent %d tuples in %d envelopes; legacy is 1:1", sent, batches)
	}
	total := 0
	for key, seq := range sink.seqs {
		total += len(seq)
		for i := 1; i < len(seq); i++ {
			if seq[i] <= seq[i-1] {
				t.Fatalf("pair %v out of order at %d: %v", key, i, seq[:i+1])
			}
		}
	}
	if total != n {
		t.Errorf("delivered %d tuples, want %d", total, n)
	}
}

// TestBatchSizesProduceIdenticalOutput: the delivered multiset and the
// per-origin order must not depend on the batch size — batch=1 (legacy), a
// ragged size, the default, and an everything-in-one-flush size all agree
// tuple for tuple. Sequences are keyed by (mid task, originating src task):
// the engine guarantees FIFO per producer→consumer pair, but not how one
// relay task interleaves tuples arriving from different upstream tasks, so
// comparing whole per-mid-task sequences would be scheduler-dependent.
func TestBatchSizesProduceIdenticalOutput(t *testing.T) {
	const n = 400
	run := func(batch int) map[[2]int64][]int64 {
		// mid tags each tuple with its own task; src origin is recoverable
		// from the value (GenSpout strides: src task k generates i ≡ k mod 2).
		fanout := func(task int, _ int) Bolt {
			return FuncBolt{OnRow: func(in RowInput, out *Collector) error {
				return emit(out, types.Tuple{in.Cur.Tuple(nil)[0], types.Int(int64(task))})
			}}
		}
		var mu sync.Mutex
		seqs := make(map[[2]int64][]int64)
		sink := func(int, int) Bolt {
			return FuncBolt{OnRow: func(in RowInput, _ *Collector) error {
				mu.Lock()
				key := [2]int64{in.Cur.Tuple(nil)[1].I, in.Cur.Tuple(nil)[0].I % 2}
				seqs[key] = append(seqs[key], in.Cur.Tuple(nil)[0].I)
				mu.Unlock()
				return nil
			}}
		}
		topo, _ := NewBuilder().
			Spout("src", 2, genRows(n, func(i int) types.Tuple {
				return types.Tuple{types.Int(int64(i))}
			})).
			Bolt("mid", 3, fanout).
			Bolt("sink", 1, sink).
			Input("mid", "src", Fields(0)).
			Input("sink", "mid", Global()).
			Build()
		if _, err := runWithWatchdog(t, topo, Options{Seed: 11, BatchSize: batch}); err != nil {
			t.Fatal(err)
		}
		return seqs
	}
	ref := run(1)
	for _, batch := range []int{3, DefaultBatchSize, 10_000} {
		got := run(batch)
		if len(got) != len(ref) {
			t.Fatalf("batch=%d: %d origin pairs, want %d", batch, len(got), len(ref))
		}
		for key, want := range ref {
			seq := got[key]
			if len(seq) != len(want) {
				t.Fatalf("batch=%d pair %v: %d tuples, want %d", batch, key, len(seq), len(want))
			}
			for i := range want {
				if seq[i] != want[i] {
					t.Fatalf("batch=%d pair %v diverges at %d: got %d want %d",
						batch, key, i, seq[i], want[i])
				}
			}
		}
	}
}

// TestAbortMidBatchDoesNotDeadlock: a bolt error while producers have full
// batches in flight (tiny inboxes, so producers are parked in send) must
// abort the whole run promptly.
func TestAbortMidBatchDoesNotDeadlock(t *testing.T) {
	rows := intRows(50_000)
	boom := errors.New("boom")
	factory := func(int, int) Bolt {
		n := 0
		return FuncBolt{OnRow: func(RowInput, *Collector) error {
			n++
			if n == 100 {
				return boom
			}
			return nil
		}}
	}
	topo, _ := NewBuilder().
		Spout("src", 4, sliceRows(rows)).
		Bolt("b", 2, factory).
		Input("b", "src", Shuffle()).
		Build()
	_, err := runWithWatchdog(t, topo, Options{Seed: 3, BatchSize: 8, ChannelBuf: 1})
	if err == nil || !errors.Is(err, boom) {
		t.Errorf("expected boom, got %v", err)
	}
}

// TestMemoryOverflowFiresWithBatchesInFlight: the per-task budget check must
// still trip while upstream batches are buffered and in flight.
func TestMemoryOverflowFiresWithBatchesInFlight(t *testing.T) {
	rows := intRows(20_000)
	topo, _ := NewBuilder().
		Spout("src", 2, sliceRows(rows)).
		Bolt("state", 1, func(int, int) Bolt { return &hog{} }).
		Input("state", "src", Shuffle()).
		Build()
	m, err := runWithWatchdog(t, topo, Options{Seed: 4, BatchSize: DefaultBatchSize, ChannelBuf: 2, MemLimitPerTask: 1 << 20})
	if !errors.Is(err, ErrMemoryOverflow) {
		t.Fatalf("expected memory overflow, got %v", err)
	}
	if m == nil || m.Component("state").Tasks[0].MaxMem.Load() == 0 {
		t.Error("partial metrics must survive the abort")
	}
}

// TestBatchedTransportStillCopies: serialized hops must hand fresh copies to
// every destination even when tuples travel in shared batch frames.
func TestBatchedTransportStillCopies(t *testing.T) {
	const n = 100
	var mu sync.Mutex
	var got []types.Tuple
	factory := func(int, int) Bolt {
		return FuncBolt{OnRow: func(in RowInput, _ *Collector) error {
			mu.Lock()
			got = append(got, in.Cur.Tuple(nil))
			mu.Unlock()
			return nil
		}}
	}
	src := make([]types.Tuple, n)
	for i := range src {
		src[i] = types.Tuple{types.Int(int64(i)), types.Str("payload")}
	}
	topo, _ := NewBuilder().
		Spout("src", 1, sliceRows(src)).
		Bolt("a", 2, factory).
		Input("a", "src", All()).
		Build()
	m, err := runWithWatchdog(t, topo, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2*n {
		t.Fatalf("broadcast delivered %d, want %d", len(got), 2*n)
	}
	for _, g := range got {
		orig := src[g[0].I]
		if !g.Equal(orig) {
			t.Fatalf("tuple mangled over the wire: %v", g)
		}
		if &g[0] == &orig[0] {
			t.Fatal("destination shares memory with the producer")
		}
	}
	if m.TotalBatches() >= m.TotalSent() {
		t.Errorf("sent %d tuples in %d envelopes; expected batching", m.TotalSent(), m.TotalBatches())
	}
}

// TestEmitFIFOAcrossRowBuffers: rows a bolt emits straight out of the
// delivered frame and rows it encodes into its own scratch feed the same
// per-(edge, target) frames, so a bolt that alternates them on one edge
// still delivers its rows to every target in emission order — at one-row
// frames and at full batches alike.
func TestEmitFIFOAcrossRowBuffers(t *testing.T) {
	const n = 1000
	for _, batch := range []int{1, 64} {
		t.Run(fmt.Sprintf("batch=%d", batch), func(t *testing.T) {
			sink := newOrderSink()
			mixer := func(int, int) Bolt {
				var enc []byte
				return FuncBolt{OnRow: func(in RowInput, out *Collector) error {
					if v, _ := in.Cur.Int(0); v%2 == 0 {
						return out.EmitRow(in.Row)
					}
					enc = wire.Encode(enc[:0], in.Cur.Tuple(nil))
					return out.EmitRow(enc)
				}}
			}
			topo, err := NewBuilder().
				Spout("src", 1, genRows(n, func(i int) types.Tuple {
					return types.Tuple{types.Int(int64(i))}
				})).
				Bolt("mix", 1, mixer).
				Bolt("sink", 1, sink.factory()).
				Input("mix", "src", Global()).
				Input("sink", "mix", Global()).
				Build()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := runWithWatchdog(t, topo, Options{Seed: 1, BatchSize: batch}); err != nil {
				t.Fatal(err)
			}
			seq := sink.seqs[[2]interface{}{"mix", 0}]
			if len(seq) != n {
				t.Fatalf("delivered %d rows, want %d", len(seq), n)
			}
			for i, v := range seq {
				if v != int64(i) {
					t.Fatalf("row %d arrived at position %d: %v", v, i, seq[max(0, i-3):i+1])
				}
			}
		})
	}
}
