package dataflow

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"squall/internal/core"
	"squall/internal/recovery"
	"squall/internal/slab"
	"squall/internal/types"
	"squall/internal/wire"
)

// crossJoin is a minimal 2-relation online cross join used to exercise the
// recovery plane without the ops/localjoin stack: every arrival pairs with
// the other relation's stored tuples (R row first) and is then stored. It
// implements Repartitioner so its state can be checkpointed, peer-fetched
// and silently re-imported.
type crossJoin struct {
	rels [2][]types.Tuple
}

var _ Repartitioner = (*crossJoin)(nil)

func relOfStream(stream string) int {
	if stream == "R" {
		return 0
	}
	return 1
}

func (j *crossJoin) ExecuteRow(in RowInput, out *Collector) error {
	return j.execute(relOfStream(in.Stream), in.Cur.Tuple(nil), out)
}

// execute pairs arrival t of relation rel with the other relation's stored
// tuples, then stores it.
func (j *crossJoin) execute(rel int, t types.Tuple, out *Collector) error {
	for _, other := range j.rels[1-rel] {
		if err := emit(out, pairOf(rel, t, other)); err != nil {
			return err
		}
	}
	j.rels[rel] = append(j.rels[rel], t)
	return nil
}

// pairOf concatenates an arrival of relation rel with a stored tuple of the
// other relation, R row first.
func pairOf(rel int, t, other types.Tuple) types.Tuple {
	pair := make(types.Tuple, 0, len(t)+len(other))
	if rel == 0 {
		return append(append(pair, t...), other...)
	}
	return append(append(pair, other...), t...)
}

func (j *crossJoin) Finish(*Collector) error { return nil }

func (j *crossJoin) StoredCount(side int) int { return len(j.rels[side]) }

func (j *crossJoin) ExportStateFrames(side, batchSize int, visit func(frame []byte, count int) bool) {
	exportTupleFrames(j.rels[side], batchSize, visit)
}

func (j *crossJoin) ResetForReshape(keep [2]bool) error {
	for side, k := range keep {
		if !k {
			j.rels[side] = nil
		}
	}
	return nil
}

func (j *crossJoin) ImportRow(side int, _ []byte, cur *wire.Cursor) error {
	j.rels[side] = append(j.rels[side], cur.Tuple(nil))
	return nil
}

// recWorkload builds R (broadcast: replicated, peer-recoverable) and S
// (hash-partitioned: checkpoint-recoverable) streams into a protected
// 3-task joiner, collected by a Gather sink.
func recWorkload(nR, nS int) ([]types.Tuple, []types.Tuple) {
	rRows := make([]types.Tuple, nR)
	for i := range rRows {
		rRows[i] = types.Tuple{types.Int(int64(i)), types.Str("r")}
	}
	sRows := make([]types.Tuple, nS)
	for i := range sRows {
		sRows[i] = types.Tuple{types.Int(int64(i)), types.Str("s")}
	}
	return rRows, sRows
}

// runRecTopology executes the R-broadcast/S-fields topology with the given
// recovery policy (nil = none) and returns the result bag and metrics.
func runRecTopology(t *testing.T, rRows, sRows []types.Tuple, par int, pol *RecoveryPolicy, boltOf func(task, ntasks int) Bolt, opts Options) (map[string]int, *RunMetrics) {
	t.Helper()
	b := NewBuilder()
	b.Spout("R", 1, sliceRows(rRows))
	b.Spout("S", 1, sliceRows(sRows))
	if boltOf == nil {
		boltOf = func(task, ntasks int) Bolt { return &crossJoin{} }
	}
	b.Bolt("join", par, boltOf)
	g := NewGather()
	b.Bolt("sink", 1, g.Factory())
	// S tuples hash to one joiner task; R tuples broadcast to every task, so
	// each task joins its S partition against the full R relation.
	b.Input("join", "R", All())
	b.Input("join", "S", Fields(0))
	b.Input("sink", "join", Global())
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	opts.Recovery = pol
	m, err := Run(topo, opts)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	bag := map[string]int{}
	for _, row := range g.Rows() {
		bag[row.Key()]++
	}
	return bag, m
}

// recPolicy builds the policy for the test topology: R is replicated on
// every task (any peer holds it), S is not (checkpoint route) — the peer
// sets of a 1 x par 1-Bucket matrix.
func recPolicy(par int, fault *FaultPlan, store recovery.CheckpointStore, disablePeer bool, every int) *RecoveryPolicy {
	shape, err := core.OneBucket(core.JoinSpec{Names: []string{"R", "S"}, Sizes: []int64{1, 1}}, par, 1, par)
	if err != nil {
		panic(err)
	}
	return &RecoveryPolicy{
		Component:       "join",
		RelOf:           map[string]int{"R": 0, "S": 1},
		NumRels:         2,
		Shape:           shape,
		Store:           store,
		CheckpointEvery: every,
		DisablePeer:     disablePeer,
		Fault:           fault,
	}
}

func diffBags(t *testing.T, want, got map[string]int) {
	t.Helper()
	for k, n := range want {
		if got[k] != n {
			t.Fatalf("row %q: want %d, got %d", k, n, got[k])
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			t.Fatalf("row %q: want 0, got %d", k, got[k])
		}
	}
}

// TestKillRecoveryBagEqual kills a joiner task mid-run and checks the result
// is bag-identical to the fault-free run: R restores from a peer, S from the
// checkpoint plus replay.
func TestKillRecoveryBagEqual(t *testing.T) {
	rRows, sRows := recWorkload(120, 300)
	const par = 3
	// Small batches and shallow inboxes keep the spouts backpressured, so
	// the kill lands genuinely mid-stream.
	opts := Options{Seed: 1, BatchSize: 4, ChannelBuf: 2}
	want, _ := runRecTopology(t, rRows, sRows, par, nil, nil, opts)

	for _, disablePeer := range []bool{false, true} {
		name := "peer+ckpt"
		if disablePeer {
			name = "ckpt-only"
		}
		t.Run(name, func(t *testing.T) {
			pol := recPolicy(par, &FaultPlan{Task: 1, AfterTuples: 60}, recovery.NewMemStore(), disablePeer, 24)
			got, m := runRecTopology(t, rRows, sRows, par, pol, nil, opts)
			if f := m.Recovery.Faults.Load(); f != 1 {
				t.Fatalf("faults = %d, want 1", f)
			}
			if k := m.Recovery.Kills.Load(); k != 1 {
				t.Fatalf("kills = %d, want 1", k)
			}
			peer, ckpt := m.Recovery.PeerRels.Load(), m.Recovery.CheckpointRels.Load()
			if disablePeer {
				if peer != 0 || ckpt != 2 {
					t.Fatalf("routes = %d peer / %d ckpt, want 0/2", peer, ckpt)
				}
			} else if peer != 1 || ckpt != 1 {
				t.Fatalf("routes = %d peer / %d ckpt, want 1/1", peer, ckpt)
			}
			if m.Recovery.RestoredTuples.Load()+m.Recovery.ReplayedTuples.Load() == 0 {
				t.Fatal("no state was restored or replayed")
			}
			if m.Recovery.Checkpoints.Load() == 0 {
				t.Fatal("no checkpoints were taken")
			}
			diffBags(t, want, got)
		})
	}
}

// TestKillRecoveryDiskStore runs the checkpoint route against the disk
// store: the recovery must read back exactly what the cadence wrote.
func TestKillRecoveryDiskStore(t *testing.T) {
	rRows, sRows := recWorkload(80, 200)
	const par = 3
	opts := Options{Seed: 3, BatchSize: 4, ChannelBuf: 2}
	want, _ := runRecTopology(t, rRows, sRows, par, nil, nil, opts)

	store, err := recovery.NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	pol := recPolicy(par, &FaultPlan{Task: 0, AfterTuples: 50}, store, true, 32)
	got, m := runRecTopology(t, rRows, sRows, par, pol, nil, opts)
	if m.Recovery.Faults.Load() != 1 {
		t.Fatalf("faults = %d, want 1", m.Recovery.Faults.Load())
	}
	if m.Recovery.CheckpointBytes.Load() == 0 {
		t.Fatal("no checkpoint bytes written")
	}
	diffBags(t, want, got)
}

// TestFaultPlanNeverFires: a trigger threshold beyond the stream length must
// resolve cleanly (no kill, no hang from the lingering peers).
func TestFaultPlanNeverFires(t *testing.T) {
	rRows, sRows := recWorkload(40, 60)
	const par = 3
	opts := Options{Seed: 5, BatchSize: 4, ChannelBuf: 2}
	want, _ := runRecTopology(t, rRows, sRows, par, nil, nil, opts)
	pol := recPolicy(par, &FaultPlan{Task: 1, AfterTuples: 1 << 30}, recovery.NewMemStore(), false, 64)
	got, m := runRecTopology(t, rRows, sRows, par, pol, nil, opts)
	if m.Recovery.Faults.Load() != 0 {
		t.Fatalf("faults = %d, want 0", m.Recovery.Faults.Load())
	}
	diffBags(t, want, got)
}

// TestKillAtStreamEnd arms the kill so late that the stream is fully
// delivered first: the lingering protocol must keep every peer alive to
// serve the restore, and the run must still terminate bag-equal.
func TestKillAtStreamEnd(t *testing.T) {
	rRows, sRows := recWorkload(30, 90)
	const par = 3
	// Deep inboxes: the spouts finish immediately, so the trigger fires in
	// the endgame with every producer already retired.
	opts := Options{Seed: 7, BatchSize: 64, ChannelBuf: 256}
	want, _ := runRecTopology(t, rRows, sRows, par, nil, nil, opts)
	pol := recPolicy(par, &FaultPlan{Task: 2, AfterTuples: 40}, recovery.NewMemStore(), false, 32)
	got, m := runRecTopology(t, rRows, sRows, par, pol, nil, opts)
	if m.Recovery.Faults.Load() != 1 {
		t.Fatalf("faults = %d, want 1", m.Recovery.Faults.Load())
	}
	diffBags(t, want, got)
}

// panicJoin wraps crossJoin with a one-shot panic at the Nth ExecuteRow of one
// task, before the envelope is touched — the captured-panic recovery path.
type panicJoin struct {
	crossJoin
	task    int
	armed   *atomic.Bool
	after   int
	applied int
}

func (j *panicJoin) ExecuteRow(in RowInput, out *Collector) error {
	j.applied++
	if j.applied == j.after && j.armed.CompareAndSwap(true, false) {
		panic(fmt.Sprintf("injected panic at tuple %d of task %d", j.applied, j.task))
	}
	return j.crossJoin.ExecuteRow(in, out)
}

// TestPanicCaptureRecovery: a panic inside ExecuteRow converts into a
// checkpoint-route recovery and the poisoned tuple is reprocessed exactly
// once.
func TestPanicCaptureRecovery(t *testing.T) {
	rRows, sRows := recWorkload(100, 240)
	const par = 3
	opts := Options{Seed: 9, BatchSize: 4, ChannelBuf: 2}
	want, _ := runRecTopology(t, rRows, sRows, par, nil, nil, opts)

	armed := &atomic.Bool{}
	armed.Store(true)
	boltOf := func(task, ntasks int) Bolt {
		if task == 1 {
			return &panicJoin{task: task, armed: armed, after: 70}
		}
		return &crossJoin{}
	}
	pol := recPolicy(par, nil, recovery.NewMemStore(), false, 48)
	got, m := runRecTopology(t, rRows, sRows, par, pol, boltOf, opts)
	if p := m.Recovery.Panics.Load(); p != 1 {
		t.Fatalf("panics recovered = %d, want 1", p)
	}
	// Panic recovery must never trust a peer snapshot (unemitted deltas).
	if m.Recovery.PeerRels.Load() != 0 {
		t.Fatalf("panic recovery took a peer route")
	}
	diffBags(t, want, got)
}

// midEmitPanicJoin is a crossJoin that panics once, at its Nth
// row or later, on a row that is not the first of its frame, after emitting
// the first of the arrival's pairs — as a packed join does when a probe
// faults a corrupt spilled segment in after some matches went out. log
// records, across the task's bolt instances, how often each row was
// executed and silently imported, and which rows of the poisoned frame had
// been delivered when it panicked.
type midEmitPanicJoin struct {
	crossJoin
	armed   *atomic.Bool
	after   int
	applied int
	log     *frameLog
	frame   []string // keys of the current frame's rows delivered so far
}

type frameLog struct {
	executed, imported map[string]int
	poisoned           []string
}

func (j *midEmitPanicJoin) ExecuteRow(in RowInput, out *Collector) error {
	tu := in.Cur.Tuple(nil)
	j.log.executed[tu.Key()]++
	j.frame = append(j.frame, tu.Key())
	j.applied++
	rel := relOfStream(in.Stream)
	if len(j.frame) > 1 && j.applied >= j.after && len(j.rels[1-rel]) > 1 && j.armed.CompareAndSwap(true, false) {
		j.log.poisoned = append([]string(nil), j.frame...)
		if err := emit(out, pairOf(rel, tu, j.rels[1-rel][0])); err != nil {
			return err
		}
		panic("injected panic after a partial emission")
	}
	if in.Last {
		j.frame = j.frame[:0]
	}
	return j.crossJoin.execute(rel, tu, out)
}

func (j *midEmitPanicJoin) ImportRow(side int, row []byte, cur *wire.Cursor) error {
	j.log.imported[cur.Tuple(nil).Key()]++
	return j.crossJoin.ImportRow(side, row, cur)
}

// TestPanicMidEmitRecovery: the frame is the exactly-once unit. A panic on a
// non-first row of a frame, after part of that row's output was emitted,
// must ship none of the frame's emissions — neither the partial one nor
// those of the rows before it in the frame — and the restore must re-run
// the whole frame once with full emission, importing none of it silently.
func TestPanicMidEmitRecovery(t *testing.T) {
	rRows, sRows := recWorkload(100, 240)
	const par = 3
	opts := Options{Seed: 9, BatchSize: 4, ChannelBuf: 2}
	want, _ := runRecTopology(t, rRows, sRows, par, nil, nil, opts)

	armed := &atomic.Bool{}
	armed.Store(true)
	log := &frameLog{executed: map[string]int{}, imported: map[string]int{}}
	boltOf := func(task, ntasks int) Bolt {
		if task == 1 {
			return &midEmitPanicJoin{armed: armed, after: 70, log: log}
		}
		return &crossJoin{}
	}
	pol := recPolicy(par, nil, recovery.NewMemStore(), false, 48)
	got, m := runRecTopology(t, rRows, sRows, par, pol, boltOf, opts)
	if p := m.Recovery.Panics.Load(); p != 1 {
		t.Fatalf("panics recovered = %d, want 1", p)
	}
	if len(log.poisoned) < 2 {
		t.Fatalf("the panic hit row %d of its frame, want a non-first row", len(log.poisoned))
	}
	t.Logf("panic on row %d of its frame", len(log.poisoned))
	for _, key := range log.poisoned {
		// Once in the poisoned delivery, once in the whole-frame re-run.
		if e, i := log.executed[key], log.imported[key]; e != 2 || i != 0 {
			t.Fatalf("poisoned-frame row %s: executed %d times, imported %d, want 2 and 0", key, e, i)
		}
	}
	// Any emission of the poisoned delivery that shipped is a duplicate here.
	diffBags(t, want, got)
}

// TestKillTriggerPanicDoubleFault: the victim's bolt panics right after its
// kill trigger fires, so the captured panic usually beats the manager's kill
// marker to the inbox. Whichever wins the race, the run must complete with
// exactly one recovered fault and a bag identical to the fault-free run —
// the kill marker must service (not clobber) an in-flight panic restore.
func TestKillTriggerPanicDoubleFault(t *testing.T) {
	rRows, sRows := recWorkload(100, 240)
	const par = 3
	// batch=1 puts the trigger check on the tuple boundary, so the panic on
	// the very next tuple almost always preempts the in-flight kill marker
	// (the merged path); if the marker slips in first, the run legitimately
	// recovers two separate faults instead.
	opts := Options{Seed: 13, BatchSize: 1, ChannelBuf: 2}
	want, _ := runRecTopology(t, rRows, sRows, par, nil, nil, opts)

	const killAfter = 60
	armed := &atomic.Bool{}
	armed.Store(true)
	boltOf := func(task, ntasks int) Bolt {
		if task == 1 {
			return &panicJoin{task: task, armed: armed, after: killAfter + 1}
		}
		return &crossJoin{}
	}
	pol := recPolicy(par, &FaultPlan{Task: 1, AfterTuples: killAfter}, recovery.NewMemStore(), false, 24)
	got, m := runRecTopology(t, rRows, sRows, par, pol, boltOf, opts)
	rm := &m.Recovery
	t.Logf("faults=%d kills=%d panics=%d peerRels=%d", rm.Faults.Load(), rm.Kills.Load(), rm.Panics.Load(), rm.PeerRels.Load())
	if p := rm.Panics.Load(); p != 1 {
		t.Fatalf("panics recovered = %d, want 1", p)
	}
	switch f := rm.Faults.Load(); f {
	case 1:
		// Merged: the kill round serviced the panic session — it must have
		// run with panic semantics (no peer snapshots) and count no kill.
		if rm.Kills.Load() != 0 || rm.PeerRels.Load() != 0 {
			t.Fatalf("merged round: kills=%d peerRels=%d, want 0/0", rm.Kills.Load(), rm.PeerRels.Load())
		}
	case 2:
		// Unmerged: the panic recovered first, the kill followed separately.
		if rm.Kills.Load() != 1 {
			t.Fatalf("unmerged rounds: kills=%d, want 1", rm.Kills.Load())
		}
	default:
		t.Fatalf("faults = %d, want 1 or 2", f)
	}
	diffBags(t, want, got)
}

// TestPanicWithoutRecoveryFails: with no recovery policy a bolt panic must
// fail the run as an error (not crash the process).
func TestPanicWithoutRecoveryFails(t *testing.T) {
	rRows, sRows := recWorkload(40, 80)
	b := NewBuilder()
	b.Spout("R", 1, sliceRows(rRows))
	b.Spout("S", 1, sliceRows(sRows))
	armed := &atomic.Bool{}
	armed.Store(true)
	b.Bolt("join", 2, func(task, ntasks int) Bolt {
		return &panicJoin{task: task, armed: armed, after: 10}
	})
	g := NewGather()
	b.Bolt("sink", 1, g.Factory())
	b.Input("join", "R", All())
	b.Input("join", "S", Fields(0))
	b.Input("sink", "join", Global())
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(topo, Options{Seed: 2, BatchSize: 4}); err == nil {
		t.Fatal("run with a panicking bolt and no recovery must fail")
	}
}

// TestReplayBufferTrim: a checkpoint commit must prune the replay buffer up
// to its cursor, which is what keeps the buffers bounded by the cadence.
func TestReplayBufferTrim(t *testing.T) {
	a := &recState{
		bufMus: make([]sync.Mutex, 1),
		bufs:   [][][]replayEnt{{nil}},
		trims:  [][]atomic.Int64{make([]atomic.Int64, 1)},
	}
	for seq := int64(1); seq <= 10; seq++ {
		a.record(0, 0, replayEnt{seq: seq, count: 1})
	}
	if got := len(a.snapshotBuf(0, 0)); got != 10 {
		t.Fatalf("retained %d entries, want 10", got)
	}
	// Simulate a checkpoint commit at seq 7: the next record call prunes.
	a.trims[0][0].Store(7)
	a.record(0, 0, replayEnt{seq: 11, count: 1})
	buf := a.snapshotBuf(0, 0)
	if len(buf) != 4 {
		t.Fatalf("retained %d entries after trim, want 4 (seqs 8..11)", len(buf))
	}
	for i, want := range []int64{8, 9, 10, 11} {
		if buf[i].seq != want {
			t.Fatalf("entry %d has seq %d, want %d", i, buf[i].seq, want)
		}
	}
}

// segmentStore is a MemStore whose every checkpoint of relation 1 also
// references one crafted sealed segment under a valid CRC.
type segmentStore struct {
	*recovery.MemStore
	ref recovery.SegmentRef
}

func (s *segmentStore) Put(component string, task int, ck *recovery.Checkpoint) error {
	ck.Segments = [][]recovery.SegmentRef{nil, {s.ref}}
	return s.MemStore.Put(component, task, ck)
}

// TestRestoreRejectsMalformedSegment: restoring from a checkpoint segment
// whose CRC is valid but whose row spans do not hold exactly one row each
// must fail the run with an error naming the segment, instead of restoring
// a row fewer (an empty span) or a row read past its span's last byte (a
// trailing byte after a valid row).
func TestRestoreRejectsMalformedSegment(t *testing.T) {
	row := func(k int64) []byte { return wire.Encode(nil, types.Tuple{types.Int(k), types.Str("s")}) }
	for _, c := range []struct {
		name string
		rows [][]byte
	}{
		{"empty-span", [][]byte{row(-1), nil, row(-2)}},
		{"trailing-byte", [][]byte{row(-1), append(row(-2), 0), row(-3)}},
	} {
		t.Run(c.name, func(t *testing.T) {
			var payload []byte
			offs := []uint32{0}
			for _, r := range c.rows {
				payload = append(payload, r...)
				offs = append(offs, uint32(len(payload)))
			}
			blob := slab.AppendSegment(nil, offs, payload)
			store := &segmentStore{MemStore: recovery.NewMemStore(), ref: recovery.SegmentRef{
				Key:  "ck-" + c.name + "-s0",
				CRC:  binary.LittleEndian.Uint32(blob[len(blob)-4:]),
				Rows: int64(len(c.rows)),
			}}
			if err := store.PutSegment(store.ref.Key, blob); err != nil {
				t.Fatal(err)
			}

			rRows, sRows := recWorkload(120, 300)
			const par = 3
			b := NewBuilder()
			b.Spout("R", 1, sliceRows(rRows))
			b.Spout("S", 1, sliceRows(sRows))
			b.Bolt("join", par, func(task, ntasks int) Bolt { return &crossJoin{} })
			b.Bolt("sink", 1, NewGather().Factory())
			b.Input("join", "R", All())
			b.Input("join", "S", Fields(0))
			b.Input("sink", "join", Global())
			topo, err := b.Build()
			if err != nil {
				t.Fatal(err)
			}
			pol := recPolicy(par, &FaultPlan{Task: 1, AfterTuples: 60}, store, true, 24)
			_, err = Run(topo, Options{Seed: 1, BatchSize: 4, ChannelBuf: 2, Recovery: pol})
			if err == nil {
				t.Fatal("restore from a malformed segment succeeded")
			}
			if !errors.Is(err, slab.ErrSegmentCorrupt) || !strings.Contains(err.Error(), store.ref.Key) {
				t.Fatalf("run error %q must wrap ErrSegmentCorrupt and name segment %s", err, store.ref.Key)
			}
		})
	}
}
