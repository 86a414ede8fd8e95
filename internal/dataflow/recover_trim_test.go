// Replay-buffer trim boundary audits (PR 7 satellite). The trim cursor is
// inclusive: a committed checkpoint with cursor C covers the envelope with
// seq == C, so the buffers may drop it and a replay must skip it — while
// seq == C+1 must survive both. These tests pin the boundary on the buffer
// layer (record / commitTrims / snapshotBuf) directly, plus the monotonicity
// guard and the record-vs-commit race the producer and victim goroutines run
// under live checkpointing.

package dataflow

import (
	"sync"
	"testing"

	"squall/internal/recovery"
	"squall/internal/types"
	"squall/internal/wire"
)

// newTrimFixture builds a bound recState for an R(par=2) -> join(par=2)
// topology without running it: just the buffer bookkeeping under test.
func newTrimFixture(t *testing.T) *recState {
	t.Helper()
	topo, err := NewBuilder().
		Spout("R", 2, sliceRows(nil)).
		Bolt("join", 2, func(int, int) Bolt { return &crossJoin{} }).
		Input("join", "R", Shuffle()).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	ex := &execution{topo: topo, opts: Options{}}
	pol := &RecoveryPolicy{
		Component: "join",
		RelOf:     map[string]int{"R": 0},
		NumRels:   1,
		Store:     recovery.NewMemStore(),
	}
	if err := ex.initRecovery(pol); err != nil {
		t.Fatal(err)
	}
	return ex.rec
}

func trimEnt(seq int64) replayEnt {
	return replayEnt{seq: seq, count: 1, frame: wire.EncodeBatch(nil, []types.Tuple{{types.Int(seq)}})}
}

func bufSeqs(a *recState, pid, target int) []int64 {
	var seqs []int64
	for _, ent := range a.snapshotBuf(pid, target) {
		seqs = append(seqs, ent.seq)
	}
	return seqs
}

// TestTrimBoundaryExactSeq: after committing cursor C, the next record must
// prune the entry with seq == C and keep seq == C+1.
func TestTrimBoundaryExactSeq(t *testing.T) {
	a := newTrimFixture(t)
	for seq := int64(1); seq <= 5; seq++ {
		a.record(0, 0, trimEnt(seq))
	}
	a.commitTrims(0, map[string][]int64{"R": {3, 0}})
	// Trims are lazy: pruning happens on the next record, so the boundary
	// entry may linger until then — but a replay snapshot taken now must
	// still hold everything past the cursor.
	a.record(0, 0, trimEnt(6))
	got := bufSeqs(a, 0, 0)
	want := []int64{4, 5, 6}
	if len(got) != len(want) {
		t.Fatalf("buffer seqs = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("buffer seqs = %v, want %v (seq == trim must drop, trim+1 must survive)", got, want)
		}
	}
	// The untouched (producer task, victim) pairs are unaffected.
	a.record(1, 0, trimEnt(1))
	if got := bufSeqs(a, 1, 0); len(got) != 1 || got[0] != 1 {
		t.Fatalf("pid 1 buffer = %v, want [1]", got)
	}
}

// TestTrimNeverRetreats: a later commit with an older cursor (a stale
// in-flight checkpoint racing a newer one) must not resurrect dropped
// entries or move the cursor backwards.
func TestTrimNeverRetreats(t *testing.T) {
	a := newTrimFixture(t)
	for seq := int64(1); seq <= 8; seq++ {
		a.record(0, 1, trimEnt(seq))
	}
	a.commitTrims(1, map[string][]int64{"R": {5, 0}})
	a.commitTrims(1, map[string][]int64{"R": {3, 0}}) // stale commit
	a.record(0, 1, trimEnt(9))
	got := bufSeqs(a, 0, 1)
	if len(got) == 0 || got[0] != 6 {
		t.Fatalf("buffer after stale commit starts at %v, want 6 (trim must stay at 5)", got)
	}
}

// TestTrimCommitRaceWithRecord runs producers recording against a victim
// committing trims and a recovery manager snapshotting, all concurrently:
// whatever interleaving happens, a snapshot taken after the dust settles
// must hold exactly the recorded seqs past the final cursor, each once.
// Run under -race this also proves the locking discipline.
func TestTrimCommitRaceWithRecord(t *testing.T) {
	a := newTrimFixture(t)
	const total = 2000
	const finalCur = 1500
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for seq := int64(1); seq <= total; seq++ {
			a.record(0, 0, trimEnt(seq))
		}
	}()
	go func() {
		defer wg.Done()
		for cur := int64(100); cur <= finalCur; cur += 100 {
			a.commitTrims(0, map[string][]int64{"R": {cur, 0}})
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			for _, ent := range a.snapshotBuf(0, 0) {
				if ent.seq <= 0 || ent.seq > total {
					t.Errorf("snapshot saw impossible seq %d", ent.seq)
					return
				}
			}
		}
	}()
	wg.Wait()
	// One more record applies the final trim, then verify the suffix is
	// intact: every seq in (finalCur, total] exactly once, nothing at or
	// below the cursor ever replayed after a commit covering it.
	a.record(0, 0, trimEnt(total+1))
	seen := make(map[int64]int)
	for _, ent := range a.snapshotBuf(0, 0) {
		if ent.seq <= finalCur {
			t.Fatalf("entry %d at or below final trim %d survived", ent.seq, finalCur)
		}
		seen[ent.seq]++
	}
	for seq := int64(finalCur + 1); seq <= total+1; seq++ {
		if seen[seq] != 1 {
			t.Fatalf("seq %d appears %d times in the retained suffix, want exactly once", seq, seen[seq])
		}
	}
}
