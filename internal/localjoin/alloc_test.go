package localjoin

import (
	"testing"

	"squall/internal/expr"
	"squall/internal/slab"
	"squall/internal/types"
	"squall/internal/wire"
)

// TestOnRowNoAllocSteadyState pins the packed arrival path — probe plan
// walk, hash probe, verify, splice, emit, slab insert, index insert — at
// zero heap objects per arrival once the operator's scratch and the arenas'
// growth have amortized, on the 2-way equi graph every view-less DBToaster
// plan lands on and on a 3-way chain (two plan levels, a middle relation
// that is probed from both sides).
func TestOnRowNoAllocSteadyState(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *expr.JoinGraph
	}{
		{"2way-equi", expr.MustJoinGraph(2, expr.EquiCol(0, 0, 1, 0))},
		{"3way-chain", chainGraph()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			j := NewTraditional(tc.g)
			const keys = 64
			// One encoded row per (relation, key), built up front: the
			// measured loop only feeds bytes.
			rows := make([][][]byte, tc.g.NumRels)
			for rel := range rows {
				for k := 0; k < keys; k++ {
					tu := types.Tuple{types.Int(int64(k)), types.Int(int64(k)), types.Str("payload")}
					rows[rel] = append(rows[rel], wire.Encode(nil, tu))
				}
			}
			var cur wire.Cursor
			deltas := 0
			emit := func([]byte) error { deltas++; return nil }
			i := 0
			arrive := func() {
				rel, k := i%tc.g.NumRels, (i/tc.g.NumRels)%keys
				i++
				row := rows[rel][k]
				if err := cur.Reset(row); err != nil {
					t.Fatal(err)
				}
				if err := j.OnRow(rel, row, &cur, emit); err != nil {
					t.Fatal(err)
				}
			}
			for w := 0; w < 4*keys*tc.g.NumRels; w++ { // warm: every key matches from here on
				arrive()
			}
			before := deltas
			allocs := testing.AllocsPerRun(2000, arrive)
			if deltas == before {
				t.Fatal("measured arrivals produced no deltas: the probe path did not run")
			}
			if raceEnabled {
				t.Skip("allocation counts are not meaningful under the race detector")
			}
			if allocs != 0 {
				t.Fatalf("OnRow allocates %v objects per arrival in steady state, want 0", allocs)
			}
		})
	}
}

// countingStore is a slab.SegmentStore that counts fault-ins, in all and
// per key once byKey is set.
type countingStore struct {
	blobs map[string][]byte
	gets  int
	byKey map[string]int
}

func (s *countingStore) PutSegment(key string, blob []byte) error {
	s.blobs[key] = append([]byte(nil), blob...)
	return nil
}

func (s *countingStore) GetSegment(key string, _ []byte) ([]byte, bool, error) {
	s.gets++
	if s.byKey != nil {
		s.byKey[key]++
	}
	b, ok := s.blobs[key]
	return b, ok, nil
}

func (s *countingStore) DeleteSegment(key string) error {
	delete(s.blobs, key)
	return nil
}

// TestOnRowTouchesEachSpilledCandidateOnce: with every sealed segment
// spilled and a one-segment fault-in cache, an arrival whose m matches sit
// in m different spilled segments may fault at most once per candidate —
// key verification, filters and the splice must all read the one view the
// fault-in produced. A second RowBytes per match doubles the faults here,
// because consecutive candidates evict each other.
func TestOnRowTouchesEachSpilledCandidateOnce(t *testing.T) {
	const segRows, segs = 64, 6
	for _, tc := range []struct {
		name string
		g    *expr.JoinGraph
	}{
		{"equi", expr.MustJoinGraph(2, expr.EquiCol(0, 0, 1, 0))},
		{"equi+filter", expr.MustJoinGraph(2, expr.EquiCol(0, 0, 1, 0), expr.ThetaCol(0, 1, expr.Le, 1, 1))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			store := &countingStore{blobs: map[string][]byte{}}
			j := NewTraditionalTiered(tc.g, slab.TierConfig{SegmentRows: segRows, Store: store, CacheSegments: 1, KeyPrefix: "t"})
			// Relation 0: key 7 once per segment, distinct keys elsewhere, so
			// the probe's candidates are spread one per spilled segment.
			var cur wire.Cursor
			emit := func([]byte) error { return nil }
			feed := func(rel int, tu types.Tuple, emit func([]byte) error) {
				t.Helper()
				row := wire.Encode(nil, tu)
				if err := cur.Reset(row); err != nil {
					t.Fatal(err)
				}
				if err := j.OnRow(rel, row, &cur, emit); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < segRows*segs; i++ {
				key := int64(1000 + i)
				if i%segRows == 3 {
					key = 7
				}
				feed(0, types.Tuple{types.Int(key), types.Int(int64(i % 5)), types.Int(int64(i))}, emit)
			}
			if j.SpilledBytes() == 0 {
				t.Fatal("setup: nothing spilled")
			}
			store.gets = 0
			matches := 0
			feed(1, types.Tuple{types.Int(7), types.Int(9), types.Int(-1)}, func([]byte) error { matches++; return nil })
			if matches != segs {
				t.Fatalf("arrival matched %d stored rows, want %d", matches, segs)
			}
			if store.gets > segs {
				t.Fatalf("%d fault-ins for %d candidate refs: more than one touch per stored row", store.gets, segs)
			}
		})
	}
}

// TestImportRowNoAllocSteadyState pins the import face migration, restore
// and replay share: on a lowered graph a row blits into the arena and keys
// its indexes off the cursor, so once arena and index growth have
// amortized an imported row costs zero heap objects.
func TestImportRowNoAllocSteadyState(t *testing.T) {
	g := chainGraph()
	j := NewTraditional(g)
	if !j.PackedCapable() {
		t.Fatal("chain graph does not lower")
	}
	const keys = 64
	rows := make([][][]byte, g.NumRels)
	for rel := range rows {
		for k := 0; k < keys; k++ {
			tu := types.Tuple{types.Int(int64(k)), types.Int(int64(k)), types.Str("payload")}
			rows[rel] = append(rows[rel], wire.Encode(nil, tu))
		}
	}
	var cur wire.Cursor
	i := 0
	imp := func() {
		rel, k := i%g.NumRels, (i/g.NumRels)%keys
		i++
		row := rows[rel][k]
		if err := cur.Reset(row); err != nil {
			t.Fatal(err)
		}
		if err := j.ImportRow(rel, row, &cur); err != nil {
			t.Fatal(err)
		}
	}
	for w := 0; w < 4*keys*g.NumRels; w++ {
		imp()
	}
	allocs := testing.AllocsPerRun(2000, imp)
	if j.StoredTuples() != i {
		t.Fatalf("stored %d rows after %d imports", j.StoredTuples(), i)
	}
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	if allocs != 0 {
		t.Fatalf("ImportRow allocates %v objects per row in steady state, want 0", allocs)
	}
}
