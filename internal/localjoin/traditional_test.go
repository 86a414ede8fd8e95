package localjoin

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"squall/internal/expr"
	"squall/internal/slab"
	"squall/internal/types"
	"squall/internal/wire"
)

// bruteForce computes the full join of the given relations by nested loops.
func bruteForce(t *testing.T, g *expr.JoinGraph, rels [][]types.Tuple) []types.Tuple {
	t.Helper()
	full := uint64(1)<<g.NumRels - 1
	var out []types.Tuple
	cur := make([]types.Tuple, g.NumRels)
	var rec func(rel int)
	rec = func(rel int) {
		if rel == g.NumRels {
			ok, err := g.HoldsAll(full, cur)
			if err != nil {
				t.Fatal(err)
			}
			if ok {
				out = append(out, concat(cur))
			}
			return
		}
		for _, tu := range rels[rel] {
			cur[rel] = tu
			rec(rel + 1)
		}
	}
	rec(0)
	return out
}

// concat flattens one joined tuple per relation, in relation order, into
// the result row the operator emits.
func concat(parts []types.Tuple) types.Tuple {
	var out types.Tuple
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

func sortTuples(ts []types.Tuple) {
	sort.Slice(ts, func(i, j int) bool { return ts[i].Compare(ts[j]) < 0 })
}

func equalTupleSets(a, b []types.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	sortTuples(a)
	sortTuples(b)
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// joinRow feeds one arrival through OnRow and returns its delta rows,
// decoded.
func joinRow(t testing.TB, j *Traditional, rel int, tu types.Tuple) []types.Tuple {
	t.Helper()
	row := wire.Encode(nil, tu)
	var cur wire.Cursor
	if err := cur.Reset(row); err != nil {
		t.Fatal(err)
	}
	var out []types.Tuple
	if err := j.OnRow(rel, row, &cur, func(r []byte) error {
		d, _, err := wire.Decode(r)
		out = append(out, d)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// importTuple stores one tuple without probing, through ImportRow.
func importTuple(t testing.TB, j *Traditional, rel int, tu types.Tuple) {
	t.Helper()
	row := wire.Encode(nil, tu)
	var cur wire.Cursor
	if err := cur.Reset(row); err != nil {
		t.Fatal(err)
	}
	if err := j.ImportRow(rel, row, &cur); err != nil {
		t.Fatal(err)
	}
}

// streamJoin feeds the relations' tuples in a random interleaved order and
// collects all deltas.
func streamJoin(t *testing.T, j *Traditional, rels [][]types.Tuple, seed int64) []types.Tuple {
	t.Helper()
	type ev struct {
		rel int
		t   types.Tuple
	}
	var stream []ev
	for rel, rows := range rels {
		for _, row := range rows {
			stream = append(stream, ev{rel, row})
		}
	}
	r := rand.New(rand.NewSource(seed))
	r.Shuffle(len(stream), func(a, b int) { stream[a], stream[b] = stream[b], stream[a] })
	var out []types.Tuple
	for _, e := range stream {
		out = append(out, joinRow(t, j, e.rel, e.t)...)
	}
	return out
}

func genRel(r *rand.Rand, n, arity int, domain int64) []types.Tuple {
	rows := make([]types.Tuple, n)
	for i := range rows {
		tu := make(types.Tuple, arity)
		for c := range tu {
			tu[c] = types.Int(r.Int63n(domain))
		}
		rows[i] = tu
	}
	return rows
}

func chainGraph() *expr.JoinGraph {
	return expr.MustJoinGraph(3,
		expr.EquiCol(0, 1, 1, 0), // R.y = S.y
		expr.EquiCol(1, 1, 2, 0), // S.z = T.z
	)
}

func TestTraditionalEquiChainMatchesBruteForce(t *testing.T) {
	g := chainGraph()
	for seed := int64(0); seed < 5; seed++ {
		r := rand.New(rand.NewSource(seed))
		rels := [][]types.Tuple{genRel(r, 30, 2, 6), genRel(r, 30, 2, 6), genRel(r, 30, 2, 6)}
		want := bruteForce(t, g, rels)
		got := streamJoin(t, NewTraditional(g), rels, seed)
		if !equalTupleSets(got, want) {
			t.Fatalf("seed %d: online join produced %d rows, brute force %d", seed, len(got), len(want))
		}
	}
}

func TestTraditionalThetaJoin(t *testing.T) {
	// R.A = S.A AND 2*R.B < S.C — the §3.3 example.
	g := expr.MustJoinGraph(2,
		expr.EquiCol(0, 0, 1, 0),
		expr.JoinConjunct{LRel: 0, RRel: 1, Op: expr.Lt,
			Left:  expr.Arith{Op: expr.Mul, L: expr.I(2), R: expr.C(1)},
			Right: expr.C(1)},
	)
	r := rand.New(rand.NewSource(9))
	rels := [][]types.Tuple{genRel(r, 50, 2, 10), genRel(r, 50, 2, 20)}
	want := bruteForce(t, g, rels)
	got := streamJoin(t, NewTraditional(g), rels, 9)
	if len(want) == 0 {
		t.Fatal("workload produced no matches")
	}
	if !equalTupleSets(got, want) {
		t.Fatalf("theta join: %d vs brute force %d", len(got), len(want))
	}
}

func TestTraditionalInequalityOnlyJoin(t *testing.T) {
	g := expr.MustJoinGraph(2, expr.ThetaCol(0, 0, expr.Ge, 1, 0))
	r := rand.New(rand.NewSource(17))
	rels := [][]types.Tuple{genRel(r, 40, 1, 15), genRel(r, 40, 1, 15)}
	want := bruteForce(t, g, rels)
	got := streamJoin(t, NewTraditional(g), rels, 17)
	if !equalTupleSets(got, want) {
		t.Fatalf("inequality join: %d vs %d", len(got), len(want))
	}
}

func TestTraditionalNeJoinFallsBackToScan(t *testing.T) {
	g := expr.MustJoinGraph(2, expr.ThetaCol(0, 0, expr.Ne, 1, 0))
	r := rand.New(rand.NewSource(23))
	rels := [][]types.Tuple{genRel(r, 20, 1, 4), genRel(r, 20, 1, 4)}
	want := bruteForce(t, g, rels)
	got := streamJoin(t, NewTraditional(g), rels, 23)
	if !equalTupleSets(got, want) {
		t.Fatalf("<> join: %d vs %d", len(got), len(want))
	}
}

func TestTraditionalCrossJoinComponent(t *testing.T) {
	// R joins S; T is a cross product (disconnected).
	g := expr.MustJoinGraph(3, expr.EquiCol(0, 0, 1, 0))
	r := rand.New(rand.NewSource(31))
	rels := [][]types.Tuple{genRel(r, 10, 1, 4), genRel(r, 10, 1, 4), genRel(r, 5, 1, 4)}
	want := bruteForce(t, g, rels)
	got := streamJoin(t, NewTraditional(g), rels, 31)
	if !equalTupleSets(got, want) {
		t.Fatalf("cross join: %d vs %d", len(got), len(want))
	}
}

func TestTraditionalBandJoin(t *testing.T) {
	// |R.a - S.b| <= 2, as S.b <= R.a + 2 AND S.b >= R.a - 2.
	g := expr.MustJoinGraph(2,
		expr.JoinConjunct{LRel: 0, RRel: 1, Op: expr.Ge,
			Left:  expr.Arith{Op: expr.Add, L: expr.C(0), R: expr.I(2)},
			Right: expr.C(0)},
		expr.JoinConjunct{LRel: 0, RRel: 1, Op: expr.Le,
			Left:  expr.Arith{Op: expr.Sub, L: expr.C(0), R: expr.I(2)},
			Right: expr.C(0)},
	)
	r := rand.New(rand.NewSource(37))
	rels := [][]types.Tuple{genRel(r, 60, 1, 30), genRel(r, 60, 1, 30)}
	want := bruteForce(t, g, rels)
	got := streamJoin(t, NewTraditional(g), rels, 37)
	if len(want) == 0 {
		t.Fatal("no band matches")
	}
	if !equalTupleSets(got, want) {
		t.Fatalf("band join: %d vs %d", len(got), len(want))
	}
}

func TestTraditionalMemSizeGrows(t *testing.T) {
	g := chainGraph()
	j := NewTraditional(g)
	before := j.MemSize()
	for i := 0; i < 100; i++ {
		joinRow(t, j, i%3, types.Tuple{types.Int(int64(i)), types.Int(int64(i))})
	}
	if j.MemSize() <= before {
		t.Error("MemSize must grow with state")
	}
	if j.StoredTuples() != 100 {
		t.Errorf("StoredTuples = %d", j.StoredTuples())
	}
}

func TestTraditionalRejectsBadRelation(t *testing.T) {
	j := NewTraditional(chainGraph())
	row := wire.Encode(nil, types.Tuple{types.Int(1)})
	var cur wire.Cursor
	if err := cur.Reset(row); err != nil {
		t.Fatal(err)
	}
	if err := j.OnRow(7, row, &cur, func([]byte) error { return nil }); err == nil {
		t.Error("bad relation must error")
	}
	if err := j.ImportRow(7, row, &cur); err == nil {
		t.Error("bad relation must error on import")
	}
}

// TestTraditionalRefLifecycle covers the ref contract the indexes rely on:
// imported and joined rows take dense refs in arrival order, every stored
// row stays addressable and indexed, and export returns the rows in ref
// order.
func TestTraditionalRefLifecycle(t *testing.T) {
	g := expr.MustJoinGraph(2, expr.EquiCol(0, 0, 1, 0))
	j := NewTraditional(g)
	var cur wire.Cursor
	var want []types.Tuple
	for i := 0; i < 10; i++ {
		tup := types.Tuple{types.Int(int64(i % 3)), types.Int(int64(i))}
		want = append(want, tup)
		if i%2 == 0 {
			importTuple(t, j, 0, tup)
			continue
		}
		row := wire.Encode(nil, tup)
		if err := cur.Reset(row); err != nil {
			t.Fatal(err)
		}
		if err := j.OnRow(0, row, &cur, func([]byte) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	a := j.stores[0].arena
	if j.RelCount(0) != len(want) || a.Rows() != len(want) {
		t.Fatalf("RelCount = %d, Rows = %d, want %d", j.RelCount(0), a.Rows(), len(want))
	}
	for i, tup := range want {
		if got := a.Decode(slab.Ref(i)); !got.Equal(tup) {
			t.Fatalf("ref %d holds %v, want %v (refs must be dense in arrival order)", i, got, tup)
		}
	}
	for i, got := range frameTuples(t, j, 0, 4) {
		if !got.Equal(want[i]) {
			t.Fatalf("export row %d = %v, want %v", i, got, want[i])
		}
	}
	// Every stored row with key 1 joins, whichever path inserted it.
	deltas := joinRow(t, j, 1, types.Tuple{types.Int(1)})
	seqs := map[int64]bool{}
	for _, d := range deltas {
		seqs[d[1].I] = true
	}
	if len(deltas) != 3 || !seqs[1] || !seqs[4] || !seqs[7] {
		t.Fatalf("key 1 joined %v, want seqs 1, 4 and 7", deltas)
	}
}

// frameTuples decodes one relation's frame export (batchSize rows a frame)
// back to tuples, checking each frame's count.
func frameTuples(t *testing.T, j FrameExporter, rel, batchSize int) []types.Tuple {
	t.Helper()
	var out []types.Tuple
	j.ExportRelFrames(rel, batchSize, false, func(frame []byte, count int) bool {
		tuples, _, err := wire.DecodeBatch(frame)
		if err != nil || len(tuples) != count {
			t.Fatalf("rel %d frame: %v (%d tuples, count %d)", rel, err, len(tuples), count)
		}
		out = append(out, tuples...)
		return true
	})
	return out
}

// importRel streams one relation from src's frame export into dst's
// ImportRow — the migration and restore import path.
func importRel(t *testing.T, dst Migrator, src FrameExporter, rel int) {
	t.Helper()
	var cur wire.Cursor
	var err error
	src.ExportRelFrames(rel, 7, false, func(frame []byte, _ int) bool {
		_, _, err = wire.EachRow(frame, &cur, func(row []byte) error { return dst.ImportRow(rel, row, &cur) })
		return err == nil
	})
	if err != nil {
		t.Fatalf("rel %d import: %v", rel, err)
	}
}

// TestTraditionalExportParityAndFrames: the frame export holds exactly the
// inserted rows, bare or footered, and round-trips through ImportRow into a
// fresh operator, on column-key and computed-key graphs alike.
func TestTraditionalExportParityAndFrames(t *testing.T) {
	computed := func(e expr.Expr) expr.Expr { return expr.Arith{Op: expr.Add, L: e, R: expr.I(0)} }
	for _, c := range []struct {
		name string
		g    *expr.JoinGraph
	}{
		{"lowered", chainGraph()},
		{"computed", expr.MustJoinGraph(3,
			expr.JoinConjunct{LRel: 0, RRel: 1, Op: expr.Eq, Left: computed(expr.C(1)), Right: computed(expr.C(0))},
			expr.JoinConjunct{LRel: 1, RRel: 2, Op: expr.Eq, Left: computed(expr.C(1)), Right: computed(expr.C(0))})},
	} {
		t.Run(c.name, func(t *testing.T) { exportParity(t, c.g) })
	}
}

func exportParity(t *testing.T, g *expr.JoinGraph) {
	r := rand.New(rand.NewSource(41))
	rels := [][]types.Tuple{genRel(r, 40, 2, 6), genRel(r, 40, 2, 6), genRel(r, 40, 2, 6)}
	slabJ, reJ := NewTraditional(g), NewTraditional(g)
	for rel, rows := range rels {
		for _, row := range rows {
			importTuple(t, slabJ, rel, row)
		}
	}
	for rel := range rels {
		b := append([]types.Tuple(nil), rels[rel]...)
		if a := frameTuples(t, slabJ, rel, 7); !equalTupleSets(a, b) {
			t.Fatalf("rel %d: frame export diverges from the inserted rows (%d vs %d rows)", rel, len(a), len(b))
		}
		importRel(t, reJ, slabJ, rel)
		if a := frameTuples(t, reJ, rel, 7); !equalTupleSets(a, b) {
			t.Fatalf("rel %d: export does not round-trip through ImportRow (%d vs %d rows)", rel, len(a), len(b))
		}
		var footered []types.Tuple
		slabJ.ExportRelFrames(rel, 7, true, func(frame []byte, count int) bool {
			var foot wire.Footer
			if count > 0 && !wire.ParseFooter(frame, &foot) {
				t.Fatalf("rel %d: footered export carries no valid footer", rel)
			}
			tuples, _, err := wire.DecodeBatch(frame)
			if err != nil || len(tuples) != count {
				t.Fatalf("rel %d footered frame: %v (%d tuples, count %d)", rel, err, len(tuples), count)
			}
			footered = append(footered, tuples...)
			return true
		})
		if !equalTupleSets(footered, b) {
			t.Fatalf("rel %d: footered frame export diverges from snapshot", rel)
		}
	}
	// Probing the round-tripped operator gives the original's deltas.
	probe := types.Tuple{types.Int(2), types.Int(3)}
	da, db := joinRow(t, slabJ, 1, probe), joinRow(t, reJ, 1, probe)
	if len(da) == 0 || !equalTupleSets(da, db) {
		t.Fatalf("round-tripped state joins to %d deltas, original %d", len(db), len(da))
	}
}

// BenchmarkTraditionalOnRow measures the probe+insert hot path: S
// arrivals joining against 100k stored R rows (~1 match each).
func BenchmarkTraditionalOnRow(b *testing.B) {
	g := expr.MustJoinGraph(2, expr.EquiCol(0, 0, 1, 0))
	j := NewTraditional(g)
	const n = 100_000
	for i := 0; i < n; i++ {
		importTuple(b, j, 0, types.Tuple{types.Int(int64(i)), types.Str("1996-01-02"), types.Float(float64(i) + 0.25), types.Str("BUILDING")})
	}
	rows := make([][]byte, 1024)
	for i := range rows {
		rows[i] = wire.Encode(nil, types.Tuple{types.Int(int64(i * 97 % n)), types.Str("1996-01-02"), types.Float(float64(i)), types.Str("MACHINE")})
	}
	var cur wire.Cursor
	emit := func([]byte) error { return nil }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		row := rows[i%len(rows)]
		if err := cur.Reset(row); err != nil {
			b.Fatal(err)
		}
		if err := j.OnRow(1, row, &cur, emit); err != nil {
			b.Fatal(err)
		}
	}
}

// failingStore is a slab.SegmentStore whose writes fail.
type failingStore struct{}

func (failingStore) PutSegment(key string, _ []byte) error {
	return fmt.Errorf("put %s: device full", key)
}
func (failingStore) GetSegment(string, []byte) ([]byte, bool, error) { return nil, false, nil }
func (failingStore) DeleteSegment(string) error                      { return nil }

// TestExportRelTierReportsWriteErrors: ExportRelTier falls back (ok=false,
// no error) only when a relation cannot be exported by segment — an
// untiered arena, or a tier without a checkpoint store. A checkpoint store
// whose segment write fails is an error naming the segment, not a silent
// fall back to full frames.
func TestExportRelTierReportsWriteErrors(t *testing.T) {
	g := expr.MustJoinGraph(2, expr.EquiCol(0, 0, 1, 0))
	spill := &countingStore{blobs: map[string][]byte{}}
	for _, tc := range []struct {
		name    string
		j       *Traditional
		ok      bool
		wantErr bool
	}{
		{"untiered", NewTraditional(g), false, false},
		{"no-ckstore", NewTraditionalTiered(g, slab.TierConfig{SegmentRows: 16, Store: spill, KeyPrefix: "n"}), false, false},
		{"ckstore", NewTraditionalTiered(g, slab.TierConfig{SegmentRows: 16, Store: spill, CkStore: &countingStore{blobs: map[string][]byte{}}, KeyPrefix: "c"}), true, false},
		{"ckstore-fails", NewTraditionalTiered(g, slab.TierConfig{SegmentRows: 16, Store: spill, CkStore: failingStore{}, KeyPrefix: "f"}), false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for i := 0; i < 40; i++ {
				importTuple(t, tc.j, 0, types.Tuple{types.Int(int64(i)), types.Int(int64(i))})
			}
			frames := 0
			cks, ok, err := tc.j.ExportRelTier(0, 8, false, func([]byte, int) bool { frames++; return true })
			if ok != tc.ok || (err != nil) != tc.wantErr {
				t.Fatalf("ExportRelTier = %d segments, ok=%v, err=%v; want ok=%v, error %v", len(cks), ok, err, tc.ok, tc.wantErr)
			}
			if tc.wantErr && !strings.Contains(err.Error(), "segment") {
				t.Fatalf("error %q does not name the segment", err)
			}
			if ok && (len(cks) != 2 || frames != 1) {
				t.Fatalf("exported %d segments and %d hot frames, want 2 and 1", len(cks), frames)
			}
		})
	}
}
