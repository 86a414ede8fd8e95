package core

import (
	"math/rand"
	"testing"

	"squall/internal/expr"
)

// twoSpec is a 2-way join of the given sizes; OneBucket reads only names and
// sizes.
func twoSpec(r, s int64) JoinSpec {
	return JoinSpec{
		Graph: expr.MustJoinGraph(2, expr.EquiCol(0, 0, 1, 0)),
		Names: []string{"R", "S"},
		Sizes: []int64{r, s},
	}
}

func matrixOf(t *testing.T, spec JoinSpec, machines int) (int, int) {
	t.Helper()
	hc, err := OneBucket(spec, machines, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	return hc.Matrix()
}

// TestOneBucketProportionalToSizes: the optimizer sizes the matrix's dims in
// proportion to the relation sizes (§4).
func TestOneBucketProportionalToSizes(t *testing.T) {
	cases := []struct {
		machines   int
		r, s       int64
		rows, cols int
	}{
		{64, 1000, 1000, 8, 8},
		{64, 4000, 1000, 16, 4},
		{16, 1_000_000, 1, 16, 1}, // a tiny S is broadcast
		{8, 1, 1, 2, 4},           // equal-load ties keep fewer rows
	}
	for _, c := range cases {
		if rows, cols := matrixOf(t, twoSpec(c.r, c.s), c.machines); rows != c.rows || cols != c.cols {
			t.Errorf("%d machines, sizes %d:%d: %dx%d, want %dx%d", c.machines, c.r, c.s, rows, cols, c.rows, c.cols)
		}
	}
}

// TestOneBucketSevenMachines: the integer search keeps using ~7 machines
// (no rounding collapse).
func TestOneBucketSevenMachines(t *testing.T) {
	if rows, cols := matrixOf(t, twoSpec(1000, 1000), 7); rows*cols < 6 {
		t.Errorf("7 machines: %dx%d uses %d", rows, cols, rows*cols)
	}
}

// TestOneBucketGeometry pins the live shape's layout: dims [S's columns, R's
// rows] with size-1 dims kept, cell = row*cols + col, an R row reaching a
// whole row of cells and an S row a whole column, meeting on exactly one.
func TestOneBucketGeometry(t *testing.T) {
	hc, err := OneBucket(twoSpec(1, 1), 8, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(hc.Dims) != 2 || hc.Dims[0].Size != 2 || hc.Dims[1].Size != 3 || hc.Machines() != 6 {
		t.Fatalf("3x2 shape = %v over %d machines", hc, hc.Machines())
	}
	if c := hc.Coords(5); c[0] != 1 || c[1] != 2 {
		t.Fatalf("cell 5 coords = %v, want [col 1, row 2]", c)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		r := hc.GroupingFor(0).Targets(nil, 8, rng, nil)
		s := hc.GroupingFor(1).Targets(nil, 8, rng, nil)
		if len(r) != 2 || r[1] != r[0]+1 || r[0]%2 != 0 {
			t.Fatalf("R targets %v are not one row of 2 cells", r)
		}
		if len(s) != 3 || s[1] != s[0]+2 || s[2] != s[0]+4 {
			t.Fatalf("S targets %v are not one column of 3 cells", s)
		}
		common := 0
		for _, a := range r {
			for _, b := range s {
				if a == b {
					common++
				}
			}
		}
		if common != 1 {
			t.Fatalf("row %v x column %v meet on %d cells, want 1", r, s, common)
		}
	}
	flat, err := OneBucket(twoSpec(1, 1), 8, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(flat.Dims) != 2 || flat.Dims[1].Size != 1 {
		t.Fatalf("1x8 shape %v dropped its size-1 dim", flat)
	}
	for _, bad := range [][2]int{{3, 3}, {0, 4}, {2, 0}} {
		if _, err := OneBucket(twoSpec(1, 1), 8, bad[0], bad[1]); err == nil {
			t.Errorf("%dx%d over 8 machines: want an error", bad[0], bad[1])
		}
	}
}

// TestReshapeFollowsDrift: when R grows 16x past S, the decision grows the
// rows and cuts the predicted load.
func TestReshapeFollowsDrift(t *testing.T) {
	hc, err := OneBucket(twoSpec(1, 1), 64, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	next, ok := hc.Reshape(64, 16000, 1000, 0.2)
	if !ok {
		t.Fatal("a 16:1 drift off the square matrix did not reshape")
	}
	if rows, _ := next.Matrix(); rows <= 8 {
		t.Errorf("R-heavy drift must grow rows past 8, got %v", next)
	}
	if again, ok := next.Reshape(64, 16000, 1000, 0.2); ok || again != next {
		t.Errorf("the optimal matrix reshaped again to %v", again)
	}
}

// TestReshapeHysteresis: with MinGain set, mild alternating imbalances
// (~1.3:1 either way, re-checked every 256 arrivals) must not thrash the
// shape — the §5 adversary argument for random partitioning applies to
// shape changes too.
func TestReshapeHysteresis(t *testing.T) {
	hc, err := OneBucket(twoSpec(1, 1), 16, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	var seenR, seenS, since float64
	reshapes := 0
	arrive := func(r bool) {
		if r {
			seenR++
		} else {
			seenS++
		}
		if since++; since < 256 {
			return
		}
		since = 0
		if next, ok := hc.Reshape(16, seenR, seenS, 0.2); ok {
			hc = next
			reshapes++
		}
	}
	for round := 0; round < 50; round++ {
		lead := round%2 == 0
		for i := 0; i < 300; i++ {
			arrive(lead)
			if i%4 != 0 {
				arrive(!lead)
			}
		}
	}
	if reshapes > 2 {
		t.Errorf("hysteresis failed: %d reshapes under mild oscillation", reshapes)
	}
}
