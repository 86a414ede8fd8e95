package serve

import (
	"errors"
	"testing"
	"time"

	"squall/internal/dataflow"
	"squall/internal/ops"
	"squall/internal/types"
	"squall/internal/wire"
)

func testSpout(n int) dataflow.SpoutFactory {
	return dataflow.GenSpout(n, func(i int) types.Tuple {
		return types.Tuple{types.Int(int64(i)), types.Int(int64(i % 7))}
	})
}

// drainTap pulls every row out of a tap through its spout, decoded.
func drainTap(t *Tap) []types.Tuple {
	sp := TapSpout(t, nil, nil)(0, 1)
	var out []types.Tuple
	var cur wire.Cursor
	for {
		row, ok := sp.NextRow()
		if !ok {
			return out
		}
		if err := cur.Reset(row); err != nil {
			panic(err)
		}
		out = append(out, cur.Tuple(nil))
	}
}

func TestSharedSourceFanOut(t *testing.T) {
	const n = 1000
	s := NewSharedSource("R", testSpout(n), SourceOptions{FrameRows: 64})
	var taps []*Tap
	for i := 0; i < 3; i++ {
		tap, err := s.Attach()
		if err != nil {
			t.Fatal(err)
		}
		taps = append(taps, tap)
	}
	results := make(chan int, len(taps))
	for _, tap := range taps {
		tap := tap
		go func() { results <- len(drainTap(tap)) }()
	}
	s.Start()
	for range taps {
		if got := <-results; got != n {
			t.Fatalf("tap received %d rows, want %d", got, n)
		}
	}
	st := s.Stats()
	if st.Rows != n || st.Encodes != n {
		t.Fatalf("stats %+v: want %d rows encoded exactly once", st, n)
	}
	if _, err := s.Attach(); !errors.Is(err, ErrSourceClosed) {
		t.Fatalf("attach after drain: %v", err)
	}
}

func TestSharedSourceStallDetach(t *testing.T) {
	const n = 5000
	s := NewSharedSource("R", testSpout(n), SourceOptions{
		Window: 1, FrameRows: 8, StallTimeout: 20 * time.Millisecond,
	})
	stuck, err := s.Attach()
	if err != nil {
		t.Fatal(err)
	}
	healthy, err := s.Attach()
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan int, 1)
	go func() { got <- len(drainTap(healthy)) }()
	s.Start()
	// The stuck tap never reads: the source must detach it and finish.
	if rows := <-got; rows != n {
		t.Fatalf("healthy tap received %d rows, want %d", rows, n)
	}
	<-s.done
	if err := stuck.Err(); !errors.Is(err, ErrQueryStalled) {
		t.Fatalf("stuck tap error = %v, want ErrQueryStalled", err)
	}
	if s.Stats().Stalls == 0 {
		t.Fatal("no stall recorded")
	}
}

func TestTapSpoutPre(t *testing.T) {
	s := NewSharedSource("R", testSpout(100), SourceOptions{FrameRows: 16})
	tap, err := s.Attach()
	if err != nil {
		t.Fatal(err)
	}
	// Pre drops every tuple with col1 != 0 (i%7 == 0 survives: 15 of 100).
	pre := ops.Pipeline{keepMod7{}}
	rs := TapSpout(tap, pre, nil)(0, 1)
	s.Start()
	rows := 0
	for {
		if _, ok := rs.NextRow(); !ok {
			break
		}
		rows++
	}
	if rows != 15 {
		t.Fatalf("pre-filtered tap produced %d rows, want 15", rows)
	}
}

type keepMod7 struct{}

func (keepMod7) Apply(t types.Tuple) (types.Tuple, bool, error) {
	v, _ := t[1].AsInt()
	return t, v == 0, nil
}

func TestTenantsAdmission(t *testing.T) {
	ts := NewTenants()
	ts.SetBudget("a", Budget{MaxQueries: 2})
	if err := ts.Admit("a"); err != nil {
		t.Fatal(err)
	}
	if err := ts.Admit("a"); err != nil {
		t.Fatal(err)
	}
	err := ts.Admit("a")
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("third admit: %v", err)
	}
	var be *BudgetError
	if !errors.As(err, &be) || be.Queries != 2 {
		t.Fatalf("error detail: %#v", err)
	}
	ts.Release("a")
	if err := ts.Admit("a"); err != nil {
		t.Fatalf("after release: %v", err)
	}

	ts.SetBudget("b", Budget{MaxBytes: 100})
	if err := ts.Admit("b"); err != nil {
		t.Fatal(err)
	}
	g := ts.Meter("b").Gauge()
	g.Set(150)
	if err := ts.Admit("b"); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("over-bytes admit: %v", err)
	}
	g.Release()
	if err := ts.Admit("b"); err != nil {
		t.Fatalf("after gauge release: %v", err)
	}
	if bytes, queries := ts.Usage("b"); bytes != 0 || queries != 2 {
		t.Fatalf("usage = %d bytes / %d queries", bytes, queries)
	}
}

func row(i int) []types.Tuple { return []types.Tuple{{types.Int(int64(i))}} }

func TestHubDropPolicy(t *testing.T) {
	h := NewHub()
	sub := h.Subscribe(SubOptions{Policy: DropDeltas, Buf: 1}, nil)
	for i := 0; i < 10; i++ {
		h.Publish(row(i))
	}
	h.Close(nil)
	var rows, dropped int64
	for d := range sub.C() {
		rows += int64(len(d.Rows))
		if d.Final {
			dropped = d.Dropped
		}
	}
	if rows+dropped != 10 {
		t.Fatalf("rows %d + dropped %d != 10", rows, dropped)
	}
	if dropped == 0 {
		t.Fatal("tiny buffer never dropped")
	}
}

func TestHubCoalescePolicy(t *testing.T) {
	h := NewHub()
	sub := h.Subscribe(SubOptions{Policy: CoalesceDeltas, Buf: 1}, nil)
	for i := 0; i < 10; i++ {
		h.Publish(row(i))
	}
	h.Close(nil)
	var rows int64
	for d := range sub.C() {
		rows += int64(len(d.Rows))
	}
	if rows != 10 {
		t.Fatalf("coalescing subscriber saw %d rows, want all 10", rows)
	}
}

func TestHubDisconnectPolicy(t *testing.T) {
	h := NewHub()
	sub := h.Subscribe(SubOptions{Policy: DisconnectSlow, Buf: 1}, nil)
	for i := 0; i < 10; i++ {
		h.Publish(row(i))
	}
	var lastErr error
	for d := range sub.C() {
		if d.Final {
			lastErr = d.Err
		}
	}
	if !errors.Is(lastErr, ErrSubscriberLagged) {
		t.Fatalf("disconnect error = %v", lastErr)
	}
	if h.SubCount() != 0 {
		t.Fatal("lagged subscriber still registered")
	}
}

func TestHubReplayAndLateSubscribe(t *testing.T) {
	h := NewHub()
	h.Publish(row(1))
	sub := h.Subscribe(SubOptions{}, row(1))
	h.Publish(row(2))
	h.Close(errors.New("terminal"))
	var rows int64
	var finalErr error
	for d := range sub.C() {
		rows += int64(len(d.Rows))
		if d.Final {
			finalErr = d.Err
		}
	}
	if rows != 2 || finalErr == nil {
		t.Fatalf("replay subscriber: %d rows, err %v", rows, finalErr)
	}
	late := h.Subscribe(SubOptions{}, row(1))
	d := <-late.C()
	if len(d.Rows) != 1 {
		t.Fatalf("late replay: %+v", d)
	}
	d = <-late.C()
	if !d.Final || d.Err == nil {
		t.Fatalf("late final: %+v", d)
	}
}
