package squall_test

import (
	"errors"
	"fmt"
	"sort"
	"testing"
	"time"

	"squall"
	"squall/internal/dataflow"
	"squall/internal/expr"
	"squall/internal/ops"
	"squall/internal/serve"
	"squall/internal/types"
)

// Serving test workload: R(a, b) ⋈ S(b, c) on b, deterministic generators.
const (
	serveRRows = 1500
	serveSRows = 1200
	serveKeys  = 400
)

func serveRSpout() dataflow.SpoutFactory {
	return dataflow.GenSpout(serveRRows, func(i int) types.Tuple {
		return types.Tuple{types.Int(int64(i % 97)), types.Int(int64((i * 31) % serveKeys))}
	})
}

func serveSSpout() dataflow.SpoutFactory {
	return dataflow.GenSpout(serveSRows, func(i int) types.Tuple {
		return types.Tuple{types.Int(int64((i * 17) % serveKeys)), types.Int(int64(i % 13))}
	})
}

var serveGraph = expr.MustJoinGraph(2, expr.EquiCol(0, 1, 1, 0))

// serveQuery builds variant k of the test workload. shared=true leaves the
// spouts nil so the engine binds them to its shared sources; shared=false
// is the standalone reference. Even variants aggregate (COUNT GROUP BY
// S.c), odd variants emit raw join rows; every variant filters R
// differently so no two registered plans are identical.
func serveQuery(k int, shared bool) *squall.JoinQuery {
	var rSpout, sSpout dataflow.SpoutFactory
	if !shared {
		rSpout, sSpout = serveRSpout(), serveSSpout()
	}
	pre := ops.Pipeline{ops.Select{P: expr.Cmp{Op: expr.Lt, L: expr.C(0), R: expr.I(int64(20 + 10*k))}}}
	q := &squall.JoinQuery{
		Sources: []squall.Source{
			{Name: "R", Spout: rSpout, Size: serveRRows, Pre: pre},
			{Name: "S", Spout: sSpout, Size: serveSRows},
		},
		Graph:    serveGraph,
		Scheme:   squall.HashHypercube,
		Machines: 4,
		Local:    squall.Traditional,
	}
	if k%2 == 0 {
		q.Local = squall.DBToaster
		q.Agg = &squall.AggSpec{
			GroupBy: []squall.ColRef{{Rel: 1, E: expr.C(1)}},
			Kind:    squall.Count,
		}
	}
	return q
}

func rowsExactlyEqual(t *testing.T, label string, got, want []squall.Tuple) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, reference %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i].Compare(want[i]) != 0 {
			t.Fatalf("%s row %d: %v vs %v", label, i, got[i], want[i])
		}
	}
}

func newServeEngine(opt squall.Options, src serve.SourceOptions) *squall.Engine {
	eng := squall.NewEngine(squall.EngineOptions{Run: opt, Source: src})
	eng.AddSource("R", serveRSpout(), serveRRows)
	eng.AddSource("S", serveSSpout(), serveSRows)
	return eng
}

// TestServeDifferential: K queries registered on one pair of shared spouts
// must each produce output bag-equal to the same query run standalone, at
// the default batch size and with one-row frames.
func TestServeDifferential(t *testing.T) {
	const K = 8
	modes := []struct {
		name string
		opt  squall.Options
	}{
		{"batch=64", squall.Options{}},
		{"batch=1", squall.Options{BatchSize: 1}},
	}
	for _, mode := range modes {
		t.Run(mode.name, func(t *testing.T) {
			want := make([][]squall.Tuple, K)
			for k := 0; k < K; k++ {
				res := runOrFail(t, serveQuery(k, false), mode.opt)
				want[k] = res.SortedRows()
			}

			eng := newServeEngine(mode.opt, serve.SourceOptions{})
			defer eng.Close()
			handles := make([]*squall.ServedQuery, K)
			for k := 0; k < K; k++ {
				h, err := eng.Register(squall.RegisterRequest{
					Tenant: fmt.Sprintf("tenant%d", k%3),
					ID:     fmt.Sprintf("q%d", k),
					Query:  serveQuery(k, true),
				})
				if err != nil {
					t.Fatalf("register q%d: %v", k, err)
				}
				handles[k] = h
			}
			eng.Start()
			eng.Drain()
			for k, h := range handles {
				res, err := h.Wait()
				if err != nil {
					t.Fatalf("q%d: %v", k, err)
				}
				if h.Status() != squall.QueryDone {
					t.Fatalf("q%d status %v", k, h.Status())
				}
				rowsExactlyEqual(t, fmt.Sprintf("q%d", k), res.SortedRows(), want[k])
			}

			st := eng.Stats()
			for _, src := range st.Sources {
				// Scan sharing: K queries, but each source row was encoded
				// once, not K times.
				if src.Encodes != src.Rows {
					t.Fatalf("source %s: %d encodes for %d rows", src.Name, src.Encodes, src.Rows)
				}
			}
		})
	}
}

// errInjected is failAfterOp's error.
var errInjected = errors.New("boom: injected pipeline failure")

// failAfterOp errors once it has seen `after` tuples.
type failAfterOp struct {
	after int
	seen  int
}

func (f *failAfterOp) Apply(t types.Tuple) (types.Tuple, bool, error) {
	f.seen++
	if f.seen > f.after {
		return nil, false, errInjected
	}
	return t, true, nil
}

// TestServeErrorIsolation: a query with a failing Pre pipeline is detached
// and reported; its siblings on the same shared sources are unaffected.
func TestServeErrorIsolation(t *testing.T) {
	opt := squall.Options{}
	want0 := runOrFail(t, serveQuery(0, false), opt).SortedRows()
	want1 := runOrFail(t, serveQuery(1, false), opt).SortedRows()

	eng := newServeEngine(opt, serve.SourceOptions{})
	defer eng.Close()
	good0, err := eng.Register(squall.RegisterRequest{Tenant: "a", ID: "good0", Query: serveQuery(0, true)})
	if err != nil {
		t.Fatal(err)
	}
	badQ := serveQuery(1, true)
	badQ.Sources[0].Pre = ops.Pipeline{&failAfterOp{after: 100}}
	bad, err := eng.Register(squall.RegisterRequest{Tenant: "a", ID: "bad", Query: badQ})
	if err != nil {
		t.Fatal(err)
	}
	good1, err := eng.Register(squall.RegisterRequest{Tenant: "b", ID: "good1", Query: serveQuery(1, true)})
	if err != nil {
		t.Fatal(err)
	}
	eng.Start()
	eng.Drain()

	if _, err := bad.Wait(); err == nil {
		t.Fatal("bad query reported no error")
	}
	if bad.Status() != squall.QueryFailed {
		t.Fatalf("bad query status %v", bad.Status())
	}
	res0, err := good0.Wait()
	if err != nil {
		t.Fatalf("good0: %v", err)
	}
	rowsExactlyEqual(t, "good0", res0.SortedRows(), want0)
	res1, err := good1.Wait()
	if err != nil {
		t.Fatalf("good1: %v", err)
	}
	rowsExactlyEqual(t, "good1", res1.SortedRows(), want1)
}

// slowOp sleeps per tuple — a deliberately wedged query pipeline.
type slowOp struct{ d time.Duration }

func (s slowOp) Apply(t types.Tuple) (types.Tuple, bool, error) {
	time.Sleep(s.d)
	return t, true, nil
}

// TestServeStalledQuery: a query that cannot keep up with the shared scan
// is detached with ErrQueryStalled after the stall timeout; its sibling
// streams on and stays bag-equal to its standalone run.
func TestServeStalledQuery(t *testing.T) {
	opt := squall.Options{}
	want := runOrFail(t, serveQuery(3, false), opt).SortedRows()

	eng := newServeEngine(opt, serve.SourceOptions{
		Window:       1,
		FrameRows:    16,
		StallTimeout: 30 * time.Millisecond,
	})
	defer eng.Close()
	stuckQ := serveQuery(2, true)
	stuckQ.Sources[0].Pre = ops.Pipeline{slowOp{d: 5 * time.Millisecond}}
	stuck, err := eng.Register(squall.RegisterRequest{Tenant: "a", ID: "stuck", Query: stuckQ})
	if err != nil {
		t.Fatal(err)
	}
	sibling, err := eng.Register(squall.RegisterRequest{Tenant: "b", ID: "sibling", Query: serveQuery(3, true)})
	if err != nil {
		t.Fatal(err)
	}
	eng.Start()
	eng.Drain()

	if _, err := stuck.Wait(); !errors.Is(err, serve.ErrQueryStalled) {
		t.Fatalf("stuck query error = %v, want ErrQueryStalled", err)
	}
	res, err := sibling.Wait()
	if err != nil {
		t.Fatalf("sibling: %v", err)
	}
	rowsExactlyEqual(t, "sibling", res.SortedRows(), want)
}

// TestServeAdmission: a tenant over its memory budget is rejected with a
// typed error while other tenants keep registering and running; releasing
// the tenant's queries releases its charge.
func TestServeAdmission(t *testing.T) {
	opt := squall.Options{}
	eng := newServeEngine(opt, serve.SourceOptions{})
	defer eng.Close()
	eng.SetTenantBudget("small", serve.Budget{MaxBytes: 1024})

	q1, err := eng.Register(squall.RegisterRequest{Tenant: "small", ID: "q1", Query: serveQuery(0, true)})
	if err != nil {
		t.Fatalf("q1 should be admitted at zero usage: %v", err)
	}
	eng.Start()
	if _, err := q1.Wait(); err != nil {
		t.Fatal(err)
	}
	bytes, queries := eng.TenantUsage("small")
	if bytes <= 1024 || queries != 1 {
		t.Fatalf("tenant usage after q1: %d bytes, %d queries (joiner state should exceed the 1KB budget)", bytes, queries)
	}

	// Over budget now: next registration is refused with the typed error.
	// The rejected query uses private spouts, so only admission can fail.
	_, err = eng.Register(squall.RegisterRequest{Tenant: "small", ID: "q2", Query: serveQuery(1, false)})
	if !errors.Is(err, serve.ErrBudgetExceeded) {
		t.Fatalf("q2 error = %v, want ErrBudgetExceeded", err)
	}
	var be *serve.BudgetError
	if !errors.As(err, &be) || be.Tenant != "small" || be.Used <= 1024 {
		t.Fatalf("q2 error detail = %#v", err)
	}

	// Another tenant is unaffected.
	q3, err := eng.Register(squall.RegisterRequest{Tenant: "big", ID: "q3", Query: serveQuery(1, false)})
	if err != nil {
		t.Fatalf("big tenant rejected: %v", err)
	}
	if _, err := q3.Wait(); err != nil {
		t.Fatal(err)
	}

	// Unregistering q1 refunds the charge; the tenant fits again.
	if err := eng.Unregister("q1"); err != nil {
		t.Fatal(err)
	}
	if bytes, _ := eng.TenantUsage("small"); bytes != 0 {
		t.Fatalf("tenant usage after unregister: %d bytes", bytes)
	}
	if _, err := eng.Register(squall.RegisterRequest{Tenant: "small", ID: "q4", Query: serveQuery(1, false)}); err != nil {
		t.Fatalf("q4 after refund: %v", err)
	}
}

// TestRegisterEmptyIDIsConfigError: an empty query id is a configuration
// error, refused before admission charges the tenant, not a duplicate.
func TestRegisterEmptyIDIsConfigError(t *testing.T) {
	eng := newServeEngine(squall.Options{}, serve.SourceOptions{})
	defer eng.Close()
	_, err := eng.Register(squall.RegisterRequest{Tenant: "t", Query: serveQuery(0, false)})
	var ce *squall.ConfigError
	if !errors.As(err, &ce) || ce.Option != "RegisterRequest.ID" {
		t.Fatalf("empty id: err %v, want a *ConfigError on RegisterRequest.ID", err)
	}
	if errors.Is(err, squall.ErrDuplicateQuery) {
		t.Fatalf("empty id reported as a duplicate: %v", err)
	}
	if _, queries := eng.TenantUsage("t"); queries != 0 {
		t.Fatalf("refused registration left %d queries charged to its tenant", queries)
	}
}

// TestServeSpilledBytesReachTenant: a query registered under a small
// engine-wide MemCapBytes spills sealed segments, and the one memory
// observer carries the spilled bytes to its tenant's books beside the
// resident ones.
func TestServeSpilledBytesReachTenant(t *testing.T) {
	eng := squall.NewEngine(squall.EngineOptions{
		Run:         squall.Options{Tier: &squall.TierOptions{SegmentRows: 8}},
		MemCapBytes: 2 << 10,
	})
	defer eng.Close()
	h, err := eng.Register(squall.RegisterRequest{Tenant: "t", ID: "q", Query: serveQuery(1, false)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Wait(); err != nil {
		t.Fatal(err)
	}
	if ps := eng.Pressure().Stats(); ps.Spills == 0 {
		t.Fatalf("no segment spilled under a 2 KiB cap: %+v", ps)
	}
	for _, ten := range eng.Stats().Tenants {
		if ten.Name == "t" {
			if ten.SpilledBytes <= 0 || ten.Bytes <= 0 {
				t.Fatalf("tenant books %d resident and %d spilled bytes, want both > 0", ten.Bytes, ten.SpilledBytes)
			}
			return
		}
	}
	t.Fatal("tenant t missing from the engine stats")
}

// TestServeEvict: Evict lets a registration push out the tenant's oldest
// query to fit MaxQueries instead of being rejected.
func TestServeEvict(t *testing.T) {
	opt := squall.Options{}
	eng := newServeEngine(opt, serve.SourceOptions{})
	defer eng.Close()
	eng.SetTenantBudget("t", serve.Budget{MaxQueries: 1})

	if _, err := eng.Register(squall.RegisterRequest{Tenant: "t", ID: "old", Query: serveQuery(0, true)}); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Register(squall.RegisterRequest{Tenant: "t", ID: "new", Query: serveQuery(1, true)}); !errors.Is(err, serve.ErrBudgetExceeded) {
		t.Fatalf("without Evict: %v, want ErrBudgetExceeded", err)
	}
	h, err := eng.Register(squall.RegisterRequest{Tenant: "t", ID: "new", Query: serveQuery(1, true), Evict: true})
	if err != nil {
		t.Fatalf("with Evict: %v", err)
	}
	eng.Start()
	eng.Drain()
	if _, err := h.Wait(); err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	if len(st.Queries) != 1 || st.Queries[0].ID != "new" {
		t.Fatalf("registry after evict: %+v", st.Queries)
	}
	for _, ten := range st.Tenants {
		if ten.Name == "t" && ten.Evicted != 1 {
			t.Fatalf("tenant evictions = %d", ten.Evicted)
		}
	}
}

// TestServeSubscription: subscribers get the full result stream as deltas
// (replay + push, shared rows slice); a subscriber arriving after the query
// finished gets everything as replay; a slow subscriber is handled by
// policy without blocking the engine.
func TestServeSubscription(t *testing.T) {
	opt := squall.Options{}
	want := runOrFail(t, serveQuery(1, false), opt).SortedRows()

	eng := newServeEngine(opt, serve.SourceOptions{})
	defer eng.Close()
	h, err := eng.Register(squall.RegisterRequest{Tenant: "a", ID: "q", Query: serveQuery(1, true)})
	if err != nil {
		t.Fatal(err)
	}
	live, err := eng.Subscribe("q", serve.SubOptions{Policy: serve.CoalesceDeltas, Buf: 4})
	if err != nil {
		t.Fatal(err)
	}
	// A subscriber that never reads until the end, with a tiny buffer: the
	// engine must not block on it.
	lazy, err := eng.Subscribe("q", serve.SubOptions{Policy: serve.DropDeltas, Buf: 1})
	if err != nil {
		t.Fatal(err)
	}

	eng.Start()
	var got []squall.Tuple
	for d := range live.C() {
		got = append(got, d.Rows...)
		if d.Final {
			if d.Err != nil {
				t.Fatalf("final delta error: %v", d.Err)
			}
			break
		}
	}
	sortTuples(got)
	rowsExactlyEqual(t, "live subscriber", got, want)

	eng.Drain()
	if _, err := h.Wait(); err != nil {
		t.Fatal(err)
	}

	// The lazy subscriber's channel holds at most Buf+1 deltas; anything
	// beyond was dropped, and the forced final delta reports it.
	var lazyRows int64
	sawFinal := false
	for d := range lazy.C() {
		lazyRows += int64(len(d.Rows))
		if d.Final {
			sawFinal = true
			lazyRows += d.Dropped
		}
	}
	if !sawFinal {
		t.Fatal("lazy subscriber never saw the final delta")
	}
	if lazyRows != int64(len(want)) {
		t.Fatalf("lazy subscriber accounted %d rows, want %d", lazyRows, len(want))
	}

	// Late subscriber: the whole result arrives as replay, then the final.
	late, err := eng.Subscribe("q", serve.SubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var lateRows []squall.Tuple
	for d := range late.C() {
		lateRows = append(lateRows, d.Rows...)
	}
	sortTuples(lateRows)
	rowsExactlyEqual(t, "late subscriber", lateRows, want)
}

// gatedSpout holds its task before row `at` until gate closes, so a query
// reading it is still mid-stream for as long as the test keeps gate open.
type gatedSpout struct {
	inner dataflow.Spout
	n, at int
	gate  <-chan struct{}
}

func (s *gatedSpout) Next() (types.Tuple, bool) {
	if s.n == s.at {
		<-s.gate
	}
	s.n++
	return s.inner.Next()
}

// drainClosed reads sub's channel until it closes and returns the deltas.
func drainClosed(t *testing.T, sub *serve.Subscription) []serve.Delta {
	t.Helper()
	var ds []serve.Delta
	timeout := time.After(30 * time.Second)
	for {
		select {
		case d, ok := <-sub.C():
			if !ok {
				return ds
			}
			ds = append(ds, d)
		case <-timeout:
			t.Fatal("subscription channel never closed")
		}
	}
}

// TestSubscriptionCancel: a subscriber cancelled while the query runs is
// detached at once and its channel closes with no final delta, while the
// other subscriber still gets every row and the final delta. Cancelling
// twice, or after the query ended, does nothing. ServedQuery.Err is nil on
// success and is the source's error after a failing source.
func TestSubscriptionCancel(t *testing.T) {
	want := runOrFail(t, serveQuery(1, false), squall.Options{}).SortedRows()
	gate := make(chan struct{})
	eng := squall.NewEngine(squall.EngineOptions{})
	defer eng.Close()
	rows := serveRSpout()
	eng.AddSource("R", func(task, ntasks int) dataflow.Spout {
		return &gatedSpout{inner: rows(task, ntasks), at: serveRRows / 2, gate: gate}
	}, serveRRows)
	eng.AddSource("S", serveSSpout(), serveSRows)
	h, err := eng.Register(squall.RegisterRequest{Tenant: "a", ID: "q", Query: serveQuery(1, true)})
	if err != nil {
		t.Fatal(err)
	}
	badQ := serveQuery(3, true)
	badQ.Sources[0].Pre = ops.Pipeline{&failAfterOp{after: 20}}
	bad, err := eng.Register(squall.RegisterRequest{Tenant: "b", ID: "bad", Query: badQ})
	if err != nil {
		t.Fatal(err)
	}
	cancelled, err := eng.Subscribe("q", serve.SubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	kept, err := eng.Subscribe("q", serve.SubOptions{Policy: serve.CoalesceDeltas, Buf: 4})
	if err != nil {
		t.Fatal(err)
	}
	if n := h.Subscribers(); n != 2 {
		t.Fatalf("%d subscribers, want 2", n)
	}
	eng.Start()

	// The failing query settles on its own, before the gate opens.
	if _, werr := bad.Wait(); !errors.Is(werr, errInjected) || bad.Err() != werr {
		t.Fatalf("failing source: Wait error %v, Err %v; want %v from both", werr, bad.Err(), errInjected)
	}

	cancelled.Cancel()
	cancelled.Cancel()
	if n := h.Subscribers(); n != 1 {
		t.Fatalf("%d subscribers after a cancel, want 1", n)
	}
	if s := h.Status(); s != squall.QueryRunning {
		t.Fatalf("query %v at the cancel, want running", s)
	}
	for _, d := range drainClosed(t, cancelled) {
		if d.Final {
			t.Fatal("a cancelled subscriber got the final delta")
		}
	}

	close(gate)
	var got []squall.Tuple
	finals := 0
	for _, d := range drainClosed(t, kept) {
		got = append(got, d.Rows...)
		if d.Final {
			finals++
			if d.Err != nil {
				t.Fatalf("final delta error: %v", d.Err)
			}
		}
	}
	if finals != 1 {
		t.Fatalf("the kept subscriber got %d final deltas, want 1", finals)
	}
	sortTuples(got)
	rowsExactlyEqual(t, "kept subscriber", got, want)
	if _, err := h.Wait(); err != nil || h.Err() != nil {
		t.Fatalf("query: Wait error %v, Err %v; want nil", err, h.Err())
	}
	kept.Cancel()
	cancelled.Cancel()
	if n := h.Subscribers(); n != 0 {
		t.Fatalf("%d subscribers after the query ended, want 0", n)
	}
}

// TestSinkCollectLimit: under a CollectLimit the sink, which takes rows one
// at a time, still counts every output row and retains exactly the limit,
// and a subscriber still sees every row.
func TestSinkCollectLimit(t *testing.T) {
	const limit = 5
	want := runOrFail(t, serveQuery(1, false), squall.Options{}).SortedRows()
	if len(want) <= limit {
		t.Fatalf("query yields %d rows; the test needs more than %d", len(want), limit)
	}
	opt := squall.Options{CollectLimit: limit}
	check := func(what string, res *squall.Result) {
		t.Helper()
		if len(res.Rows) != limit || res.RowCount != int64(len(want)) {
			t.Fatalf("%s: retained %d rows of %d counted, want %d of %d", what, len(res.Rows), res.RowCount, limit, len(want))
		}
	}
	check("standalone", runOrFail(t, serveQuery(1, false), opt))

	eng := newServeEngine(opt, serve.SourceOptions{})
	defer eng.Close()
	h, err := eng.Register(squall.RegisterRequest{Tenant: "a", ID: "q", Query: serveQuery(1, true)})
	if err != nil {
		t.Fatal(err)
	}
	live, err := eng.Subscribe("q", serve.SubOptions{Policy: serve.CoalesceDeltas, Buf: 4})
	if err != nil {
		t.Fatal(err)
	}
	eng.Start()
	var got []squall.Tuple
	for d := range live.C() {
		got = append(got, d.Rows...)
		if d.Final {
			break
		}
	}
	sortTuples(got)
	rowsExactlyEqual(t, "subscriber", got, want)
	eng.Drain()
	res, err := h.Wait()
	if err != nil {
		t.Fatal(err)
	}
	check("served", res)
}

func sortTuples(rows []squall.Tuple) {
	sort.Slice(rows, func(i, j int) bool { return rows[i].Compare(rows[j]) < 0 })
}
