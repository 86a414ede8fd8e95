// Multi-query serving (PR 9): a long-lived Engine that accepts Register /
// Unregister of continuous JoinQuerys at runtime without restarting shared
// sources. One physical spout per named source is wire-encoded once and its
// packed frames fan out to every registered query plan (scan sharing over
// the PR 5 packed frames); per-query credit windows on the fan-out edges
// keep one slow or failing query from stalling its siblings; per-tenant
// admission control and memory budgets ride the slab's real-bytes MemSize;
// and Subscribe streams each query's result deltas to any number of
// consumers at the cost of one materialization plus fan-out.
//
// The Engine lives in the root package because it reuses the query planner
// verbatim: a registered query is planned exactly as JoinQuery.Run would
// plan it, with the shared source's tap spout substituted for the private
// scan. The query-shape-agnostic machinery lives in internal/serve.
package squall

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"squall/internal/dataflow"
	"squall/internal/serve"
	"squall/internal/slab"
)

// Serving-registry errors (admission errors are serve.ErrBudgetExceeded /
// *serve.BudgetError).
var (
	ErrEngineClosed   = errors.New("squall: serving engine closed")
	ErrUnknownSource  = errors.New("squall: unknown shared source")
	ErrUnknownQuery   = errors.New("squall: unknown query")
	ErrDuplicateQuery = errors.New("squall: query id already registered")
)

// EngineOptions configures a serving engine.
type EngineOptions struct {
	// Run is the base execution Options for every registered query
	// (RegisterRequest.Options overrides per query). Cluster must be unset:
	// the serving engine is a single-process system.
	Run Options
	// Source tunes the shared-source fan-out (credit window, frame size,
	// stall timeout).
	Source serve.SourceOptions
	// MemCapBytes, when > 0, is the engine-wide resident-state budget (PR
	// 10). Every registered query's tiered arenas charge one shared pressure
	// ladder: as residency approaches the cap, cold segments spill; when
	// spilling cannot keep up, sources throttle; at the cap, new
	// registrations are rejected with a *serve.BudgetError until pressure
	// drops. Implies tiered state (Options.Tier defaults apply when the base
	// Run options leave Tier nil).
	MemCapBytes int64
}

// Engine is a long-lived multi-query serving runtime. Zero or more shared
// sources are added up front (AddSource), queries come and go at runtime
// (Register / Unregister), and Start opens the shared scans. All methods
// are safe for concurrent use.
type Engine struct {
	opts EngineOptions

	mu       sync.Mutex
	sources  map[string]*serve.SharedSource
	sizeOf   map[string]int64
	queries  map[string]*ServedQuery
	order    []string // registration order (eviction picks oldest first)
	tenants  *serve.Tenants
	pressure *slab.Pressure // engine-wide ladder (nil without MemCapBytes)
	started  bool
	closed   bool
}

// NewEngine creates an idle engine.
func NewEngine(opts EngineOptions) *Engine {
	e := &Engine{
		opts:    opts,
		sources: make(map[string]*serve.SharedSource),
		sizeOf:  make(map[string]int64),
		queries: make(map[string]*ServedQuery),
		tenants: serve.NewTenants(),
	}
	if opts.MemCapBytes > 0 {
		e.pressure = slab.NewPressure(opts.MemCapBytes)
	}
	return e
}

// Pressure exposes the engine-wide degradation ladder (nil unless
// MemCapBytes is set); health endpoints report its stats.
func (e *Engine) Pressure() *slab.Pressure { return e.pressure }

// AddSource registers one shared scan. Queries whose Source entry names it
// with a nil Spout are fanned out from this one physical spout; size fills
// in the optimizer's cardinality estimate for queries that leave Size zero.
func (e *Engine) AddSource(name string, spout dataflow.SpoutFactory, size int64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.sources[name] = serve.NewSharedSource(name, spout, e.opts.Source)
	e.sizeOf[name] = size
}

// SetTenantBudget installs (or replaces) a tenant's budget. Existing
// queries keep running; the budget binds future admissions.
func (e *Engine) SetTenantBudget(tenant string, b serve.Budget) {
	e.tenants.SetBudget(tenant, b)
}

// TenantUsage reports a tenant's resident bytes and registered query count.
func (e *Engine) TenantUsage(tenant string) (bytes int64, queries int) {
	return e.tenants.Usage(tenant)
}

// Start opens every shared source. Queries registered before Start observe
// each source's full stream; queries registered after join mid-stream (or
// are refused once the source has drained).
func (e *Engine) Start() {
	e.mu.Lock()
	e.started = true
	srcs := make([]*serve.SharedSource, 0, len(e.sources))
	for _, s := range e.sources {
		srcs = append(srcs, s)
	}
	e.mu.Unlock()
	for _, s := range srcs {
		s.Start()
	}
}

// Drain blocks until every currently registered query has finished (the
// shared sources must have been started, or private-source queries must
// terminate on their own).
func (e *Engine) Drain() {
	e.mu.Lock()
	qs := make([]*ServedQuery, 0, len(e.queries))
	for _, q := range e.queries {
		qs = append(qs, q)
	}
	e.mu.Unlock()
	for _, q := range qs {
		<-q.done
	}
}

// Close stops the shared sources, cancels every registered query and waits
// for them. The engine refuses further registrations.
func (e *Engine) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	srcs := make([]*serve.SharedSource, 0, len(e.sources))
	for _, s := range e.sources {
		srcs = append(srcs, s)
	}
	qs := make([]*ServedQuery, 0, len(e.queries))
	for _, q := range e.queries {
		qs = append(qs, q)
	}
	e.mu.Unlock()
	for _, s := range srcs {
		s.Close()
	}
	for _, q := range qs {
		q.cancelRun()
		<-q.done
	}
}

// RegisterRequest describes one query registration.
type RegisterRequest struct {
	Tenant string
	ID     string
	Query  *JoinQuery
	// Options overrides the engine's base execution options for this query
	// (nil = engine default). Cluster must be unset.
	Options *Options
	// Evict lets the registration evict the tenant's own oldest queries to
	// fit its budget; without it an over-budget tenant is rejected outright.
	// If evicting everything still leaves the tenant over budget the
	// registration is rejected (evict-and-reject).
	Evict bool
}

// Register plans and launches a query. Source entries with a nil Spout are
// bound to the engine's shared source of the same name (scan sharing);
// entries that carry their own Spout run private scans exactly as
// JoinQuery.Run would. The returned handle reports status and results;
// admission failures return a *serve.BudgetError (errors.Is
// serve.ErrBudgetExceeded).
func (e *Engine) Register(req RegisterRequest) (*ServedQuery, error) {
	if req.Query == nil {
		return nil, fmt.Errorf("squall: Register: nil query")
	}
	if req.Tenant == "" {
		req.Tenant = "default"
	}
	for {
		sq, retry, err := e.tryRegister(req)
		if err == nil {
			return sq, nil
		}
		if !retry {
			return nil, err
		}
	}
}

// tryRegister performs one admission + plan attempt; retry=true means an
// eviction freed room and the caller should try again.
func (e *Engine) tryRegister(req RegisterRequest) (sq *ServedQuery, retry bool, err error) {
	// Ladder stage 3: resident state is at the engine-wide cap and spilling
	// has not relieved it — shed new work before it makes things worse.
	// Existing queries keep running (degradation, not collapse).
	if e.pressure != nil && e.pressure.Stage() >= slab.PressureReject {
		return nil, false, &serve.BudgetError{
			Tenant: req.Tenant,
			Used:   e.pressure.ResidentBytes(),
			Budget: serve.Budget{MaxBytes: e.pressure.Cap()},
		}
	}
	if err := e.tenants.Admit(req.Tenant); err != nil {
		if req.Evict && errors.Is(err, serve.ErrBudgetExceeded) {
			if victim := e.oldestQueryOf(req.Tenant); victim != "" {
				e.tenants.NoteEviction(req.Tenant)
				if uerr := e.Unregister(victim); uerr == nil {
					return nil, true, err
				}
			}
		}
		return nil, false, err
	}
	sq, err = e.launch(req)
	if err != nil {
		e.tenants.Release(req.Tenant)
		return nil, false, err
	}
	return sq, false, nil
}

func (e *Engine) oldestQueryOf(tenant string) string {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, id := range e.order {
		if q := e.queries[id]; q != nil && q.Tenant == tenant {
			return id
		}
	}
	return ""
}

// launch binds shared sources, plans the query and starts its run.
func (e *Engine) launch(req RegisterRequest) (*ServedQuery, error) {
	opt := e.opts.Run
	if req.Options != nil {
		opt = *req.Options
	}
	if opt.Cluster != nil {
		return nil, fmt.Errorf("squall: Register: cluster runs cannot be served in-process")
	}
	if e.pressure != nil {
		// Engine-wide cap: every query's arenas run tiered and charge the
		// one shared ladder (copy the options so the base Run/request
		// options are never mutated).
		t := TierOptions{}
		if opt.Tier != nil {
			t = *opt.Tier
		}
		t.pressure = e.pressure
		opt.Tier = &t
	}

	sq := &ServedQuery{
		ID:     req.ID,
		Tenant: req.Tenant,
		hub:    serve.NewHub(),
		cancel: make(chan struct{}),
		done:   make(chan struct{}),
		status: QueryRunning,
	}

	// Substitute a fan-out tap for every shared source. The tap applies the
	// query's Pre itself (per query — the scan is shared, the selection is
	// not) and is installed raw: plan() must not re-wrap it.
	q2 := *req.Query
	q2.Sources = append([]Source(nil), req.Query.Sources...)
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, ErrEngineClosed
	}
	if _, dup := e.queries[req.ID]; dup || req.ID == "" {
		e.mu.Unlock()
		return nil, fmt.Errorf("squall: Register %q: %w", req.ID, ErrDuplicateQuery)
	}
	var taps []*serve.Tap
	detach := func() {
		for _, t := range taps {
			t.Detach()
		}
	}
	for i := range q2.Sources {
		s := &q2.Sources[i]
		if s.Spout != nil {
			continue // private scan: planned exactly as in a standalone run
		}
		src := e.sources[s.Name]
		if src == nil {
			e.mu.Unlock()
			detach()
			return nil, fmt.Errorf("squall: Register %q: source %s: %w", req.ID, s.Name, ErrUnknownSource)
		}
		tap, err := src.Attach()
		if err != nil {
			e.mu.Unlock()
			detach()
			return nil, fmt.Errorf("squall: Register %q: %w", req.ID, err)
		}
		taps = append(taps, tap)
		s.Spout = serve.TapSpout(tap, s.Pre, sq.sourceFailed)
		s.raw = true
		if s.Size == 0 {
			s.Size = e.sizeOf[s.Name]
		}
	}
	e.mu.Unlock()
	sq.taps = taps

	p, err := q2.plan(opt)
	if err != nil {
		detach()
		return nil, err
	}
	p.sink.notify = sq.hub.Publish
	p.dopts.Cancel = sq.cancel

	// Per-tenant accounting: one gauge per (component, task), charged from
	// the executor's memory observer into the tenant's meter. The charge is
	// held until Unregister — a registered query's materialized results stay
	// resident for late subscribers.
	meter := e.tenants.Meter(req.Tenant)
	gaugesByComp := make(map[string][]*slab.Gauge)
	for _, c := range p.topo.Components() {
		gs := make([]*slab.Gauge, p.topo.Parallelism(c))
		for i := range gs {
			gs[i] = meter.Gauge()
			sq.gauges = append(sq.gauges, gs[i])
		}
		gaugesByComp[c] = gs
	}
	p.dopts.MemObserver = func(comp string, task int, bytes int64) {
		if gs := gaugesByComp[comp]; task < len(gs) {
			gs[task].Set(bytes)
		}
	}
	// Spilled state stays on the tenant's books (it owns the disk bytes) but
	// is never charged against MaxBytes, which caps RAM.
	p.dopts.SpillObserver = func(comp string, task int, bytes int64) {
		if gs := gaugesByComp[comp]; task < len(gs) {
			gs[task].SetSpilled(bytes)
		}
	}
	sq.plan = p

	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		detach()
		return nil, ErrEngineClosed
	}
	if _, dup := e.queries[req.ID]; dup {
		e.mu.Unlock()
		detach()
		return nil, fmt.Errorf("squall: Register %q: %w", req.ID, ErrDuplicateQuery)
	}
	e.queries[req.ID] = sq
	e.order = append(e.order, req.ID)
	e.mu.Unlock()

	go sq.run()
	return sq, nil
}

// Unregister cancels a query's run (if still going), detaches its taps,
// releases its tenant charge and removes it from the registry.
func (e *Engine) Unregister(id string) error {
	e.mu.Lock()
	sq := e.queries[id]
	if sq == nil {
		e.mu.Unlock()
		return fmt.Errorf("squall: Unregister %q: %w", id, ErrUnknownQuery)
	}
	delete(e.queries, id)
	for i, qid := range e.order {
		if qid == id {
			e.order = append(e.order[:i], e.order[i+1:]...)
			break
		}
	}
	e.mu.Unlock()

	sq.cancelRun()
	<-sq.done
	for _, g := range sq.gauges {
		g.Release()
	}
	e.tenants.Release(sq.Tenant)
	return nil
}

// Query looks up a registered query's handle by id.
func (e *Engine) Query(id string) (*ServedQuery, error) {
	e.mu.Lock()
	sq := e.queries[id]
	e.mu.Unlock()
	if sq == nil {
		return nil, fmt.Errorf("squall: Query %q: %w", id, ErrUnknownQuery)
	}
	return sq, nil
}

// Subscribe attaches a result consumer to a registered query: the rows
// materialized so far arrive as a replay delta, then every new batch is
// pushed as it lands in the sink. The rows slice inside each delta is
// shared read-only among subscribers. A delta racing the subscription
// itself may be duplicated between replay and push — consumers needing
// exact-once delivery should dedup on content.
func (e *Engine) Subscribe(id string, o serve.SubOptions) (*serve.Subscription, error) {
	e.mu.Lock()
	sq := e.queries[id]
	e.mu.Unlock()
	if sq == nil {
		return nil, fmt.Errorf("squall: Subscribe %q: %w", id, ErrUnknownQuery)
	}
	return sq.hub.Subscribe(o, sq.plan.sink.snapshot()), nil
}

// QueryStatus is a served query's lifecycle state.
type QueryStatus int

const (
	QueryRunning QueryStatus = iota
	QueryDone
	QueryFailed
	QueryCanceled
)

func (s QueryStatus) String() string {
	switch s {
	case QueryRunning:
		return "running"
	case QueryDone:
		return "done"
	case QueryFailed:
		return "failed"
	case QueryCanceled:
		return "canceled"
	}
	return fmt.Sprintf("QueryStatus(%d)", int(s))
}

// ServedQuery is the handle for one registered query: its run is a private
// dataflow execution (structural isolation — an erroring query aborts only
// itself), observed through Status / Wait / the subscription hub.
type ServedQuery struct {
	ID     string
	Tenant string

	plan   *queryPlan
	hub    *serve.Hub
	taps   []*serve.Tap
	gauges []*slab.Gauge

	cancel     chan struct{}
	cancelOnce sync.Once
	done       chan struct{}

	mu     sync.Mutex
	status QueryStatus
	srcErr error
	res    *Result
	err    error
}

// run executes the plan to completion and settles the handle.
func (sq *ServedQuery) run() {
	// A canceled run must also detach the taps: the tap spout blocks on the
	// fan-out channel with no abort case, so cancellation reaches it as an
	// end-of-stream (Detach), not only as the executor's abort.
	stopDetach := make(chan struct{})
	go func() {
		select {
		case <-sq.cancel:
			for _, t := range sq.taps {
				t.Detach()
			}
		case <-stopDetach:
		}
	}()
	metrics, runErr := dataflow.Run(sq.plan.topo, sq.plan.dopts)
	close(stopDetach)
	for _, t := range sq.taps {
		t.Detach()
	}
	sq.mu.Lock()
	sq.res = sq.plan.result(metrics)
	switch {
	case sq.srcErr != nil:
		// A tap failed (stall detach or per-query pipeline error): the run
		// itself ended via cancel or a truncated stream; the tap error is
		// the real verdict.
		sq.status = QueryFailed
		sq.err = sq.srcErr
	case errors.Is(runErr, dataflow.ErrCanceled):
		sq.status = QueryCanceled
		sq.err = runErr
	case runErr != nil:
		sq.status = QueryFailed
		sq.err = runErr
	default:
		sq.status = QueryDone
	}
	err := sq.err
	sq.mu.Unlock()
	sq.hub.Close(err)
	close(sq.done)
}

// sourceFailed records the first tap failure and aborts the run: the query
// is detached and reported, not fate-shared with its siblings.
func (sq *ServedQuery) sourceFailed(err error) {
	sq.mu.Lock()
	if sq.srcErr == nil {
		sq.srcErr = err
	}
	sq.mu.Unlock()
	sq.cancelRun()
}

func (sq *ServedQuery) cancelRun() {
	sq.cancelOnce.Do(func() { close(sq.cancel) })
}

// Wait blocks until the run settles and returns its result and error.
func (sq *ServedQuery) Wait() (*Result, error) {
	<-sq.done
	sq.mu.Lock()
	defer sq.mu.Unlock()
	return sq.res, sq.err
}

// Status returns the query's lifecycle state.
func (sq *ServedQuery) Status() QueryStatus {
	sq.mu.Lock()
	defer sq.mu.Unlock()
	return sq.status
}

// Err returns the settled error (nil while running or on success).
func (sq *ServedQuery) Err() error {
	sq.mu.Lock()
	defer sq.mu.Unlock()
	return sq.err
}

// Subscribers returns the query's live subscription count.
func (sq *ServedQuery) Subscribers() int { return sq.hub.SubCount() }

// Rows snapshots the result rows materialized so far (bounded by the run's
// CollectLimit). Safe to call while the query is still running.
func (sq *ServedQuery) Rows() []Tuple { return sq.plan.sink.snapshot() }

// QueryStats is one registered query's row in the engine's registry
// snapshot.
type QueryStats struct {
	ID          string `json:"id"`
	Tenant      string `json:"tenant"`
	Status      string `json:"status"`
	Rows        int64  `json:"rows"`
	Subscribers int    `json:"subscribers"`
	Err         string `json:"err,omitempty"`
}

// EngineStats is the engine's full registry snapshot: the serving
// endpoint's /queries payload.
type EngineStats struct {
	Queries []QueryStats        `json:"queries"`
	Tenants []serve.TenantStats `json:"tenants"`
	Sources []serve.SourceStats `json:"sources"`
	// Pressure is the engine-wide ladder snapshot (nil without MemCapBytes).
	Pressure *slab.PressureStats `json:"pressure,omitempty"`
}

// Stats snapshots the registry: per-query state, per-tenant usage against
// budget, per-source fan-out counters.
func (e *Engine) Stats() EngineStats {
	e.mu.Lock()
	ids := append([]string(nil), e.order...)
	qs := make([]*ServedQuery, 0, len(ids))
	for _, id := range ids {
		if q := e.queries[id]; q != nil {
			qs = append(qs, q)
		}
	}
	srcs := make([]*serve.SharedSource, 0, len(e.sources))
	for _, s := range e.sources {
		srcs = append(srcs, s)
	}
	e.mu.Unlock()

	st := EngineStats{Tenants: e.tenants.Stats()}
	if e.pressure != nil {
		ps := e.pressure.Stats()
		st.Pressure = &ps
	}
	for _, q := range qs {
		q.mu.Lock()
		row := QueryStats{
			ID:          q.ID,
			Tenant:      q.Tenant,
			Status:      q.status.String(),
			Subscribers: q.hub.SubCount(),
		}
		if q.res != nil {
			row.Rows = q.res.RowCount
		} else {
			row.Rows = q.plan.sink.rowCount()
		}
		if q.err != nil {
			row.Err = q.err.Error()
		}
		q.mu.Unlock()
		st.Queries = append(st.Queries, row)
	}
	for _, s := range srcs {
		st.Sources = append(st.Sources, s.Stats())
	}
	sort.Slice(st.Sources, func(i, j int) bool { return st.Sources[i].Name < st.Sources[j].Name })
	return st
}
