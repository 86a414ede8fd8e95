// Multi-process execution (PR 7) and cluster survivability (PR 8). A cluster
// run spreads one query's topology over squalld worker processes connected
// by TCP:
//
//   - The process calling JoinQuery.Run with Options.Cluster set is the
//     coordinator, worker 0. It owns the session: it dials every worker,
//     ships the job spec, runs its own share of the tasks, merges the
//     workers' metrics and tears the session down.
//   - Each squalld process (cmd/squalld, ServeWorker) hosts the components
//     placed on it. Workers do not receive the topology over the wire —
//     they rebuild it from a registered cluster job (name + opaque params),
//     which must deterministically reproduce the coordinator's exact query
//     and options. Shipping a name instead of a plan keeps the wire format
//     trivial and guarantees both sides run the same code.
//   - Placement is per component (never per task): all tasks of a component
//     live on one worker, so every control envelope — adaptive barriers,
//     migrations, recovery markers, peer state fetches — stays process-local
//     and only data envelopes cross sockets (see internal/dataflow/net.go).
//
// Survivability (PR 8) is a detection-and-recovery ladder:
//
//   - Detection: every session and peer link runs transport heartbeats
//     (ClusterSpec.Heartbeat/HeartbeatMiss), so a hung or partitioned peer
//     is declared lost in bounded time instead of at the next write.
//   - Transient faults: every dial — coordinator to worker, worker to peer —
//     retries with exponential backoff + jitter under an attempt budget
//     (ClusterSpec.Retry).
//   - Recovery: under ClusterPolicy Retry/Recover the coordinator classifies
//     a failed attempt (infrastructure vs job error), and re-dispatches the
//     run under a fresh attempt run-id and link epoch. Recover additionally
//     probes the workers first and reassigns a dead worker's components to
//     survivors (the coordinator absorbs them when nothing else can). Every
//     hello carries the attempt's link epoch, and workers reject stale
//     epochs, so a wandering connection from a dead attempt can never join
//     a newer one. Each attempt replans and re-runs deterministically from
//     the registered job, so a recovered run is bag-equal to a clean one and
//     exactly-once is preserved from the caller's point of view; partial
//     output of a failed attempt dies with its plan.
//   - Within one attempt, the PR 4 recovery plane still handles protected-
//     component kills; with ClusterSpec.Store set, its checkpoints live in a
//     coordinator-served store reachable from every worker over the session
//     link, so checkpoints survive the process that wrote them.
//
// Session wire protocol, all kinds at or above transport.KindUser (the
// dataflow plane owns everything below):
//
//	coordinator -> worker: job spec JSON, then (after the run) bye
//	worker -> coordinator: ready once its plane is wired, then done with a
//	    metrics snapshot JSON, or failed with an error string (A=1 when the
//	    failure is infrastructure, not the job)
//	worker -> coordinator: checkpoint put/get against the shared store;
//	    coordinator -> worker: the response (B echoes the request id)
//
// The job connection doubles as the coordinator<->worker dataflow link, and
// workers dial each other directly (lower index listens, higher dials) for
// the remaining links. The ready exchange happens before the coordinator
// builds its NetPlane — the plane owns reading from construction on, so the
// session layer reads directly off the connection only until then.
package squall

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"syscall"
	"time"

	"squall/internal/dataflow"
	"squall/internal/recovery"
	"squall/internal/transport"
)

// Session message kinds (>= transport.KindUser).
const (
	kindJob      = transport.KindUser + iota // coordinator -> worker: jobSpec JSON
	kindReady                                // worker -> coordinator: plane wired, run starting
	kindDone                                 // worker -> coordinator: run finished, MetricsSnapshot JSON
	kindFailed                               // worker -> coordinator: error string (A=1: infrastructure)
	kindBye                                  // coordinator -> worker: session over, tear down
	kindCkptPut                              // worker -> coordinator: store checkpoint (Stream=component A=task B=req)
	kindCkptGet                              // worker -> coordinator: fetch checkpoint (Stream=component A=task B=req)
	kindCkptResp                             // coordinator -> worker: A=status B=req Payload=blob|error
)

// Shared-store response statuses (kindCkptResp.A).
const (
	ckptErr     = 0
	ckptOK      = 1
	ckptMissing = 2
)

// ClusterPolicy decides how a cluster run responds to an infrastructure
// failure (a lost link, a dead or wedged worker, an exhausted dial budget).
// Job errors — a failing operator, a bad plan — always escalate immediately
// regardless of policy.
type ClusterPolicy int

const (
	// FateShare aborts the whole run on the first failure — the PR 7
	// behavior, kept as the differential baseline. Detection still runs, so
	// the failure is loud and bounded, but nothing is retried.
	FateShare ClusterPolicy = iota
	// Retry re-dispatches the run (fresh attempt run-id, fresh link epoch)
	// against the same worker set, up to MaxAttempts total attempts. Right
	// for transient faults: a flaky link, a partition that heals, a worker
	// restart in place.
	Retry
	// Recover probes the workers after a failure, declares the unreachable
	// ones dead, reassigns their components to the survivors (the
	// coordinator absorbs components nothing else can host) and then
	// re-dispatches. A run outlives any subset of its worker processes; if
	// every worker dies the coordinator finishes the run alone.
	Recover
)

func (p ClusterPolicy) String() string {
	switch p {
	case FateShare:
		return "FateShare"
	case Retry:
		return "Retry"
	case Recover:
		return "Recover"
	default:
		return fmt.Sprintf("ClusterPolicy(%d)", int(p))
	}
}

// ClusterSpec configures a multi-process run.
type ClusterSpec struct {
	// Workers are the listen addresses of the squalld processes; Workers[i]
	// becomes worker index i+1 (the coordinator is worker 0).
	Workers []string
	// Job names a builder registered with RegisterClusterJob in every
	// participating binary; Params is passed to it verbatim. Together they
	// must rebuild this exact query and options on each worker.
	Job    string
	Params []byte
	// Place pins components to workers (component name -> worker index).
	// Nil picks the default: sources round-robin over all workers, the
	// joiner on worker 1, everything downstream (including the sink) on the
	// coordinator. The sink must stay on worker 0 — its rows are the
	// Result. Under Recover, components pinned to a worker later declared
	// dead are reassigned to the coordinator.
	Place map[string]int
	// DialTimeout bounds each connection attempt (default 10s).
	DialTimeout time.Duration

	// Policy picks the response to infrastructure failures (default
	// FateShare: abort the run, the PR 7 baseline).
	Policy ClusterPolicy
	// MaxAttempts bounds total dispatch attempts under Retry/Recover
	// (default 3; FateShare always makes exactly one).
	MaxAttempts int
	// Heartbeat is the failure-detection ping interval on every session and
	// peer link; a peer silent for Heartbeat*HeartbeatMiss is declared
	// lost. Zero defaults to 1s with 5 misses; negative disables detection.
	Heartbeat     time.Duration
	HeartbeatMiss int
	// Retry is the dial retry/backoff budget applied to every connection
	// attempt in the session (coordinator->worker, worker->worker, and
	// recovery probes). Zero-valued fields take defaults (3 attempts, 50ms
	// base delay doubling to 2s, DialTimeout per attempt).
	Retry transport.RetryPolicy
	// Fault, when set, wraps every coordinator-dialed connection for
	// deterministic fault injection (see transport.FaultSpec) — the chaos
	// hook the cluster tests use.
	Fault *transport.FaultSpec
	// Store, when set, is served by the coordinator to every worker over
	// the session link, making checkpoint state survive the process that
	// wrote it: workers' recovery checkpoints are read and written through
	// this store instead of process-local memory. Keys are namespaced by
	// attempt, so a re-dispatched run never restores a dead attempt's
	// state.
	Store CheckpointStore
}

// attempts is the dispatch budget the policy allows.
func (spec *ClusterSpec) attempts() int {
	if spec.Policy == FateShare {
		return 1
	}
	if spec.MaxAttempts > 0 {
		return spec.MaxAttempts
	}
	return 3
}

// heartbeat resolves the failure-detection parameters.
func (spec *ClusterSpec) heartbeat() transport.Heartbeat {
	if spec.Heartbeat < 0 {
		return transport.Heartbeat{}
	}
	hb := transport.Heartbeat{Interval: spec.Heartbeat, Miss: spec.HeartbeatMiss}
	if hb.Interval == 0 {
		hb.Interval = time.Second
	}
	if hb.Miss <= 0 {
		hb.Miss = 5
	}
	return hb
}

// retry resolves the dial policy.
func (spec *ClusterSpec) retry() transport.RetryPolicy {
	rp := spec.Retry
	if rp.Attempts <= 0 {
		rp.Attempts = 3
	}
	if rp.DialTimeout <= 0 {
		rp.DialTimeout = spec.DialTimeout
	}
	return rp
}

// ClusterJob rebuilds a query from its wire parameters. The build must be
// deterministic: every worker and the coordinator must produce identical
// topologies and options, or the run is undefined.
type ClusterJob func(params []byte) (*JoinQuery, Options, error)

var clusterJobs sync.Map // name -> ClusterJob

// RegisterClusterJob makes a query constructor available to cluster
// sessions under name. Both the coordinator and every squalld binary must
// register the job (typically from the same shared package).
func RegisterClusterJob(name string, job ClusterJob) {
	if name == "" || job == nil {
		panic("squall: RegisterClusterJob needs a name and a builder")
	}
	if _, dup := clusterJobs.LoadOrStore(name, job); dup {
		panic(fmt.Sprintf("squall: cluster job %q registered twice", name))
	}
}

func lookupClusterJob(name string) (ClusterJob, bool) {
	v, ok := clusterJobs.Load(name)
	if !ok {
		return nil, false
	}
	return v.(ClusterJob), true
}

// jobSpec is the coordinator's instruction to one worker.
type jobSpec struct {
	RunID   string         `json:"run_id"`
	Worker  int            `json:"worker"`  // the recipient's index
	Workers int            `json:"workers"` // total processes, coordinator included
	Addrs   []string       `json:"addrs"`   // listen addresses of workers 1..N
	Job     string         `json:"job"`
	Params  []byte         `json:"params,omitempty"`
	Place   map[string]int `json:"place"`

	// Survivability parameters (PR 8): the attempt index doubles as the
	// link epoch, heartbeat settings arm peer links symmetrically, the
	// retry budget governs peer dials, and Shared routes recovery
	// checkpoints through the coordinator-served store.
	Attempt       int   `json:"attempt,omitempty"`
	HBInterval    int64 `json:"hb_interval,omitempty"` // ns
	HBMiss        int   `json:"hb_miss,omitempty"`
	RetryAttempts int   `json:"retry_attempts,omitempty"`
	RetryBase     int64 `json:"retry_base,omitempty"` // ns
	RetryMax      int64 `json:"retry_max,omitempty"`  // ns
	Shared        bool  `json:"shared_store,omitempty"`
}

// sessionTimeout bounds every session-layer wait (ready, done, bye, peer
// rendezvous). A var so tests can shrink it.
var sessionTimeout = 60 * time.Second

func newRunID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("squall: run id: %v", err))
	}
	return hex.EncodeToString(b[:])
}

// baseRunID strips the attempt suffix from a session run id, recovering the
// identity that link epochs are scoped to.
func baseRunID(runID string) string {
	for i := len(runID) - 1; i >= 0; i-- {
		if runID[i] == '.' {
			return runID[:i]
		}
	}
	return runID
}

// defaultPlacement spreads sources round-robin over all workers, puts the
// joiner on worker 1 and everything downstream on the coordinator.
func defaultPlacement(p *queryPlan, nSources, workers int) map[string]int {
	place := make(map[string]int, len(p.components))
	for i, c := range p.components {
		switch {
		case i < nSources:
			place[c] = i % workers
		case c == p.joiner:
			place[c] = 1 % workers
		default:
			place[c] = 0
		}
	}
	return place
}

// errTransient classifies coordinator-detected failures that a Retry/Recover
// policy may act on; see recoverableErr.
var errTransient = errors.New("transient infrastructure failure")

// recoverableErr reports whether a failed attempt may be retried or
// recovered: infrastructure failures (lost links, declared-dead peers,
// exhausted dial budgets, raw socket errors) qualify; job errors do not.
func recoverableErr(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, errTransient) || errors.Is(err, dataflow.ErrLink) || errors.Is(err, transport.ErrPeerLost) {
		return true
	}
	var ne net.Error
	if errors.As(err, &ne) {
		return true
	}
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, syscall.ECONNRESET) || errors.Is(err, syscall.ECONNREFUSED) ||
		errors.Is(err, syscall.EPIPE)
}

// runCluster drives a cluster session as its coordinator: validate once,
// then dispatch attempts under the survivability policy until one succeeds,
// the failure is permanent, or the attempt budget runs out.
func (q *JoinQuery) runCluster(opt Options) (*Result, error) {
	spec := opt.Cluster
	if len(spec.Workers) == 0 {
		return nil, fmt.Errorf("squall: cluster run needs at least one worker address")
	}
	if spec.Job == "" {
		return nil, fmt.Errorf("squall: cluster run needs a registered job name")
	}
	p, err := q.plan(opt)
	if err != nil {
		return nil, err
	}
	workers := len(spec.Workers) + 1
	if spec.Place != nil {
		for _, c := range p.components {
			w, ok := spec.Place[c]
			if !ok {
				return nil, fmt.Errorf("squall: cluster placement misses component %q", c)
			}
			if w < 0 || w >= workers {
				return nil, fmt.Errorf("squall: component %q placed on worker %d, have %d workers", c, w, workers)
			}
		}
		if spec.Place["sink"] != 0 {
			return nil, fmt.Errorf("squall: the sink must stay on the coordinator (worker 0) — its rows are the Result")
		}
	}

	st := &clusterRun{
		q: q, opt: opt, spec: spec,
		baseID: newRunID(),
		alive:  append([]string(nil), spec.Workers...),
	}
	maxAttempts := spec.attempts()
	var firstFail time.Time
	var lastErr error
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if attempt > 0 && spec.Policy == Recover {
			st.pruneDead()
		}
		res, err := st.dispatch(attempt)
		if err == nil {
			cm := &res.Metrics.Cluster
			cm.Attempts = attempt + 1
			cm.WorkersLost = st.lost
			cm.Reassigned = st.reassigned
			if !firstFail.IsZero() {
				cm.RecoveryNS = time.Since(firstFail).Nanoseconds()
			}
			return res, nil
		}
		lastErr = err
		if firstFail.IsZero() {
			firstFail = time.Now()
		}
		if !recoverableErr(err) {
			break
		}
	}
	if spec.Policy == FateShare {
		return nil, lastErr
	}
	return nil, fmt.Errorf("squall: cluster run failed under policy %v: %w", spec.Policy, lastErr)
}

// clusterRun is the coordinator's state across dispatch attempts.
type clusterRun struct {
	q    *JoinQuery
	opt  Options
	spec *ClusterSpec

	baseID     string
	alive      []string // current worker addresses, original order preserved
	lost       int
	reassigned int
}

// pruneDead probes every remaining worker with a short dial budget and drops
// the unreachable ones from the attempt's worker set.
func (st *clusterRun) pruneDead() {
	probe := transport.RetryPolicy{
		Attempts: 2, BaseDelay: 100 * time.Millisecond, DialTimeout: 2 * time.Second,
	}
	kept := st.alive[:0]
	for _, addr := range st.alive {
		c, err := transport.DialRetry(addr,
			transport.Hello{RunID: st.baseID, From: 0, Purpose: transport.PurposeProbe}, probe, nil)
		if err != nil {
			st.lost++
			continue
		}
		c.Close()
		kept = append(kept, addr)
	}
	st.alive = kept
}

// placement computes the attempt's component placement: the configured (or
// default) placement remapped onto the surviving workers, with components
// stranded on dead workers absorbed by the coordinator.
func (st *clusterRun) placement(p *queryPlan) map[string]int {
	aliveIdx := make(map[string]int, len(st.alive))
	for i, addr := range st.alive {
		aliveIdx[addr] = i + 1
	}
	orig := st.spec.Place
	if orig == nil {
		orig = defaultPlacement(p, len(st.q.Sources), len(st.spec.Workers)+1)
	}
	place := make(map[string]int, len(orig))
	for c, w := range orig {
		switch {
		case w == 0:
			place[c] = 0
		default:
			if ni, ok := aliveIdx[st.spec.Workers[w-1]]; ok {
				place[c] = ni
			} else {
				place[c] = 0 // reassigned to the coordinator
				st.reassigned++
			}
		}
	}
	return place
}

// workerNote is one session-layer message from a worker, queued off the
// plane's read loop.
type workerNote struct {
	from  int
	kind  byte
	infra bool
	body  []byte
}

// noteQueue buffers session notes unconditionally: the plane's read loop
// must never block on the session layer, and the session layer must never
// lose a worker's failure report (a dropped kindFailed would turn a precise
// error into a generic timeout).
type noteQueue struct {
	mu    sync.Mutex
	items []workerNote
	wake  chan struct{}
}

func newNoteQueue() *noteQueue { return &noteQueue{wake: make(chan struct{}, 1)} }

func (nq *noteQueue) push(n workerNote) {
	nq.mu.Lock()
	nq.items = append(nq.items, n)
	nq.mu.Unlock()
	select {
	case nq.wake <- struct{}{}:
	default:
	}
}

func (nq *noteQueue) pop() (workerNote, bool) {
	nq.mu.Lock()
	defer nq.mu.Unlock()
	if len(nq.items) == 0 {
		return workerNote{}, false
	}
	n := nq.items[0]
	nq.items = nq.items[1:]
	return n, true
}

// dispatch runs one attempt end to end and returns its result. Errors
// eligible for retry/recovery satisfy recoverableErr.
func (st *clusterRun) dispatch(attempt int) (*Result, error) {
	spec := st.spec
	// Replan per attempt: a plan's sink and state are single-use, and a
	// fresh plan discards any partial output of a failed attempt — that is
	// what keeps recovered runs exactly-once from the caller's view.
	p, err := st.q.plan(st.opt)
	if err != nil {
		return nil, err
	}
	runID := fmt.Sprintf("%s.%d", st.baseID, attempt)
	workers := len(st.alive) + 1
	if workers == 1 {
		// Every worker is dead: the coordinator absorbs the whole topology
		// and finishes alone.
		st.reassigned += len(p.components)
		return st.runLocal(p, runID)
	}
	place := st.placement(p)
	hb := spec.heartbeat()
	rp := spec.retry()

	links := make([]*transport.Conn, workers)
	closeLinks := func() {
		for _, c := range links {
			if c != nil {
				c.Close()
			}
		}
	}

	// Dial every worker and ship its job spec.
	for w := 1; w < workers; w++ {
		rpw := rp
		rpw.Seed = int64(attempt)<<16 | int64(w)
		conn, err := transport.DialRetry(st.alive[w-1],
			transport.Hello{RunID: runID, From: 0, Purpose: transport.PurposeJob, Epoch: attempt, HB: hb},
			rpw, spec.Fault)
		if err != nil {
			closeLinks()
			return nil, fmt.Errorf("squall: dialing worker %d (%s): %w (%w)", w, st.alive[w-1], err, errTransient)
		}
		conn.StartHeartbeat(hb)
		links[w] = conn
		body, err := json.Marshal(jobSpec{
			RunID: runID, Worker: w, Workers: workers,
			Addrs: st.alive, Job: spec.Job, Params: spec.Params, Place: place,
			Attempt: attempt, HBInterval: int64(hb.Interval), HBMiss: hb.Miss,
			RetryAttempts: rp.Attempts, RetryBase: int64(rp.BaseDelay), RetryMax: int64(rp.MaxDelay),
			Shared: spec.Store != nil,
		})
		if err != nil {
			closeLinks()
			return nil, fmt.Errorf("squall: encoding job spec: %w", err)
		}
		if err := conn.WriteMsg(&transport.Msg{Kind: kindJob, Payload: body}); err != nil {
			closeLinks()
			return nil, fmt.Errorf("squall: sending job to worker %d: %w (%w)", w, err, errTransient)
		}
	}

	// Collect the ready messages before constructing the plane: until then
	// this goroutine is each connection's only reader.
	for w := 1; w < workers; w++ {
		m, err := readSessionMsg(links[w], sessionTimeout)
		if err != nil {
			closeLinks()
			return nil, fmt.Errorf("squall: waiting for worker %d: %w (%w)", w, err, errTransient)
		}
		switch m.Kind {
		case kindReady:
		case kindFailed:
			closeLinks()
			err := fmt.Errorf("squall: worker %d rejected the job: %s", w, m.Payload)
			if m.A == 1 {
				err = fmt.Errorf("%w (%w)", err, errTransient)
			}
			return nil, err
		default:
			closeLinks()
			return nil, fmt.Errorf("squall: worker %d sent kind %d before ready", w, m.Kind)
		}
	}

	notes := newNoteQueue()
	plane := dataflow.NewNetPlane(dataflow.NetConfig{
		Self: 0, Workers: workers, Place: place, Links: links,
		OnPeerMsg: func(from int, m transport.Msg) {
			switch m.Kind {
			case kindDone, kindFailed:
				notes.push(workerNote{from, m.Kind, m.A == 1, append([]byte(nil), m.Payload...)})
			case kindCkptPut, kindCkptGet:
				if spec.Store != nil {
					body := append([]byte(nil), m.Payload...)
					go serveCkpt(spec.Store, links[from], m.Kind, runID, m.Stream, int(m.A), m.B, body)
				}
			}
		},
	})
	dopts := p.dopts
	dopts.Net = plane
	if spec.Store != nil && dopts.Recovery != nil {
		// The coordinator's own protected components use the shared store
		// directly, under the same attempt namespace the workers use.
		rec := *dopts.Recovery
		rec.Store = &prefixStore{prefix: runID + "/", inner: spec.Store}
		dopts.Recovery = &rec
	}

	metrics, runErr := dataflow.Run(p.topo, dopts)

	// Merge every worker's metrics so the Result reads like a single-process
	// run. On a failed run the workers aborted with us — don't wait on them.
	if runErr == nil {
		deadline := time.After(sessionTimeout)
		pending := workers - 1
		for pending > 0 && runErr == nil {
			n, ok := notes.pop()
			if !ok {
				select {
				case <-notes.wake:
				case <-deadline:
					runErr = fmt.Errorf("squall: timed out waiting for %d worker completion(s) (%w)", pending, errTransient)
				}
				continue
			}
			switch n.kind {
			case kindDone:
				var snap dataflow.MetricsSnapshot
				if err := json.Unmarshal(n.body, &snap); err != nil {
					runErr = fmt.Errorf("squall: worker %d metrics: %w", n.from, err)
					break
				}
				plane.ApplySnapshot(metrics, &snap)
				pending--
			case kindFailed:
				runErr = fmt.Errorf("squall: worker %d failed: %s", n.from, n.body)
				if n.infra {
					runErr = fmt.Errorf("%w (%w)", runErr, errTransient)
				}
			}
		}
	}

	for w := 1; w < workers; w++ {
		links[w].WriteMsg(&transport.Msg{Kind: kindBye}) // best-effort
	}
	plane.Shutdown()
	closeLinks()
	if runErr != nil {
		return nil, runErr
	}
	return p.result(metrics), nil
}

// runLocal finishes an attempt with no surviving workers: a plain
// single-process run of the already-validated plan.
func (st *clusterRun) runLocal(p *queryPlan, runID string) (*Result, error) {
	dopts := p.dopts
	if st.spec.Store != nil && dopts.Recovery != nil {
		rec := *dopts.Recovery
		rec.Store = &prefixStore{prefix: runID + "/", inner: st.spec.Store}
		dopts.Recovery = &rec
	}
	metrics, err := dataflow.Run(p.topo, dopts)
	if err != nil {
		return nil, err
	}
	return p.result(metrics), nil
}

// serveCkpt answers one worker's shared-store request on the coordinator.
// Responses ride the session link; a write failure is ignored — the worker's
// own timeout and the plane's failure detection cover a dead link.
func serveCkpt(store CheckpointStore, link *transport.Conn, kind byte, runID, component string, task int, req int64, body []byte) {
	resp := transport.Msg{Kind: kindCkptResp, B: req}
	key := runID + "/" + component
	switch kind {
	case kindCkptPut:
		ck, _, err := recovery.DecodeCheckpoint(body)
		if err == nil {
			err = store.Put(key, task, ck)
		}
		if err != nil {
			resp.A, resp.Payload = ckptErr, []byte(err.Error())
		} else {
			resp.A = ckptOK
		}
	case kindCkptGet:
		ck, ok, err := store.Get(key, task)
		switch {
		case err != nil:
			resp.A, resp.Payload = ckptErr, []byte(err.Error())
		case !ok:
			resp.A = ckptMissing
		default:
			resp.A, resp.Payload = ckptOK, recovery.AppendCheckpoint(nil, ck)
		}
	}
	link.WriteMsg(&resp)
}

// prefixStore namespaces checkpoint keys by attempt run-id so a
// re-dispatched run can never restore a dead attempt's state.
type prefixStore struct {
	prefix string
	inner  CheckpointStore
}

func (s *prefixStore) Put(component string, task int, ck *recovery.Checkpoint) error {
	return s.inner.Put(s.prefix+component, task, ck)
}

func (s *prefixStore) Get(component string, task int) (*recovery.Checkpoint, bool, error) {
	return s.inner.Get(s.prefix+component, task)
}

// readSessionMsg reads one message with a deadline, from a connection this
// goroutine exclusively reads. The deadline rides the connection itself
// (transport.Conn.SetReadDeadline), so a timeout leaves no goroutine behind
// and no message is lost: a late message stays buffered in the connection
// for the next reader instead of vanishing into an abandoned reader.
func readSessionMsg(c *transport.Conn, timeout time.Duration) (*transport.Msg, error) {
	c.SetReadDeadline(time.Now().Add(timeout))
	defer c.SetReadDeadline(time.Time{})
	var m transport.Msg
	if err := c.ReadMsg(&m); err != nil {
		if isNetTimeout(err) && !errors.Is(err, transport.ErrPeerLost) {
			return nil, fmt.Errorf("timed out after %v", timeout)
		}
		return nil, err
	}
	m.Payload = append([]byte(nil), m.Payload...)
	return &m, nil
}

func isNetTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}
