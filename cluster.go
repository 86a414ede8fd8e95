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
//     trivial and guarantees both sides run the same code; the job spec
//     carries the coordinator's Plan.Fingerprint, and a worker whose own
//     plan differs refuses the session with a *PlanMismatchError.
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
//   - Recovery: under ClusterPolicy Recover the coordinator classifies a
//     failed attempt (infrastructure vs job error), probes the workers,
//     reassigns a dead worker's components to survivors (the coordinator
//     absorbs them when nothing else can) and re-dispatches the run under a
//     fresh attempt run-id and link epoch. A transient fault — a flaky link,
//     a partition that heals — leaves every worker alive, so the probe keeps
//     them all and the re-dispatch runs on the same worker set. Every
//     hello carries the attempt's link epoch, and workers reject stale
//     epochs, so a wandering connection from a dead attempt can never join
//     a newer one. Each attempt builds afresh from the one decided Plan and
//     re-runs deterministically, so a recovered run is bag-equal to a clean
//     one and exactly-once is preserved from the caller's point of view;
//     partial output of a failed attempt dies with its build.
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
// builds its NetPlane — the plane owns reading once its run binds it, so the
// session layer reads directly off the connection only until then.
package squall

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
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
	// Recover probes the workers after a failure, declares the unreachable
	// ones dead, reassigns their components to the survivors (the
	// coordinator absorbs components nothing else can host) and then
	// re-dispatches (fresh attempt run-id, fresh link epoch), up to
	// MaxAttempts total attempts. After a transient fault — a flaky link, a
	// partition that heals, a worker restart in place — every probe
	// answers and the run re-dispatches onto the same worker set. A run
	// outlives any subset of its worker processes; if every worker dies the
	// coordinator finishes the run alone.
	Recover
)

func (p ClusterPolicy) String() string {
	switch p {
	case FateShare:
		return "FateShare"
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

	// Policy picks the response to infrastructure failures (default
	// FateShare: abort the run, the PR 7 baseline).
	Policy ClusterPolicy
	// MaxAttempts bounds total dispatch attempts under Recover (default 3;
	// FateShare always makes exactly one).
	MaxAttempts int
	// Heartbeat is the failure-detection ping interval on every session and
	// peer link; a peer silent for Heartbeat*HeartbeatMiss is declared
	// lost. Zero defaults to 1s with 5 misses; negative disables detection.
	Heartbeat     time.Duration
	HeartbeatMiss int
	// Retry is the dial retry/backoff budget applied to every connection
	// attempt in the session (coordinator->worker, worker->worker, and
	// recovery probes). Zero-valued fields take defaults (3 attempts, 50ms
	// base delay doubling to 2s, a 10s DialTimeout per attempt).
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
	Attempt int                   `json:"attempt,omitempty"`
	HB      transport.Heartbeat   `json:"hb"`
	Retry   transport.RetryPolicy `json:"retry"`
	Shared  bool                  `json:"shared_store,omitempty"`

	// Plan is the coordinator's Plan.Fingerprint; a worker whose own plan
	// differs refuses the session instead of computing a different join.
	Plan string `json:"plan"`
}

// failPlanMismatch (kindFailed.B) marks a payload holding the worker's plan
// fingerprint, which differs from the job spec's.
const failPlanMismatch = 1

// PlanMismatchError reports a cluster worker whose plan, rebuilt from the
// job, differs from the coordinator's; a job error, never retried.
type PlanMismatchError struct {
	Worker      int
	Coordinator string // the coordinator's Plan.Fingerprint
	Rebuilt     string // the worker's
}

func (e *PlanMismatchError) Error() string {
	return fmt.Sprintf("squall: worker %d rebuilt plan %s from the job, the coordinator planned %s", e.Worker, e.Rebuilt, e.Coordinator)
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

// errTransient classifies coordinator-detected failures that the Recover
// policy may act on; see recoverableErr.
var errTransient = errors.New("transient infrastructure failure")

// recoverableErr reports whether a failed attempt may be recovered:
// coordinator-detected transient failures (exhausted dial budgets, missing
// completions) and infrastructure failures as dataflow.IsInfra classifies
// them qualify; job errors do not.
func recoverableErr(err error) bool {
	return errors.Is(err, errTransient) || dataflow.IsInfra(err)
}

// runCluster drives a cluster session as its coordinator: the plan is
// decided once, then attempts are dispatched under the survivability
// policy until one succeeds, the failure is permanent, or the attempt
// budget runs out.
func runCluster(p *Plan) (*Result, error) {
	spec := p.opt.Cluster
	if len(spec.Workers) == 0 {
		return nil, fmt.Errorf("squall: cluster run needs at least one worker address")
	}
	if spec.Job == "" {
		return nil, fmt.Errorf("squall: cluster run needs a registered job name")
	}
	workers := len(spec.Workers) + 1
	if spec.Place != nil {
		for _, c := range p.Components {
			w, ok := spec.Place[c.Name]
			if !ok {
				return nil, fmt.Errorf("squall: cluster placement misses component %q", c.Name)
			}
			if w < 0 || w >= workers {
				return nil, fmt.Errorf("squall: component %q placed on worker %d, have %d workers", c.Name, w, workers)
			}
		}
		if spec.Place["sink"] != 0 {
			return nil, fmt.Errorf("squall: the sink must stay on the coordinator (worker 0) — its rows are the Result")
		}
	}

	st := &clusterRun{
		plan: p, fingerprint: p.Fingerprint(), spec: spec,
		baseID: newRunID(),
		alive:  append([]string(nil), spec.Workers...),
	}
	maxAttempts := spec.attempts()
	var firstFail time.Time
	var lastErr error
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if attempt > 0 {
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
	plan        *Plan
	fingerprint string
	spec        *ClusterSpec

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

// placement computes the attempt's component placement, the configured one
// or by default the sources round-robin over all workers, the joiner on
// worker 1 and everything downstream on the coordinator, remapped onto the
// surviving workers: the coordinator absorbs components stranded on dead
// ones.
func (st *clusterRun) placement() map[string]int {
	aliveIdx := make(map[string]int, len(st.alive))
	for i, addr := range st.alive {
		aliveIdx[addr] = i + 1
	}
	workers := len(st.spec.Workers) + 1
	place := make(map[string]int, len(st.plan.Components))
	for i, c := range st.plan.Components {
		w, ok := st.spec.Place[c.Name]
		if !ok && len(c.Inputs) == 0 { // a source; a plan lists them first
			w = i % workers
		} else if !ok && c.Name == joiner {
			w = 1 % workers
		}
		if w > 0 {
			var alive bool
			if w, alive = aliveIdx[st.spec.Workers[w-1]]; !alive {
				st.reassigned++ // w is 0: the coordinator's
			}
		}
		place[c.Name] = w
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

// dispatch runs one attempt end to end and returns its result. Errors
// eligible for retry/recovery satisfy recoverableErr.
func (st *clusterRun) dispatch(attempt int) (*Result, error) {
	spec := st.spec
	// Build per attempt: a sink and its state are single-use, and a fresh
	// build discards any partial output of a failed attempt — that is what
	// keeps recovered runs exactly-once from the caller's view. With a
	// shared store, the coordinator's own protected components use it
	// directly, under the same attempt namespace the workers use.
	runID := fmt.Sprintf("%s.%d", st.baseID, attempt)
	var env buildEnv
	if spec.Store != nil {
		env.ckpt = &prefixStore{prefix: runID + "/", inner: spec.Store}
	}
	x, err := build(st.plan, env)
	if err != nil {
		return nil, err
	}
	defer x.close()
	workers := len(st.alive) + 1
	if workers == 1 {
		// Every worker is dead: the coordinator absorbs the whole topology
		// and finishes alone.
		st.reassigned += len(st.plan.Components)
		metrics, err := dataflow.Run(x.topo, x.dopts)
		if err != nil {
			return nil, err
		}
		return x.result(metrics), nil
	}
	place := st.placement()
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
			Attempt: attempt, HB: hb, Retry: rp, Shared: spec.Store != nil, Plan: st.fingerprint,
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
			if m.B == failPlanMismatch {
				return nil, &PlanMismatchError{Worker: w, Coordinator: st.fingerprint, Rebuilt: string(m.Payload)}
			}
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

	// A worker reports once per attempt, done or failed, so the queue holds
	// every report and the plane's read loop never blocks on it: a dropped
	// kindFailed would turn a precise error into a generic timeout.
	notes := make(chan workerNote, workers)
	plane := dataflow.NewNetPlane(dataflow.NetConfig{
		Self: 0, Workers: workers, Place: place, Links: links,
		OnPeerMsg: func(from int, m transport.Msg) {
			switch m.Kind {
			case kindDone, kindFailed:
				select {
				case notes <- workerNote{from, m.Kind, m.A == 1, append([]byte(nil), m.Payload...)}:
				default:
				}
			case kindCkptPut, kindCkptGet:
				if spec.Store != nil {
					body := append([]byte(nil), m.Payload...)
					go serveCkpt(spec.Store, links[from], m.Kind, runID, m.Stream, int(m.A), m.B, body)
				}
			}
		},
	})
	x.dopts.Net = plane
	metrics, runErr := dataflow.Run(x.topo, x.dopts)

	// Merge every worker's metrics so the Result reads like a single-process
	// run. On a failed run the workers aborted with us — don't wait on them.
	if runErr == nil {
		deadline := time.After(sessionTimeout)
		pending := workers - 1
		for pending > 0 && runErr == nil {
			var n workerNote
			select {
			case n = <-notes:
			case <-deadline:
				runErr = fmt.Errorf("squall: timed out waiting for %d worker completion(s) (%w)", pending, errTransient)
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
	return x.result(metrics), nil
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
