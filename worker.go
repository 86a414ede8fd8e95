// Worker side of a cluster session (see cluster.go for the protocol). A
// WorkerServer accepts coordinator and peer connections, rebuilds the job's
// plan from the cluster-job registry, checks it against the coordinator's
// fingerprint, runs its share of the topology and reports metrics back.
// One server hosts any number of concurrent sessions, keyed by run id.
//
// Survivability duties (PR 8): every accepted link arms the heartbeat the
// dialer's hello carries, hellos with a stale link epoch are rejected (a
// re-dispatched attempt must never be joined by a connection from a dead
// one), peer dials retry with backoff under the coordinator's budget, and
// failure reports distinguish infrastructure faults from job errors so the
// coordinator's policy can retry the former.
package squall

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"squall/internal/dataflow"
	"squall/internal/recovery"
	"squall/internal/slab"
	"squall/internal/transport"
)

// WorkerServer hosts cluster sessions on one listener.
type WorkerServer struct {
	ln net.Listener

	mu       sync.Mutex
	sessions map[string]chan peerDelivery // runID -> rendezvous for peer links
	parked   map[string][]peerDelivery    // peer links that beat their job spec
	info     map[string]*sessionInfo      // runID -> live session state for healthz
	epochs   map[string]int               // base run id -> newest link epoch seen
	active   int
	served   int64
	failed   int64
	stale    int64 // connections rejected for a stale epoch
	closed   bool
	// pressure, when set (SetMemCap), is the process-wide degradation ladder
	// (PR 10): every session's tiered arenas charge it, /healthz reports it,
	// and /readyz degrades once the ladder passes Backpressure — an external
	// balancer should stop routing new jobs here before registrations start
	// bouncing.
	pressure *slab.Pressure
}

// sessionInfo is one live session's observable state.
type sessionInfo struct {
	runID   string
	job     string
	worker  int
	attempt int
	started time.Time
	links   []*transport.Conn
}

// peerDelivery hands an accepted worker->worker connection to its session.
type peerDelivery struct {
	from int
	conn *transport.Conn
	at   time.Time
}

// NewWorkerServer wraps a listener; call Serve to start accepting.
func NewWorkerServer(ln net.Listener) *WorkerServer {
	return &WorkerServer{
		ln:       ln,
		sessions: make(map[string]chan peerDelivery),
		parked:   make(map[string][]peerDelivery),
		info:     make(map[string]*sessionInfo),
		epochs:   make(map[string]int),
	}
}

// ServeWorker accepts cluster connections on ln until it is closed. Each
// job connection runs its session on its own goroutine; the call returns
// the listener's accept error.
func ServeWorker(ln net.Listener) error { return NewWorkerServer(ln).Serve() }

// Serve runs the accept loop until the listener closes.
func (s *WorkerServer) Serve() error {
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			return err
		}
		go s.handshake(nc)
	}
}

// Close stops the server: the listener closes (Serve returns) and every live
// session link is torn down, so in-process chaos tests and benches can kill
// a worker the way SIGKILL kills a squalld.
func (s *WorkerServer) Close() error {
	err := s.ln.Close()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return err
	}
	s.closed = true
	var conns []*transport.Conn
	for _, si := range s.info {
		conns = append(conns, si.links...)
	}
	for _, ds := range s.parked {
		for _, d := range ds {
			conns = append(conns, d.conn)
		}
	}
	s.mu.Unlock()
	for _, c := range conns {
		if c != nil {
			c.Close()
		}
	}
	return err
}

// admitEpoch records the newest link epoch seen for a base run and reports
// whether a hello at epoch is current. Older epochs are stale: their attempt
// is dead, and admitting the connection would desynchronize a newer one.
func (s *WorkerServer) admitEpoch(base string, epoch int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if cur, ok := s.epochs[base]; ok && epoch < cur {
		s.stale++
		return false
	} else if !ok && len(s.epochs) > 1<<14 {
		// A long-lived worker sees unbounded base run ids; cap the map by
		// forgetting everything (worst case: one stale link per old run
		// admitted, which the session layer then rejects as a duplicate).
		s.epochs = make(map[string]int)
	}
	s.epochs[base] = epoch // not below the newest epoch seen, or the first
	return true
}

func (s *WorkerServer) handshake(nc net.Conn) {
	if tc, ok := nc.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	conn := transport.NewConn(nc)
	h, err := conn.ReadHello(sessionTimeout)
	if err != nil {
		conn.Close()
		return
	}
	if h.Purpose == transport.PurposeProbe {
		conn.Close() // a liveness probe: the completed handshake is the answer
		return
	}
	if !s.admitEpoch(baseRunID(h.RunID), h.Epoch) {
		if h.Purpose == transport.PurposeJob {
			failSession(conn, fmt.Errorf("stale link epoch %d for run %s", h.Epoch, baseRunID(h.RunID)))
		} else {
			conn.Close()
		}
		return
	}
	// Arm detection symmetrically with whatever the dialer runs.
	conn.StartHeartbeat(h.HB)
	switch h.Purpose {
	case transport.PurposeJob:
		go s.runSession(conn, h)
	case transport.PurposePeer:
		s.deliverPeer(h, conn)
	default:
		conn.Close()
	}
}

// deliverPeer routes an accepted peer link to its session, parking it when
// the session's own job spec has not arrived yet (job and peer connections
// race — the coordinator fans specs out concurrently).
func (s *WorkerServer) deliverPeer(h transport.Hello, conn *transport.Conn) {
	d := peerDelivery{from: h.From, conn: conn, at: time.Now()}
	s.mu.Lock()
	if ch, ok := s.sessions[h.RunID]; ok {
		s.mu.Unlock()
		select {
		case ch <- d:
		default:
			conn.Close() // session's rendezvous full: protocol violation
		}
		return
	}
	s.parked[h.RunID] = append(s.parked[h.RunID], d)
	s.purgeParkedLocked()
	s.mu.Unlock()
}

// purgeParkedLocked drops parked peer links whose session never arrived —
// orphans of an attempt that died between the peer dial and the job spec.
func (s *WorkerServer) purgeParkedLocked() {
	cutoff := time.Now().Add(-sessionTimeout)
	for run, ds := range s.parked {
		kept := ds[:0]
		for _, d := range ds {
			if d.at.Before(cutoff) {
				d.conn.Close()
			} else {
				kept = append(kept, d)
			}
		}
		if len(kept) == 0 {
			delete(s.parked, run)
		} else {
			s.parked[run] = kept
		}
	}
}

// openRendezvous claims the peer-delivery channel for one run, draining any
// links that arrived early.
func (s *WorkerServer) openRendezvous(runID string, capacity int) (chan peerDelivery, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.sessions[runID]; dup {
		return nil, fmt.Errorf("run %q already has a session here", runID)
	}
	ch := make(chan peerDelivery, capacity)
	for _, d := range s.parked[runID] {
		ch <- d
	}
	delete(s.parked, runID)
	s.sessions[runID] = ch
	s.active++
	s.served++
	return ch, nil
}

func (s *WorkerServer) closeRendezvous(runID string) {
	s.mu.Lock()
	ch := s.sessions[runID]
	delete(s.sessions, runID)
	delete(s.info, runID)
	s.active--
	s.mu.Unlock()
	if ch != nil {
		for {
			select {
			case d := <-ch:
				d.conn.Close()
			default:
				return
			}
		}
	}
}

// registerSession publishes a live session's links for health reporting.
func (s *WorkerServer) registerSession(si *sessionInfo) {
	s.mu.Lock()
	s.info[si.runID] = si
	s.mu.Unlock()
}

// SetMemCap installs a process-wide resident-state budget: sessions run
// their slab state tiered against one shared pressure ladder (spill →
// throttle → reject), and the health endpoints report the ladder's stage.
// Call before Serve.
func (s *WorkerServer) SetMemCap(bytes int64) {
	s.mu.Lock()
	if bytes > 0 {
		s.pressure = slab.NewPressure(bytes)
	} else {
		s.pressure = nil
	}
	s.mu.Unlock()
}

// healthSnapshot builds the liveness + readiness report. A worker is ready
// when every heartbeat-armed link of every live session has seen traffic
// within twice its detection window; a stalled link means a wedged or
// partitioned process an external supervisor should restart. A pressure
// ladder past Backpressure also drops readiness: the node still serves its
// sessions but should not be handed new work.
func (s *WorkerServer) healthSnapshot() (map[string]any, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := time.Now()
	ready := !s.closed
	sessions := make([]map[string]any, 0, len(s.info))
	jobs := make(map[string]int)
	for _, si := range s.info {
		if si.job != "" {
			jobs[si.job]++
		}
		links := make([]map[string]any, 0, len(si.links))
		for w, c := range si.links {
			if c == nil {
				continue
			}
			age := now.Sub(c.LastRead())
			win := c.HeartbeatWindow()
			links = append(links, map[string]any{
				"worker":       w,
				"last_read_ms": age.Milliseconds(),
				"window_ms":    win.Milliseconds(),
			})
			if win > 0 && age > 2*win {
				ready = false
			}
		}
		sessions = append(sessions, map[string]any{
			"run":     si.runID,
			"job":     si.job,
			"worker":  si.worker,
			"attempt": si.attempt,
			"age_ms":  now.Sub(si.started).Milliseconds(),
			"links":   links,
		})
	}
	snap := map[string]any{
		"ok":              true,
		"ready":           ready,
		"active_sessions": s.active,
		"served_sessions": s.served,
		"failed_sessions": s.failed,
		"stale_rejected":  s.stale,
		"jobs":            jobs,
		"sessions":        sessions,
	}
	if s.pressure != nil {
		snap["pressure"] = s.pressure.Stats()
		if s.pressure.Stage() >= slab.PressureBackpressure {
			ready = false
			snap["ready"] = false
		}
	}
	return snap, ready
}

// Healthz returns an HTTP handler reporting liveness plus per-session,
// per-link heartbeat detail — the probe target for cmd/squalld's -healthz
// listener. It always answers 200 while the process lives; readiness is the
// "ready" field (and the Readyz handler's status code).
func (s *WorkerServer) Healthz() http.Handler { return s.health(false) }

// Readyz returns an HTTP handler answering 200 only while every live
// session's links are seeing heartbeat traffic — 503 means wedged, and an
// external supervisor should restart the process.
func (s *WorkerServer) Readyz() http.Handler { return s.health(true) }

func (s *WorkerServer) health(readiness bool) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		snap, ready := s.healthSnapshot()
		body, _ := json.Marshal(snap)
		w.Header().Set("Content-Type", "application/json")
		if readiness && !ready {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		w.Write(body)
	})
}

// failSession reports a job-level setup error to the coordinator before the
// plane exists; failSessionInfra marks the error as infrastructure so a
// Recover coordinator re-dispatches instead of escalating.
func failSession(conn *transport.Conn, err error) { sendFailed(conn, err, false); conn.Close() }

func failSessionInfra(conn *transport.Conn, err error) { sendFailed(conn, err, true); conn.Close() }

func sendFailed(conn *transport.Conn, err error, infra bool) {
	var a int64
	if infra {
		a = 1
	}
	conn.WriteMsg(&transport.Msg{Kind: kindFailed, A: a, Payload: []byte(err.Error())})
}

// runSession executes one worker's share of a cluster run. conn is the job
// link to the coordinator; this goroutine is its only reader until the
// NetPlane takes over.
func (s *WorkerServer) runSession(conn *transport.Conn, h transport.Hello) {
	spec, err := s.readJob(conn)
	if err != nil {
		failSession(conn, err)
		return
	}
	if spec.RunID == "" {
		spec.RunID = h.RunID
	}

	job, ok := lookupClusterJob(spec.Job)
	if !ok {
		failSession(conn, fmt.Errorf("cluster job %q is not registered in this binary", spec.Job))
		return
	}
	query, opt, err := job(spec.Params)
	if err != nil {
		failSession(conn, fmt.Errorf("building cluster job %q: %w", spec.Job, err))
		return
	}
	opt.Cluster = nil // the worker runs its local share, it does not recurse
	p, err := decide(query, opt)
	if err != nil {
		failSession(conn, fmt.Errorf("planning cluster job %q: %w", spec.Job, err))
		return
	}
	if fp := p.Fingerprint(); fp != spec.Plan {
		conn.WriteMsg(&transport.Msg{Kind: kindFailed, B: failPlanMismatch, Payload: []byte(fp)})
		conn.Close()
		return
	}
	// Under a process-wide memory cap every job runs tiered against its one
	// ladder; a shared store serves the recovery checkpoints over the link.
	s.mu.Lock()
	env := buildEnv{pressure: s.pressure}
	s.mu.Unlock()
	var store *sessionStore
	if spec.Shared {
		store = newSessionStore(conn, sessionTimeout)
		defer store.close()
		env.ckpt = store
	}
	x, err := build(p, env)
	if err != nil {
		failSession(conn, fmt.Errorf("wiring cluster job %q: %w", spec.Job, err))
		return
	}
	defer x.close()

	// Assemble the links: the job connection is the coordinator link, lower
	// peers are dialed, higher peers arrive through the rendezvous.
	rdv, err := s.openRendezvous(spec.RunID, spec.Workers)
	if err != nil {
		failSession(conn, err)
		return
	}
	defer s.closeRendezvous(spec.RunID)
	hb, rp := spec.HB, spec.Retry
	rp.DialTimeout, rp.Seed = sessionTimeout, int64(spec.Attempt)<<16|int64(spec.Worker)
	links := make([]*transport.Conn, spec.Workers)
	links[0] = conn
	closePeers := func() {
		for w := 1; w < len(links); w++ {
			if links[w] != nil {
				links[w].Close()
			}
		}
	}
	for w := 1; w < spec.Worker; w++ {
		peer, err := transport.DialRetry(spec.Addrs[w-1],
			transport.Hello{RunID: spec.RunID, From: spec.Worker, Purpose: transport.PurposePeer,
				Epoch: spec.Attempt, HB: hb},
			rp, nil)
		if err != nil {
			closePeers()
			s.countFailed()
			failSessionInfra(conn, fmt.Errorf("dialing peer worker %d: %w", w, err))
			return
		}
		peer.StartHeartbeat(hb)
		links[w] = peer
	}
	for need := spec.Workers - 1 - spec.Worker; need > 0; need-- {
		select {
		case d := <-rdv:
			if d.from <= spec.Worker || d.from >= spec.Workers || links[d.from] != nil {
				d.conn.Close()
				closePeers()
				s.countFailed()
				failSession(conn, fmt.Errorf("unexpected peer link from worker %d", d.from))
				return
			}
			links[d.from] = d.conn
		case <-time.After(sessionTimeout):
			closePeers()
			s.countFailed()
			failSessionInfra(conn, fmt.Errorf("timed out waiting for %d peer link(s)", need))
			return
		}
	}
	s.registerSession(&sessionInfo{
		runID: spec.RunID, job: spec.Job, worker: spec.Worker, attempt: spec.Attempt,
		started: time.Now(), links: links,
	})

	bye := make(chan struct{}, 1)
	plane := dataflow.NewNetPlane(dataflow.NetConfig{
		Self: spec.Worker, Workers: spec.Workers, Place: spec.Place, Links: links,
		OnPeerMsg: func(from int, m transport.Msg) {
			if from != 0 {
				return
			}
			switch m.Kind {
			case kindBye:
				select {
				case bye <- struct{}{}:
				default:
				}
			case kindCkptResp:
				if store != nil {
					store.dispatch(m)
				}
			}
		},
	})
	x.dopts.Net = plane

	// From here every link belongs to the plane; session messages ride the
	// job link alongside data (the coordinator's OnPeerMsg sorts them out).
	if err := conn.WriteMsg(&transport.Msg{Kind: kindReady}); err != nil {
		plane.Shutdown()
		closePeers()
		conn.Close()
		return
	}

	metrics, runErr := dataflow.Run(x.topo, x.dopts)
	if runErr != nil {
		s.countFailed()
		sendFailed(conn, runErr, dataflow.IsInfra(runErr))
	} else if body, err := json.Marshal(plane.LocalSnapshot(metrics)); err != nil {
		sendFailed(conn, err, false)
	} else {
		conn.WriteMsg(&transport.Msg{Kind: kindDone, Payload: body})
	}

	// Hold the session open until the coordinator is done with the links:
	// late recovery rounds may still need this worker's replay buffers.
	if runErr == nil {
		select {
		case <-bye:
		case <-time.After(sessionTimeout):
		}
	}
	plane.Shutdown()
	closePeers()
	conn.Close()
}

func (s *WorkerServer) countFailed() {
	s.mu.Lock()
	s.failed++
	s.mu.Unlock()
}

// readJob reads the job spec off a fresh job connection.
func (s *WorkerServer) readJob(conn *transport.Conn) (*jobSpec, error) {
	m, err := readSessionMsg(conn, sessionTimeout)
	if err != nil {
		return nil, fmt.Errorf("reading job spec: %w", err)
	}
	if m.Kind != kindJob {
		return nil, fmt.Errorf("expected a job spec, got kind %d", m.Kind)
	}
	var spec jobSpec
	if err := json.Unmarshal(m.Payload, &spec); err != nil {
		return nil, fmt.Errorf("decoding job spec: %w", err)
	}
	if spec.Workers < 2 || spec.Worker < 1 || spec.Worker >= spec.Workers {
		return nil, fmt.Errorf("job spec places this process at %d of %d", spec.Worker, spec.Workers)
	}
	if len(spec.Addrs) != spec.Workers-1 {
		return nil, fmt.Errorf("job spec has %d addresses for %d workers", len(spec.Addrs), spec.Workers)
	}
	return &spec, nil
}

// sessionStore is the worker-side client of the coordinator-served shared
// checkpoint store: Put/Get become request/response exchanges on the job
// link (requests from any goroutine — WriteMsg serializes; responses arrive
// through the plane's OnPeerMsg and are matched by request id).
type sessionStore struct {
	conn    *transport.Conn
	timeout time.Duration

	mu      sync.Mutex
	next    int64
	pending map[int64]chan ckptReply
	closed  chan struct{}
	done    bool
}

type ckptReply struct {
	status int64
	body   []byte
}

func newSessionStore(conn *transport.Conn, timeout time.Duration) *sessionStore {
	return &sessionStore{
		conn: conn, timeout: timeout,
		pending: make(map[int64]chan ckptReply),
		closed:  make(chan struct{}),
	}
}

func (ss *sessionStore) close() {
	ss.mu.Lock()
	if !ss.done {
		ss.done = true
		close(ss.closed)
	}
	ss.mu.Unlock()
}

// dispatch routes one kindCkptResp from the plane's read loop to its waiter.
// The payload is copied here: it aliases the connection's read buffer.
func (ss *sessionStore) dispatch(m transport.Msg) {
	ss.mu.Lock()
	ch := ss.pending[m.B]
	delete(ss.pending, m.B)
	ss.mu.Unlock()
	if ch != nil {
		ch <- ckptReply{status: m.A, body: append([]byte(nil), m.Payload...)}
	}
}

func (ss *sessionStore) call(kind byte, component string, task int, payload []byte) (ckptReply, error) {
	ch := make(chan ckptReply, 1)
	ss.mu.Lock()
	ss.next++
	id := ss.next
	ss.pending[id] = ch
	ss.mu.Unlock()
	drop := func() {
		ss.mu.Lock()
		delete(ss.pending, id)
		ss.mu.Unlock()
	}
	err := ss.conn.WriteMsg(&transport.Msg{Kind: kind, Stream: component, A: int64(task), B: id, Payload: payload})
	if err != nil {
		drop()
		return ckptReply{}, fmt.Errorf("shared store request: %w", err)
	}
	select {
	case r := <-ch:
		return r, nil
	case <-ss.closed:
		drop()
		return ckptReply{}, fmt.Errorf("shared store: session closed")
	case <-time.After(ss.timeout):
		drop()
		return ckptReply{}, fmt.Errorf("shared store: no response within %v", ss.timeout)
	}
}

func (ss *sessionStore) Put(component string, task int, ck *recovery.Checkpoint) error {
	r, err := ss.call(kindCkptPut, component, task, recovery.AppendCheckpoint(nil, ck))
	if err != nil {
		return err
	}
	if r.status != ckptOK {
		return fmt.Errorf("shared store put %s/%d: %s", component, task, r.body)
	}
	return nil
}

func (ss *sessionStore) Get(component string, task int) (*recovery.Checkpoint, bool, error) {
	r, err := ss.call(kindCkptGet, component, task, nil)
	if err != nil {
		return nil, false, err
	}
	switch r.status {
	case ckptMissing:
		return nil, false, nil
	case ckptOK:
		ck, _, err := recovery.DecodeCheckpoint(r.body)
		if err != nil {
			return nil, false, fmt.Errorf("shared store get %s/%d: %w", component, task, err)
		}
		return ck, true, nil
	default:
		return nil, false, fmt.Errorf("shared store get %s/%d: %s", component, task, r.body)
	}
}
