// Live fault tolerance (§5): the control plane that lets a joiner task die —
// by an injected kill or a captured panic — and come back with its exact
// state and exactly-once semantics, instead of aborting the run.
//
// The moving parts:
//
//   - Sequence-tagged transport. Every envelope on an edge into the protected
//     component carries a per-(producer task, destination task) sequence
//     number, and producers retain recently sent envelopes in a replay
//     buffer. A consumer task tracks, per (stream, producer task), the
//     sequence of the last envelope it fully applied; anything at or below
//     the cursor is silently dropped, which makes re-delivery idempotent.
//
//   - Incremental checkpoints. Every CheckpointEvery applied tuples a task
//     snapshots its per-relation state as wire batch frames (blitted from
//     the slab arenas via FrameExporter — no tuple re-materialization) plus
//     a manifest of its cursors, into a pluggable recovery.CheckpointStore.
//     A committed checkpoint trims the producers' replay buffers up to its
//     cursors, which is what keeps them bounded. After a live reshape
//     (adapt.go) each task re-checkpoints immediately: migration moves state
//     between tasks without consuming input, so an older checkpoint plus
//     replay could not reconstruct the new placement.
//
//   - Quiesced kills. An injected fault (Options.Recovery.Fault) fires
//     through the manager: it serializes with reshape rounds (roundMu),
//     closes a pause gate on the tracked edges, and only then enqueues the
//     kill marker, so FIFO inboxes guarantee the dying task has applied
//     every delivered envelope and flushed every pending output. The loss is
//     then pure state loss at a consistent point.
//
//   - Recovery routes. Per relation, the manager picks the cheapest source
//     (ft.RecoveryPlan made live): a peer task holding an identical
//     partition — the scheme replicated the relation, so any machine sharing
//     the failed task's coordinates on the relation's own dimensions is a
//     complete copy; for the adaptive 1-Bucket matrix, the other cells of
//     the failed cell's row (R) or column (S) — or, when nothing replicates,
//     the last checkpoint plus a replay of the retained envelopes past its
//     cursors. Restores are silent inserts: every delta these tuples could
//     produce was already emitted before the fault.
//
//   - Panic capture. A panic inside Bolt.Execute is converted into a fault.
//     The poisoned envelope is only partially applied, so the task flushes
//     its pending outputs, drops its state, restores from checkpoint +
//     replay (peer snapshots are unusable here: a peer has applied tuples
//     whose deltas the dying task never emitted), silently re-imports the
//     applied prefix of the poisoned batch, and reprocesses the rest plus
//     every stashed later envelope with full emission. Exactly-once holds
//     because a protected task's collector holds each tuple's emissions
//     until its execution returns and drops them on a panic — a panic never
//     leaves a tuple half-emitted, even in the packed join, which emits per
//     match while a probe may still fault a corrupt segment in. Capture
//     requires a non-adaptive run: a reshape barrier already enqueued in
//     the panicking task's inbox cannot be reconciled with its state loss,
//     so adaptive runs surface panics as run errors (injected kills recover
//     on adaptive runs too — the manager serializes them with reshape
//     rounds via roundMu before delivering the marker).
//
// See DESIGN.md ("Fault tolerance") for the protocol walkthrough and the
// substitution-table row for recovery traffic.
package dataflow

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"squall/internal/recovery"
	"squall/internal/slab"
	"squall/internal/types"
	"squall/internal/wire"
)

// FaultPlan injects one deterministic task kill: the protected component's
// task Task is killed once it has received AfterTuples tuples. The kill is
// delivered at a quiesced point (see package comment), so the run must stay
// exactly-once; the §5 recovery experiment (experiments.Section5Recovery)
// and the enginetest chaos dimension are built on it.
type FaultPlan struct {
	Task        int
	AfterTuples int
}

// RecoveryPolicy enables the live fault-tolerance subsystem on one component.
type RecoveryPolicy struct {
	// Component names the protected bolt; its bolts must implement
	// Repartitioner (state export/import).
	Component string
	// RelOf maps each input stream (upstream component name) to its relation
	// index; NumRels is the relation count.
	RelOf   map[string]int
	NumRels int
	// PeersFor returns the tasks holding an identical copy of relation rel's
	// partition at `task` (empty when the scheme does not replicate rel).
	// When nil and the component runs adaptively, peers come from the live
	// matrix; otherwise recovery falls back to checkpoints.
	PeersFor func(task, rel int) []int
	// Store persists checkpoints (default: an in-memory store).
	Store recovery.CheckpointStore
	// CheckpointEvery is the number of applied tuples between checkpoints
	// (default 512).
	CheckpointEvery int
	// DisablePeer forces the checkpoint route even when peers exist — the
	// disk-recovery baseline the §5 claim is measured against.
	DisablePeer bool
	// Fault, when set, injects one deterministic kill.
	Fault *FaultPlan
}

func (p *RecoveryPolicy) withDefaults() RecoveryPolicy {
	q := *p
	if q.CheckpointEvery <= 0 {
		q.CheckpointEvery = 512
	}
	if q.Store == nil {
		q.Store = recovery.NewMemStore()
	}
	return q
}

// RecoveryMetrics counts fault-tolerance activity (all zero when no recovery
// policy is installed). Restored and replayed traffic is deliberately kept
// out of Sent/Received, which measure the query's own dataflow (§6); peer
// refetch bytes are charged to the serving task's BytesOut like any network
// transfer.
type RecoveryMetrics struct {
	Faults atomic.Int64 // recoveries completed (kills + panics)
	Kills  atomic.Int64 // injected kills recovered
	Panics atomic.Int64 // captured panics recovered
	// PeerRels / CheckpointRels count per-relation recovery routes taken.
	PeerRels       atomic.Int64
	CheckpointRels atomic.Int64
	// RestoredTuples / RestoredBytes measure state shipped during restores
	// (peer refetch frames + checkpoint frames).
	RestoredTuples atomic.Int64
	RestoredBytes  atomic.Int64
	// SegmentBytes measures sealed-segment blobs read back from the
	// checkpoint store during v2 (tiered) restores; a subset of
	// RestoredBytes.
	SegmentBytes atomic.Int64
	// ReplayedEnvelopes / ReplayedTuples measure re-delivered input.
	ReplayedEnvelopes atomic.Int64
	ReplayedTuples    atomic.Int64
	// Checkpoints / CheckpointBytes measure the steady-state checkpoint cost.
	Checkpoints     atomic.Int64
	CheckpointBytes atomic.Int64
	// RecoveryNS is the wall time spent inside recovery rounds (gate close to
	// ack); LastRecoveryNS is the most recent round's duration.
	RecoveryNS     atomic.Int64
	LastRecoveryNS atomic.Int64
}

// Additional control kinds for the recovery plane. They sort after the
// adaptive kinds so the executor can dispatch on the boundary.
const (
	// ctrlKill tells the fault-plan task to drop its state (quiesced kill).
	ctrlKill ctrlKind = iota + ctrlMigDone + 1
	// ctrlRecBegin opens a recovery round at the failed task: routes per
	// relation plus the checkpoint manifest restore starts from.
	ctrlRecBegin
	// ctrlRecBatch carries restored state tuples for one relation.
	ctrlRecBatch
	// ctrlRecDone marks the end of one relation's restore.
	ctrlRecDone
	// ctrlStateReq asks a peer task to export one relation to the failed
	// task's inbox.
	ctrlStateReq
	// ctrlNetFlush is a cluster flush token (see NetPlane.quiesce): it rides
	// the data path from a remote producer worker, so draining it proves
	// every data envelope that worker sent earlier has been processed. The
	// task reports it to the plane and carries on.
	ctrlNetFlush
)

// recMsg is the payload of recovery control envelopes.
type recMsg struct {
	rel      int
	target   int
	tuples   []types.Tuple
	routes   []int              // per rel: serving peer task, or -1 for checkpoint
	manifest *recovery.Manifest // checkpoint manifest (nil when none exists)
}

// replayEnt is one retained envelope in a producer's replay buffer.
type replayEnt struct {
	seq   int64
	frame []byte // encoded batch frame
	count int
}

// faultNote is a task's fault notification to the manager.
type faultNote struct {
	task     int
	panicked bool
	void     bool // plan task reached end-of-stream without triggering
}

// recState is the per-run recovery control plane.
type recState struct {
	ex   *execution
	pol  RecoveryPolicy
	node *node // the protected component

	// relOfEdge[i] is the relation index of node.inputs[i].
	relOfEdge []int
	// pidBase assigns each tracked producer node a dense id range; a producer
	// task's pid is pidBase[node]+task.
	pidBase map[*node]int
	npids   int

	// bufs[pid][target] is the ordered replay buffer of one (producer task,
	// destination) pair; trims[pid][target] is the newest checkpoint cursor,
	// below which entries are pruned. bufMus[pid] guards that producer's
	// buffers: a pid's buffers are written only by its own (single-threaded)
	// producer task and read only by the manager during a restore, so
	// per-producer locks see no steady-state contention even on the
	// BatchSize=1 path, where every tuple copy records an entry.
	bufMus []sync.Mutex
	bufs   [][][]replayEnt
	trims  [][]atomic.Int64

	// Pause gate on the tracked edges (same protocol as the adaptive gate).
	mu       sync.Mutex
	paused   bool
	active   int
	resumeCh chan struct{}
	idleCh   chan struct{}

	faults chan faultNote
	// killAck reports the victim reached the kill marker; true means a
	// captured panic was already mid-restore there, so the round must run
	// with panic semantics (checkpoint routes only).
	killAck chan bool
	acks    chan int
	quit    chan struct{}
	done    chan struct{}
	// planDone is closed when the fault plan is resolved (recovered or
	// voided); protected tasks that finish their EOS set linger on it so a
	// late kill still finds every peer alive and draining.
	planDone  chan struct{}
	planOnce  sync.Once
	scheduled bool // a fault plan exists
}

// initRecovery validates the policy against the topology and installs the
// recovery plane on the execution.
func (ex *execution) initRecovery(pol *RecoveryPolicy) error {
	p := pol.withDefaults()
	n, ok := ex.topo.byN[p.Component]
	if !ok || n.bolt == nil {
		return fmt.Errorf("dataflow: recovery component %q is not a registered bolt", p.Component)
	}
	if p.NumRels <= 0 {
		return fmt.Errorf("dataflow: recovery needs NumRels >= 1")
	}
	a := &recState{
		ex:        ex,
		pol:       p,
		node:      n,
		relOfEdge: make([]int, len(n.inputs)),
		pidBase:   map[*node]int{},
		resumeCh:  make(chan struct{}),
		faults:    make(chan faultNote, 2+n.par),
		killAck:   make(chan bool, 1),
		acks:      make(chan int, 1),
		quit:      make(chan struct{}),
		done:      make(chan struct{}),
		planDone:  make(chan struct{}),
		scheduled: p.Fault != nil,
	}
	for i, e := range n.inputs {
		rel, ok := p.RelOf[e.from.name]
		if !ok {
			return fmt.Errorf("dataflow: recovery component %q input %q has no relation mapping", p.Component, e.from.name)
		}
		if rel < 0 || rel >= p.NumRels {
			return fmt.Errorf("dataflow: recovery relation %d of stream %q out of range [0,%d)", rel, e.from.name, p.NumRels)
		}
		a.relOfEdge[i] = rel
		if _, dup := a.pidBase[e.from]; dup {
			return fmt.Errorf("dataflow: recovery component %q has duplicate input %q", p.Component, e.from.name)
		}
		a.pidBase[e.from] = a.npids
		a.npids += e.from.par
	}
	if p.Fault != nil && (p.Fault.Task < 0 || p.Fault.Task >= n.par) {
		return fmt.Errorf("dataflow: fault plan task %d out of range [0,%d)", p.Fault.Task, n.par)
	}
	a.bufMus = make([]sync.Mutex, a.npids)
	a.bufs = make([][][]replayEnt, a.npids)
	a.trims = make([][]atomic.Int64, a.npids)
	for pid := range a.bufs {
		a.bufs[pid] = make([][]replayEnt, n.par)
		a.trims[pid] = make([]atomic.Int64, n.par)
	}
	if !a.scheduled {
		a.resolvePlan() // nothing to linger for
	}
	ex.rec = a
	return nil
}

// tracksFor returns, for one producer node, which output edges feed the
// protected component (nil when none do), plus the producer's pid base.
func (a *recState) tracksFor(n *node) ([]bool, int) {
	base, ok := a.pidBase[n]
	if !ok {
		return nil, 0
	}
	out := make([]bool, len(n.outputs))
	for i, e := range n.outputs {
		out[i] = e.to == a.node
	}
	return out, base
}

// record retains one sent envelope for replay, pruning entries the newest
// checkpoint has made obsolete. The prune cost is amortized O(1): a trim
// only advances at checkpoint commits, so the compaction copy runs once per
// commit, not once per append.
func (a *recState) record(pid, target int, ent replayEnt) {
	trim := a.trims[pid][target].Load()
	a.bufMus[pid].Lock()
	buf := a.bufs[pid][target]
	drop := 0
	for drop < len(buf) && buf[drop].seq <= trim {
		drop++
	}
	if drop > 0 {
		buf = buf[:copy(buf, buf[drop:])]
	}
	a.bufs[pid][target] = append(buf, ent)
	a.bufMus[pid].Unlock()
}

// snapshotBuf copies the retained entries of one (producer, target) pair.
func (a *recState) snapshotBuf(pid, target int) []replayEnt {
	a.bufMus[pid].Lock()
	out := append([]replayEnt(nil), a.bufs[pid][target]...)
	a.bufMus[pid].Unlock()
	return out
}

// commitTrims advances the replay trim cursors to a committed checkpoint's
// cursors: entries at or below them can never be replayed again.
func (a *recState) commitTrims(task int, cursors map[string][]int64) {
	for _, e := range a.node.inputs {
		base := a.pidBase[e.from]
		for p := 0; p < e.from.par; p++ {
			if cur := cursors[e.from.name][p]; cur > a.trims[base+p][task].Load() {
				a.trims[base+p][task].Store(cur)
			}
		}
	}
}

// resolvePlan marks the fault plan resolved, releasing lingering tasks.
func (a *recState) resolvePlan() {
	a.planOnce.Do(func() { close(a.planDone) })
}

// enter joins the pause gate, blocking while a recovery round is in flight;
// ok is false when the run aborted.
func (a *recState) enter() bool {
	a.mu.Lock()
	for a.paused {
		ch := a.resumeCh
		a.mu.Unlock()
		select {
		case <-ch:
		case <-a.ex.abort:
			return false
		}
		a.mu.Lock()
	}
	a.active++
	a.mu.Unlock()
	return true
}

// exit leaves the gate, waking a paused manager once drained.
func (a *recState) exit() {
	a.mu.Lock()
	a.active--
	if a.active == 0 && a.paused && a.idleCh != nil {
		close(a.idleCh)
		a.idleCh = nil
	}
	a.mu.Unlock()
}

// pause closes the gate and waits until no producer is inside it: every
// envelope sent under the open gate is then enqueued, so a control marker
// enqueued next is ordered after all of them.
func (a *recState) pause() bool {
	a.mu.Lock()
	a.paused = true
	a.resumeCh = make(chan struct{})
	if a.active == 0 {
		a.mu.Unlock()
		return true
	}
	idle := make(chan struct{})
	a.idleCh = idle
	a.mu.Unlock()
	select {
	case <-idle:
		return true
	case <-a.ex.abort:
		return false
	}
}

// resume reopens the gate.
func (a *recState) resume() {
	a.mu.Lock()
	a.paused = false
	ch := a.resumeCh
	a.mu.Unlock()
	close(ch)
}

func (a *recState) sendCtrl(task int, env envelope) bool {
	select {
	case a.ex.inboxes[a.node][task] <- env:
		return true
	case <-a.ex.abort:
		return false
	case <-a.quit:
		return false
	}
}

// run is the manager goroutine: it serializes fault handling with reshape
// rounds and orchestrates each recovery.
func (a *recState) run() {
	defer close(a.done)
	for {
		select {
		case f := <-a.faults:
			if f.void {
				a.resolvePlan()
				continue
			}
			if !a.handleFault(f) {
				return
			}
		case <-a.ex.abort:
			return
		case <-a.quit:
			return
		}
	}
}

// peersFor resolves the live peer set for one (task, relation): the policy's
// scheme-derived peers, or the adaptive matrix's row/column when the
// component runs adaptively (the matrix is stable here — reshape rounds and
// recovery rounds serialize on roundMu).
func (a *recState) peersFor(task, rel int) []int {
	if a.pol.PeersFor != nil {
		return a.pol.PeersFor(task, rel)
	}
	if ad := a.ex.adapt; ad != nil && rel < 2 {
		m := ad.cur
		if task >= m.Rows*m.Cols {
			return nil
		}
		row, col := task/m.Cols, task%m.Cols
		var out []int
		if rel == 0 { // R replicates across the row's columns
			for c := 0; c < m.Cols; c++ {
				if c != col {
					out = append(out, row*m.Cols+c)
				}
			}
		} else { // S replicates down the column's rows
			for r := 0; r < m.Rows; r++ {
				if r != row {
					out = append(out, r*m.Cols+col)
				}
			}
		}
		return out
	}
	return nil
}

// handleFault runs one recovery round end to end. It reports false when the
// run is shutting down.
func (a *recState) handleFault(f faultNote) bool {
	a.ex.roundMu.Lock()
	defer a.ex.roundMu.Unlock()
	if !a.pause() {
		return false
	}
	defer a.resume()
	start := time.Now()
	m := &a.ex.metrics.Recovery

	// Cluster round: close the recovery gate on every remote producer worker,
	// then flush their in-flight data ahead of any control marker with tokens
	// through the victim's (and, for kill rounds, every peer's) inbox. This
	// restores the in-process invariant that a closed gate leaves nothing
	// between a producer and the protected inboxes — without it, a kill
	// marker or state request could overtake data still staged on the wire.
	if a.ex.net != nil {
		if _, ok := a.ex.net.pauseRemote(planeRec, a.node); !ok {
			return false
		}
		defer a.ex.net.resumeRemote(planeRec, a.node, 0, 0)
		tasks := []int{f.task}
		if !f.panicked {
			tasks = allTasks(a.node)
		}
		if !a.ex.net.quiesce(a.node, tasks) {
			return false
		}
	}

	// An injected kill is delivered only now, behind the closed gate: FIFO
	// inboxes guarantee the task has applied every delivered envelope before
	// it sees the marker, so the loss is pure state loss at a quiesced point.
	// (A panicked task has already faulted and is draining in restore mode.)
	// The ack matters twice: the task may still commit checkpoints while
	// draining toward the marker, so the manifest read below must be the
	// final one (replay buffers are trimmed up to the newest commit), and a
	// panic may have beaten the marker to the task — the ack reports that,
	// downgrading this round to panic semantics (checkpoint routes only; a
	// peer snapshot would swallow the panicked task's unemitted deltas).
	killRound := !f.panicked
	if killRound {
		if !a.sendCtrl(f.task, envelope{ctrl: ctrlKill}) {
			return false
		}
		select {
		case alreadyPanicked := <-a.killAck:
			if alreadyPanicked {
				f.panicked = true
			}
		case <-a.ex.abort:
			return false
		case <-a.quit:
			return false
		}
	}

	// Route per relation: peer refetch when the scheme replicates the
	// relation and the fault is a quiesced kill (a panicked task has
	// unemitted deltas a peer snapshot would swallow), checkpoint otherwise.
	routes := make([]int, a.pol.NumRels)
	needCk := false
	for rel := range routes {
		routes[rel] = -1
		if !f.panicked && !a.pol.DisablePeer {
			if peers := a.peersFor(f.task, rel); len(peers) > 0 {
				routes[rel] = peers[0]
			}
		}
		if routes[rel] < 0 {
			needCk = true
		}
	}

	// Load the failed task's latest checkpoint only when some relation needs
	// it: a fully peer-recoverable machine never touches the checkpoint
	// medium at all — the whole point of the §5 optimization. The manifest
	// bounds the replay, and a disk store charges the read to the recovery
	// clock here.
	var ck *recovery.Checkpoint
	haveCk := false
	if needCk {
		var err error
		ck, haveCk, err = a.pol.Store.Get(a.node.name, f.task)
		if err != nil {
			a.ex.fail(fmt.Errorf("dataflow: recovery of %s[%d]: %w", a.node.name, f.task, err))
			return false
		}
	}

	begin := &recMsg{routes: routes}
	if haveCk {
		begin.manifest = &ck.Manifest
	}
	if !a.sendCtrl(f.task, envelope{ctrl: ctrlRecBegin, rec: begin}) {
		return false
	}

	var dec wire.BatchDecoder
	for rel, peer := range routes {
		if peer >= 0 {
			m.PeerRels.Add(1)
			if !a.sendCtrl(peer, envelope{ctrl: ctrlStateReq, rec: &recMsg{rel: rel, target: f.task}}) {
				return false
			}
			continue
		}
		m.CheckpointRels.Add(1)
		if haveCk && ck.Segments != nil && rel < len(ck.Segments) {
			// v2 manifest: the relation's sealed rows live in the store as
			// referenced segments; read each back, verify it byte-for-byte
			// against the manifest's CRC, and ship its rows. A corrupt or
			// missing checkpoint segment fails the run — fabricating state
			// is worse than dying.
			if !a.restoreSegments(f.task, rel, ck.Segments[rel]) {
				return false
			}
		}
		if haveCk && rel < len(ck.Frames) {
			for _, frame := range ck.Frames[rel] {
				tuples, _, err := dec.Decode(frame)
				if err != nil {
					a.ex.fail(fmt.Errorf("dataflow: checkpoint of %s[%d] rel %d corrupt: %w", a.node.name, f.task, rel, err))
					return false
				}
				m.RestoredTuples.Add(int64(len(tuples)))
				m.RestoredBytes.Add(int64(len(frame)))
				if !a.sendCtrl(f.task, envelope{ctrl: ctrlRecBatch, rec: &recMsg{rel: rel, tuples: tuples}}) {
					return false
				}
			}
		}
	}

	// Replay the retained input past the checkpoint cursors for every
	// checkpoint-routed relation. The failed task dedups by sequence, so
	// over-replay is harmless; under-replay is impossible because trims only
	// advance at checkpoint commits.
	for i, e := range a.node.inputs {
		if routes[a.relOfEdge[i]] >= 0 {
			continue
		}
		base := a.pidBase[e.from]
		for p := 0; p < e.from.par; p++ {
			var ckptCur int64
			if haveCk {
				ckptCur = ck.Manifest.CursorFor(e.from.name, p)
			}
			for _, ent := range a.snapshotBuf(base+p, f.task) {
				if ent.seq <= ckptCur {
					continue
				}
				// The retained frame is shared with the buffer: replay never
				// pools it, and consumers only read frames.
				env := envelope{stream: e.from.name, from: p, seq: ent.seq, frame: ent.frame, count: ent.count}
				m.ReplayedEnvelopes.Add(1)
				m.ReplayedTuples.Add(int64(ent.count))
				if !a.ex.send(a.node, f.task, env) {
					return false
				}
			}
		}
	}
	// Remote producers replay their own retained input: each serving worker
	// streams seq-tagged data messages and a flush token; waiting on the
	// tokens (which traverse the victim's inbox behind the replayed data)
	// guarantees the ctrlRecDone markers below cannot overtake any of it.
	if a.ex.net != nil {
		var man *recovery.Manifest
		if haveCk {
			man = &ck.Manifest
		}
		if !a.ex.net.replayRemote(a.node, f.task, routes, a.relOfEdge, man) {
			return false
		}
	}
	for rel, peer := range routes {
		if peer < 0 {
			if !a.sendCtrl(f.task, envelope{ctrl: ctrlRecDone, rec: &recMsg{rel: rel}}) {
				return false
			}
		}
	}

	select {
	case <-a.acks:
	case <-a.ex.abort:
		return false
	case <-a.quit:
		return false
	}
	m.Faults.Add(1)
	if f.panicked {
		m.Panics.Add(1)
	} else {
		m.Kills.Add(1)
	}
	if killRound {
		// The fault plan is consumed even when the round downgraded to panic
		// semantics; lingering peers must release either way.
		a.resolvePlan()
	}
	ns := time.Since(start).Nanoseconds()
	m.RecoveryNS.Add(ns)
	m.LastRecoveryNS.Store(ns)
	return true
}

// poisonedEnv is the frame a captured panic interrupted: rows before idx
// were fully applied and emitted, rows from idx on were not.
type poisonedEnv struct {
	env envelope
	idx int
}

// recSession is the consumer-side state of one protected task.
type recSession struct {
	a    *recState
	task int
	// cursors[stream][fromTask] is the sequence of the last fully applied
	// envelope per input edge.
	cursors   map[string][]int64
	sinceCkpt int
	// Fault-plan state.
	armed     bool // this task is the plan target and the trigger hasn't fired
	requested bool // trigger sent to the manager, resolution pending
	// Recovery-round state.
	recovering bool
	panicked   bool
	began      bool
	routes     []int
	manifest   *recovery.Manifest
	dones      int
	stash      []envelope
	poisoned   *poisonedEnv
	scratch    []byte
}

// newSession prepares the consumer-side recovery state for one task of the
// protected component.
func (a *recState) newSession(task int) *recSession {
	s := &recSession{a: a, task: task, cursors: map[string][]int64{}}
	for _, e := range a.node.inputs {
		s.cursors[e.from.name] = make([]int64, e.from.par)
	}
	s.armed = a.pol.Fault != nil && a.pol.Fault.Task == task
	return s
}

// busy reports whether the task must keep draining its inbox even after its
// EOS set completed: a recovery round is open, or a fault trigger awaits its
// resolution marker.
func (s *recSession) busy() bool { return s.recovering || s.requested }

// dedup drops an envelope already covered by the cursor; it returns whether
// the envelope should be applied.
func (s *recSession) dedup(env *envelope) bool {
	return env.seq == 0 || env.seq > s.cursors[env.stream][env.from]
}

// applied advances the cursor after an envelope was fully applied.
func (s *recSession) applied(env *envelope) {
	if env.seq > 0 {
		s.cursors[env.stream][env.from] = env.seq
	}
}

// startRecovery flips the session into restore mode. The caller has already
// replaced the bolt and flushed the collector's pending output. requested is
// deliberately left alone: a panic that preempts an outstanding kill trigger
// still owes the manager's kill marker its ack, and the kill round then
// services this session with panic semantics.
func (s *recSession) startRecovery(panicked bool) {
	s.recovering = true
	s.panicked = panicked
	s.began = false
	s.routes = nil
	s.manifest = nil
	s.dones = 0
	s.stash = nil
}

// checkpoint snapshots the task's state and cursors into the store and trims
// the producers' replay buffers.
func (s *recSession) checkpoint(bolt Bolt) error {
	a := s.a
	rep, ok := bolt.(Repartitioner)
	if !ok {
		return fmt.Errorf("dataflow: recovery bolt %T cannot export state", bolt)
	}
	ck := &recovery.Checkpoint{
		Manifest: recovery.Manifest{Component: a.node.name, Task: s.task, Rels: a.pol.NumRels},
	}
	for _, e := range a.node.inputs {
		for p := 0; p < e.from.par; p++ {
			ck.Manifest.Cursors = append(ck.Manifest.Cursors,
				recovery.Cursor{Stream: e.from.name, FromTask: p, Seq: s.cursors[e.from.name][p]})
		}
	}
	batch := a.ex.opts.BatchSize

	// Tiered bolts checkpoint incrementally (PR 10): sealed segments were
	// persisted to the checkpoint store when they sealed (or spilled), so the
	// manifest references them by key + CRC and only the hot (unsealed) rows
	// are re-exported as frames. The v2 export is all-or-nothing across
	// relations — every relation shares one state layout, so a single renege
	// sends the whole checkpoint to the v1 path.
	if te, ok := bolt.(TierExporter); ok {
		if _, ok := a.pol.Store.(slab.SegmentStore); ok {
			tiered := true
			for rel := 0; rel < a.pol.NumRels && tiered; rel++ {
				var frames [][]byte
				cks, relOK, err := te.ExportStateTier(rel, batch, a.ex.opts.VecExec, func(frame []byte, count int) bool {
					frames = append(frames, append([]byte(nil), frame...))
					ck.Tuples += int64(count)
					return true
				})
				if err != nil {
					return err
				}
				if !relOK {
					tiered = false
					break
				}
				refs := make([]recovery.SegmentRef, len(cks))
				for i, c := range cks {
					refs[i] = recovery.SegmentRef{Key: c.Key, CRC: c.CRC, Rows: int64(c.Rows), Dead: c.Dead}
				}
				ck.Segments = append(ck.Segments, refs)
				ck.Frames = append(ck.Frames, frames)
			}
			if !tiered {
				ck.Segments, ck.Frames, ck.Tuples = nil, nil, 0
			}
		}
	}
	if ck.Segments == nil {
		for rel := 0; rel < a.pol.NumRels; rel++ {
			var frames [][]byte
			blitted := false
			if fe, ok := bolt.(FrameExporter); ok {
				blitted = fe.ExportStateFrames(rel, batch, a.ex.opts.VecExec, func(frame []byte, count int) bool {
					frames = append(frames, append([]byte(nil), frame...))
					ck.Tuples += int64(count)
					return true
				})
			}
			if !blitted {
				tuples := rep.ExportState(rel)
				for start := 0; start < len(tuples); start += batch {
					end := start + batch
					if end > len(tuples) {
						end = len(tuples)
					}
					s.scratch = wire.EncodeBatch(s.scratch[:0], tuples[start:end])
					frames = append(frames, append([]byte(nil), s.scratch...))
					ck.Tuples += int64(end - start)
				}
			}
			ck.Frames = append(ck.Frames, frames)
		}
	}
	var bytes int64
	for _, frames := range ck.Frames {
		for _, f := range frames {
			bytes += int64(len(f))
		}
	}
	if err := a.pol.Store.Put(a.node.name, s.task, ck); err != nil {
		return err
	}
	a.commitTrims(s.task, s.cursors)
	if a.ex.net != nil {
		// Producers on other workers hold their own replay buffers; forward
		// the commit so theirs trim too.
		a.ex.net.trimBroadcast(a.node, s.task, s.cursors)
	}
	s.sinceCkpt = 0
	m := &a.ex.metrics.Recovery
	m.Checkpoints.Add(1)
	m.CheckpointBytes.Add(bytes)
	return nil
}

// restoreSegments ships one relation's sealed checkpoint segments to the
// recovering task. Every blob read back from the store is verified
// byte-for-byte: the segment codec's own CRC must decode clean AND match the
// CRC the manifest recorded at checkpoint time, and the row count must match.
// Rows a manifest's Dead bitmap marks are skipped (arenas write none, but a
// restore honours what it reads back). Any failure fails the run, including
// a segment holding an empty row span: the alternatives are fabricating rows
// or silently dropping them.
func (a *recState) restoreSegments(task, rel int, refs []recovery.SegmentRef) bool {
	ss, ok := a.pol.Store.(slab.SegmentStore)
	if !ok {
		a.ex.fail(fmt.Errorf("dataflow: checkpoint of %s[%d] references segments but store %T cannot read them", a.node.name, task, a.pol.Store))
		return false
	}
	m := &a.ex.metrics.Recovery
	batch := a.ex.opts.BatchSize
	var tuples []types.Tuple
	flush := func() bool {
		if len(tuples) == 0 {
			return true
		}
		m.RestoredTuples.Add(int64(len(tuples)))
		if !a.sendCtrl(task, envelope{ctrl: ctrlRecBatch, rec: &recMsg{rel: rel, tuples: tuples}}) {
			return false
		}
		tuples = nil
		return true
	}
	for si, sr := range refs {
		blob, found, err := ss.GetSegment(sr.Key)
		if err == nil && !found {
			err = fmt.Errorf("segment %q missing from store", sr.Key)
		}
		var offs []uint32
		var payload []byte
		if err == nil {
			var crc uint32
			offs, payload, crc, err = slab.DecodeSegment(blob)
			switch {
			case err != nil:
			case crc != sr.CRC:
				err = fmt.Errorf("segment %q checksum %08x does not match manifest %08x", sr.Key, crc, sr.CRC)
			case int64(len(offs)-1) != sr.Rows:
				err = fmt.Errorf("segment %q holds %d rows, manifest says %d", sr.Key, len(offs)-1, sr.Rows)
			}
		}
		if err != nil {
			a.ex.fail(fmt.Errorf("dataflow: checkpoint of %s[%d] rel %d segment %d (%s): %w", a.node.name, task, rel, si, sr.Key, err))
			return false
		}
		m.SegmentBytes.Add(int64(len(blob)))
		m.RestoredBytes.Add(int64(len(blob)))
		for i := 0; i+1 < len(offs); i++ {
			if i/64 < len(sr.Dead) && sr.Dead[i/64]>>(uint(i)%64)&1 == 1 {
				continue
			}
			t, _, err := wire.Decode(payload[offs[i]:offs[i+1]])
			if err != nil {
				a.ex.fail(fmt.Errorf("dataflow: checkpoint of %s[%d] rel %d segment %d row %d: %w", a.node.name, task, rel, si, i, err))
				return false
			}
			tuples = append(tuples, t)
			if len(tuples) >= batch {
				if !flush() {
					return false
				}
			}
		}
	}
	return flush()
}

// serveStateReq exports one relation to a recovering peer over its inbox, as
// decoded wire batch frames — the live form of ft's "recover from a peer
// machine" route. Bytes are charged to this (serving) task like any network
// transfer.
func (s *recSession) serveStateReq(bolt Bolt, tm *TaskMetrics, msg *recMsg) bool {
	a := s.a
	m := &a.ex.metrics.Recovery
	batch := a.ex.opts.BatchSize
	var dec wire.BatchDecoder
	ship := func(frame []byte, count int) bool {
		out, _, err := dec.Decode(frame)
		if err != nil {
			a.ex.fail(fmt.Errorf("dataflow: peer export corruption at %s[%d]: %w", a.node.name, s.task, err))
			return false
		}
		tm.BytesOut.Add(int64(len(frame)))
		m.RestoredBytes.Add(int64(len(frame)))
		m.RestoredTuples.Add(int64(count))
		return a.ex.send(a.node, msg.target, envelope{from: s.task, ctrl: ctrlRecBatch, rec: &recMsg{rel: msg.rel, tuples: out}})
	}
	served := false
	if fe, ok := bolt.(FrameExporter); ok {
		// Peer serving decodes each frame right here before shipping tuples,
		// so a footer would only inflate the charged bytes: always bare.
		served = fe.ExportStateFrames(msg.rel, batch, false, ship)
	}
	if !served {
		rep, ok := bolt.(Repartitioner)
		if !ok {
			a.ex.fail(fmt.Errorf("dataflow: recovery bolt %T cannot export state", bolt))
			return false
		}
		tuples := rep.ExportState(msg.rel)
		for start := 0; start < len(tuples); start += batch {
			end := start + batch
			if end > len(tuples) {
				end = len(tuples)
			}
			chunk := tuples[start:end]
			s.scratch = wire.EncodeBatch(s.scratch[:0], chunk)
			if !ship(s.scratch, len(chunk)) {
				return false
			}
		}
	}
	return a.ex.send(a.node, msg.target, envelope{from: s.task, ctrl: ctrlRecDone, rec: &recMsg{rel: msg.rel}})
}
