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
//     snapshots its per-relation state as bare wire batch frames (blitted
//     from the slab arenas — no tuple re-materialization) plus
//     a manifest of its cursors, into a pluggable recovery.CheckpointStore.
//     A committed checkpoint trims the producers' replay buffers up to its
//     cursors, which is what keeps them bounded. A task whose state a round
//     changed (moves.go) re-checkpoints at once: moves change state without
//     consuming input, so an older checkpoint plus replay could not rebuild
//     it.
//
//   - Quiesced kills. An injected fault (Options.Recovery.Fault) fires
//     through the execution's control loop as one round (execution.round,
//     serial with reshape rounds): the round closes the gate on the tracked
//     edges, and only then enqueues the kill marker, so FIFO inboxes
//     guarantee the dying task has applied every delivered envelope and
//     flushed every pending output. The loss is then pure state loss at a
//     consistent point.
//
//   - Recovery routes. A kill of task f is a reshape that lost a cell: the
//     round is the state transfer of moves.go over core.Moves(hc, hc, {f}),
//     on the hypercube the gate publishes (the static scheme, or an adaptive
//     run's live shape). Per relation the source is a peer task holding an
//     identical partition — the scheme replicated the relation, so any task
//     sharing f's coordinates on the relation's own dimensions is a complete
//     copy — or, when nothing replicates, Checkpoint: the controller ships
//     the last checkpoint and replays the retained envelopes past its
//     cursors. State travels as frames on every route — peer exports,
//     checkpoint frames, sealed segments (rows sliced out of the verified
//     blob) and replayed input — and the failed task walks each one through
//     Repartitioner.ImportRow. Restores are silent inserts: every delta
//     these rows could produce was already emitted before the fault.
//
//   - Panic capture. A panic inside a bolt callback is converted into a
//     fault, and the frame is the exactly-once unit: a protected task's
//     collector holds every emission of a delivered frame until the frame's
//     Last row returns, and drops them all on a panic. So a panic poisons
//     its whole frame — whichever row it hit, nothing of the frame shipped,
//     even in the packed join, which probes a frame as a set and emits per
//     match while a probe may still fault a corrupt segment in. The task
//     flushes its pending outputs (results of earlier, whole frames), drops
//     its state, restores from checkpoint + replay (peer snapshots are
//     unusable here: a peer has applied tuples whose deltas the dying task
//     never emitted), and then re-runs the poisoned frame whole plus every
//     stashed later envelope with full emission. Capture
//     requires a non-adaptive run: a reshape barrier already enqueued in
//     the panicking task's inbox cannot be reconciled with its state loss,
//     so adaptive runs surface panics as run errors (injected kills recover
//     on adaptive runs too — the control loop runs their rounds between
//     reshape rounds, and a recovery round reopens the gate under the
//     unchanged shape).
//
// See DESIGN.md ("Fault tolerance") for the protocol walkthrough and the
// substitution-table row for recovery traffic.
package dataflow

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"squall/internal/core"
	"squall/internal/recovery"
	"squall/internal/slab"
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
	// Shape is the component's partitioning: a relation is peer-recoverable
	// at a failed task iff Shape replicates it, from the peer core.Moves
	// names. An adaptive run uses its live shape instead. Nil sends every
	// relation to the checkpoint route.
	Shape *core.Hypercube
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
	// RestoredTuples measures state rows shipped during restores, by either
	// route. PeerBytes is what peers served (refetch frames, a network
	// fetch); StoreReads and StoreBytes are what restores read back from the
	// checkpoint store (one read per checkpoint, one per sealed segment).
	RestoredTuples atomic.Int64
	PeerBytes      atomic.Int64
	StoreReads     atomic.Int64
	StoreBytes     atomic.Int64
	// SegmentBytes measures sealed-segment blobs read back from the
	// checkpoint store during restores of tiered state; a subset of
	// StoreBytes.
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

// counters lists the counters a cluster run sums across workers, then the
// one only the protected component's host stores.
func (m *RecoveryMetrics) counters() (summed, owned []*atomic.Int64) {
	return []*atomic.Int64{&m.Faults, &m.Kills, &m.Panics, &m.PeerRels, &m.CheckpointRels,
			&m.RestoredTuples, &m.PeerBytes, &m.StoreReads, &m.StoreBytes, &m.SegmentBytes,
			&m.ReplayedEnvelopes, &m.ReplayedTuples, &m.Checkpoints, &m.CheckpointBytes, &m.RecoveryNS},
		[]*atomic.Int64{&m.LastRecoveryNS}
}

// replayEnt is one retained envelope in a producer's replay buffer.
type replayEnt struct {
	seq   int64
	frame []byte // encoded batch frame
	count int
}

// faultNote is a task's fault notification to the control loop.
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
	// producer task and read only by recovery rounds during a restore, so
	// per-producer locks see no steady-state contention even on the
	// BatchSize=1 path, where every tuple copy records an entry.
	bufMus []sync.Mutex
	bufs   [][][]replayEnt
	trims  [][]atomic.Int64

	// ckPut[task] is set once this run has committed a checkpoint of task.
	// Restores read the store only for such tasks: a store may outlive the
	// run (a reused disk directory), and another run's checkpoint must
	// never stand in for this one's — without one the task restores from
	// empty state and a full replay.
	ckPut []atomic.Bool

	faults chan faultNote
	// killAck reports the victim reached the kill marker; true means a
	// captured panic was already mid-restore there, so the round must run
	// with panic semantics (checkpoint routes only).
	killAck chan bool
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
	if p.Shape != nil && p.Shape.NumRels() != p.NumRels {
		return fmt.Errorf("dataflow: recovery shape %v has %d relations, policy %d", p.Shape, p.Shape.NumRels(), p.NumRels)
	}
	a := &recState{
		ex:        ex,
		pol:       p,
		node:      n,
		relOfEdge: make([]int, len(n.inputs)),
		pidBase:   map[*node]int{},
		faults:    make(chan faultNote, 2+n.par),
		killAck:   make(chan bool, 1),
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
	a.ckPut = make([]atomic.Bool, n.par)
	for pid := range a.bufs {
		a.bufs[pid] = make([][]replayEnt, n.par)
		a.trims[pid] = make([]atomic.Int64, n.par)
	}
	if !a.scheduled {
		a.resolvePlan() // nothing to linger for
	}
	ex.rec, ex.ctl = a, n
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

// handleFault is the control loop's handling of one fault note: a voided
// plan resolves, anything else runs one recovery round end to end. It
// reports false when the run is shutting down.
func (a *recState) handleFault(f faultNote) bool {
	if f.void {
		a.resolvePlan()
		return true
	}
	start := time.Now()
	// A panic round quiesces only the victim (its peers may already have
	// exited); a kill round may route state from any peer.
	tasks := []int{f.task}
	if !f.panicked {
		tasks = allTasks(a.node)
	}
	return a.ex.round(func(int64) []int { return tasks }, func(cur *core.Hypercube) (*core.Hypercube, bool) {
		return cur, a.restore(f, tasks, start)
	})
}

// restore runs the body of a recovery round behind the closed gate: kill,
// route, and run the state transfer with the controller as the Checkpoint
// source, replaying the input past the checkpoint.
func (a *recState) restore(f faultNote, tasks []int, start time.Time) bool {
	m := &a.ex.metrics.Recovery

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
		if !a.ex.sendCtrl(f.task, envelope{ctrl: ctrlKill}) {
			return false
		}
		select {
		case alreadyPanicked := <-a.killAck:
			if alreadyPanicked {
				f.panicked = true
			}
		case <-a.ex.abort:
			return false
		case <-a.ex.ctlQuit:
			return false
		}
	}

	// Route per relation: the move set of losing the victim's cell in the
	// shape the gate publishes (it is stable here: rounds are serial) when
	// the fault is a quiesced kill (a panicked task has unemitted deltas a
	// peer snapshot would swallow), Checkpoint for every relation otherwise.
	lost := []int{f.task}
	ms := checkpointMoves(a.pol.NumRels, a.node.par, lost)
	if hc := a.ex.gate.shape(); hc != nil && !f.panicked && !a.pol.DisablePeer {
		var err error
		if ms, err = core.Moves(hc, hc, lost); err != nil {
			a.ex.fail(fmt.Errorf("dataflow: recovery of %s[%d]: %w", a.node.name, f.task, err))
			return false
		}
	}
	ckRels := make([]bool, a.pol.NumRels)
	needCk := false
	for rel := range ckRels {
		if f.task >= len(ms.From[rel]) {
			continue // a task outside the shape holds nothing
		}
		for _, src := range ms.From[rel][f.task] {
			if src == core.Checkpoint {
				ckRels[rel], needCk = true, true
				m.CheckpointRels.Add(1)
			} else {
				m.PeerRels.Add(1)
			}
		}
	}

	// Load the failed task's latest checkpoint only when some relation needs
	// it and this run has written one: a fully peer-recoverable machine
	// never touches the checkpoint medium at all — the whole point of the
	// §5 optimization. The manifest bounds the replay, and a disk store
	// charges the read to the recovery clock here.
	var ck *recovery.Checkpoint
	if needCk && a.ckPut[f.task].Load() {
		got, found, err := a.pol.Store.Get(a.node.name, f.task)
		if err != nil {
			a.ex.fail(fmt.Errorf("dataflow: recovery of %s[%d]: %w", a.node.name, f.task, err))
			return false
		}
		if found {
			ck = got
			m.StoreReads.Add(1)
			for _, frames := range ck.Frames {
				for _, frame := range frames {
					m.StoreBytes.Add(int64(len(frame)))
				}
			}
		}
	}
	cmd := &movesCmd{moves: ms, lost: lost}
	if a.ex.adapt != nil {
		cmd.epoch = a.ex.adapt.epoch
	}
	if ck != nil {
		cmd.manifest = &ck.Manifest
	}
	if !a.ex.moveRound(tasks, cmd, func() bool { return a.serveCheckpoint(f.task, ckRels, ck) }) {
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

// checkpointMoves is the move set of a recovery round without peer routes:
// every relation of the lost tasks comes from Checkpoint, and every other
// task keeps its state. A panic round takes it, and so do DisablePeer and
// a component without a Shape.
func checkpointMoves(rels, tasks int, lost []int) *core.MoveSet {
	ms := &core.MoveSet{Keep: make([][]bool, tasks), From: make([][][]int, rels)}
	for c := range ms.Keep {
		ms.Keep[c] = make([]bool, rels)
		for rel := range ms.Keep[c] {
			ms.Keep[c][rel] = !slices.Contains(lost, c)
		}
	}
	for rel := range ms.From {
		ms.From[rel] = make([][]int, tasks)
		for _, c := range lost {
			ms.From[rel][c] = []int{core.Checkpoint}
		}
	}
	return ms
}

// serveCheckpoint plays the Checkpoint source of a recovery round: it
// replays the retained input past the checkpoint cursors (ck is nil when
// the victim has none) for every checkpoint-routed relation, then ships each
// one's sealed segments and checkpoint frames and ends it with a
// ctrlMoveDone. Under-replay is impossible because trims only advance at
// checkpoint commits.
func (a *recState) serveCheckpoint(victim int, ckRels []bool, ck *recovery.Checkpoint) bool {
	m := &a.ex.metrics.Recovery
	streams := make(map[string][]int64)
	for i, e := range a.node.inputs {
		if !ckRels[a.relOfEdge[i]] {
			continue // peer-routed relation: no replay
		}
		curs := make([]int64, e.from.par)
		if ck != nil {
			for p := range curs {
				curs[p] = ck.Manifest.CursorFor(e.from.name, p)
			}
		}
		streams[e.from.name] = curs
	}
	if !a.replay(victim, streams) {
		return false
	}
	// Remote producers replay their own retained input through the same
	// loop, then a flush token; waiting on the tokens (which traverse the
	// victim's inbox behind the replayed data) guarantees the ctrlMoveDone
	// markers below cannot overtake any of it.
	if a.ex.net != nil && !a.ex.net.replayRemote(a.node, victim, streams) {
		return false
	}
	for rel, routed := range ckRels {
		if !routed {
			continue
		}
		if ck != nil && rel < len(ck.Segments) && !a.restoreSegments(victim, rel, ck.Segments[rel]) {
			// The relation's sealed rows live in the store as referenced
			// segments, each verified against the checkpoint's CRC; a
			// corrupt or missing one fails the run — fabricating state is
			// worse than dying.
			return false
		}
		if ck != nil && rel < len(ck.Frames) {
			// Checkpoint frames ship as stored: the importer walks them and
			// fails the run on a malformed row.
			for _, frame := range ck.Frames[rel] {
				n, _ := binary.Uvarint(frame)
				m.RestoredTuples.Add(int64(n))
				if !a.ex.sendCtrl(victim, envelope{ctrl: ctrlMove, mv: &move{rel: rel, frame: frame, count: int(n)}}) {
					return false
				}
			}
		}
		if !a.ex.sendCtrl(victim, envelope{ctrl: ctrlMoveDone}) {
			return false
		}
	}
	return true
}

// replay re-delivers to task victim the retained input of every producer
// hosted in this process whose stream streams names, past that stream's
// per-producer-task cursor. It is the one replay loop: the controller runs
// it for its own producers, and a worker serving a remote replay request
// for its own. ex.send picks the victim's inbox, or the socket to the
// victim's worker under the flow's credit window. The victim dedups by
// sequence, so over-replay is harmless.
func (a *recState) replay(victim int, streams map[string][]int64) bool {
	m := &a.ex.metrics.Recovery
	for _, e := range a.node.inputs {
		curs, ok := streams[e.from.name]
		if !ok || (a.ex.net != nil && !a.ex.net.owns(e.from)) {
			continue
		}
		base := a.pidBase[e.from]
		for p := 0; p < e.from.par; p++ {
			var ckptCur int64
			if p < len(curs) {
				ckptCur = curs[p]
			}
			for _, ent := range a.snapshotBuf(base+p, victim) {
				if ent.seq <= ckptCur {
					continue
				}
				// The retained frame is shared with the buffer: replay never
				// pools it, and consumers only read frames.
				env := envelope{stream: e.from.name, from: p, seq: ent.seq, frame: ent.frame, count: ent.count}
				m.ReplayedEnvelopes.Add(1)
				m.ReplayedTuples.Add(int64(ent.count))
				if !a.ex.send(a.node, victim, env) {
					return false
				}
			}
		}
	}
	return true
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
	requested bool // trigger sent to the control loop, resolution pending
	// Restore state: the task lost its state and waits for its round.
	recovering bool
	stash      []envelope
	poisoned   *envelope // the frame a captured panic interrupted
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
// still owes the kill round's marker its ack, and the kill round then
// services this session with panic semantics.
func (s *recSession) startRecovery() {
	s.recovering = true
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
	// Tiered bolts checkpoint incrementally: sealed segments were persisted
	// to the checkpoint store when they sealed (or spilled), so the
	// checkpoint references them by key + CRC and only the hot (unsealed)
	// rows are exported as frames. The bolt decides per relation; any other
	// bolt exports every row as frames.
	batch := a.ex.opts.BatchSize
	var frames [][]byte
	var bytes int64
	keep := func(frame []byte, count int) bool {
		frames = append(frames, append([]byte(nil), frame...))
		ck.Tuples += int64(count)
		bytes += int64(len(frame))
		return true
	}
	te, tiered := bolt.(TierExporter)
	ck.Segments = make([][]recovery.SegmentRef, a.pol.NumRels)
	for rel := range ck.Segments {
		frames = nil
		var cks []slab.SegmentCk
		var err error
		if tiered {
			cks, err = te.ExportStateTier(rel, batch, keep)
		} else {
			rep.ExportStateFrames(rel, batch, keep)
		}
		if err != nil {
			return err
		}
		for _, c := range cks {
			ck.Segments[rel] = append(ck.Segments[rel], recovery.SegmentRef{Key: c.Key, CRC: c.CRC, Rows: int64(c.Rows)})
		}
		ck.Frames = append(ck.Frames, frames)
	}
	if err := a.pol.Store.Put(a.node.name, s.task, ck); err != nil {
		return err
	}
	a.ckPut[s.task].Store(true)
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
// recovering task, one frame per segment. Every blob read back from the
// store is verified byte-for-byte: the segment codec's own CRC must decode
// clean AND match the CRC the manifest recorded at checkpoint time, the row
// count must match, and every row span must hold exactly one encoded row.
// Any failure fails the run, including an empty row span or trailing bytes
// after a row: the alternatives are fabricating rows or silently dropping
// them.
func (a *recState) restoreSegments(task, rel int, refs []recovery.SegmentRef) bool {
	if len(refs) == 0 {
		return true
	}
	ss, ok := a.pol.Store.(slab.SegmentStore)
	if !ok {
		a.ex.fail(fmt.Errorf("dataflow: checkpoint of %s[%d] references segments but store %T cannot read them", a.node.name, task, a.pol.Store))
		return false
	}
	m := &a.ex.metrics.Recovery
	var cur wire.Cursor
	for si, sr := range refs {
		blob, found, err := ss.GetSegment(sr.Key, nil)
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
		rows := max(len(offs)-1, 0)
		frame := binary.AppendUvarint(make([]byte, 0, binary.MaxVarintLen64+len(payload)), uint64(rows))
		for i := 0; err == nil && i < rows; i++ {
			span := payload[offs[i]:offs[i+1]]
			if rerr := cur.Reset(span); rerr != nil {
				err = fmt.Errorf("%w: row %d: %v", slab.ErrSegmentCorrupt, i, rerr)
			}
			frame = append(frame, span...)
		}
		if err != nil {
			a.ex.fail(fmt.Errorf("dataflow: checkpoint of %s[%d] rel %d segment %d (%s): %w", a.node.name, task, rel, si, sr.Key, err))
			return false
		}
		m.StoreReads.Add(1)
		m.SegmentBytes.Add(int64(len(blob)))
		m.StoreBytes.Add(int64(len(blob)))
		m.RestoredTuples.Add(int64(rows))
		if rows == 0 {
			continue
		}
		if !a.ex.sendCtrl(task, envelope{ctrl: ctrlMove, mv: &move{rel: rel, frame: frame, count: rows}}) {
			return false
		}
	}
	return true
}
