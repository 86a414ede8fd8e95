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
//     cursors, which is what keeps them bounded. After a live reshape
//     (adapt.go) each task re-checkpoints immediately: migration moves state
//     between tasks without consuming input, so an older checkpoint plus
//     replay could not reconstruct the new placement.
//
//   - Quiesced kills. An injected fault (Options.Recovery.Fault) fires
//     through the execution's control loop as one round (execution.round,
//     serial with reshape rounds): the round closes the gate on the tracked
//     edges, and only then enqueues the kill marker, so FIFO inboxes
//     guarantee the dying task has applied every delivered envelope and
//     flushed every pending output. The loss is then pure state loss at a
//     consistent point.
//
//   - Recovery routes. Per relation, the recovery round picks the cheapest
//     source (ft.RecoveryPlan made live over the hypercube the gate
//     publishes — the static scheme, or an adaptive run's live shape): a
//     peer task holding an identical partition — the scheme replicated the
//     relation, so any machine sharing the failed task's coordinates on the
//     relation's own dimensions is a complete copy — or, when nothing
//     replicates, the last checkpoint plus a replay of the retained
//     envelopes past its cursors. State travels as frames on every route — peer exports,
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
	"sync"
	"sync/atomic"
	"time"

	"squall/internal/core"
	"squall/internal/ft"
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
	// at a failed task iff Shape replicates it, from the peers
	// ft.RecoveryPlan names. An adaptive run uses its live shape instead.
	// Nil sends every relation to the checkpoint route.
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
	// checkpoint store during v2 (tiered) restores; a subset of StoreBytes.
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
	// ctrlRecBatch carries one frame of restored state for one relation.
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
	frame    []byte             // ctrlRecBatch: wire batch frame of restored rows
	routes   []int              // per rel: serving peer task, or -1 for checkpoint
	manifest *recovery.Manifest // checkpoint manifest (nil when none exists)
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

	faults chan faultNote
	// killAck reports the victim reached the kill marker; true means a
	// captured panic was already mid-restore there, so the round must run
	// with panic semantics (checkpoint routes only).
	killAck chan bool
	acks    chan int
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
		faults:    make(chan faultNote, 2+n.par),
		killAck:   make(chan bool, 1),
		acks:      make(chan int, 1),
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
		return cur, a.restore(f, start)
	})
}

// restore runs the body of a recovery round behind the closed gate: kill,
// route, ship state, replay, and wait for the victim's ack.
func (a *recState) restore(f faultNote, start time.Time) bool {
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

	// Route per relation: peer refetch when the shape the gate publishes
	// replicates the relation (it is stable here: rounds are serial) and
	// the fault is a quiesced kill (a panicked task has unemitted deltas a
	// peer snapshot would swallow), checkpoint otherwise.
	var plans []ft.Plan
	if hc := a.ex.gate.shape(); hc != nil && !f.panicked && !a.pol.DisablePeer {
		plans, _ = ft.RecoveryPlan(hc, f.task) // a task outside the shape has no peers
	}
	routes := make([]int, a.pol.NumRels)
	needCk := false
	for rel := range routes {
		routes[rel] = -1
		if rel < len(plans) && !plans[rel].Checkpoint {
			routes[rel] = plans[rel].Peers[0]
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
		if haveCk {
			m.StoreReads.Add(1)
			for _, frames := range ck.Frames {
				for _, frame := range frames {
					m.StoreBytes.Add(int64(len(frame)))
				}
			}
		}
	}

	begin := &recMsg{routes: routes}
	if haveCk {
		begin.manifest = &ck.Manifest
	}
	if !a.ex.sendCtrl(f.task, envelope{ctrl: ctrlRecBegin, rec: begin}) {
		return false
	}

	for rel, peer := range routes {
		if peer >= 0 {
			m.PeerRels.Add(1)
			if !a.ex.sendCtrl(peer, envelope{ctrl: ctrlStateReq, rec: &recMsg{rel: rel, target: f.task}}) {
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
			// Checkpoint frames ship as stored: the importer walks them and
			// fails the run on a malformed row.
			for _, frame := range ck.Frames[rel] {
				n, _ := binary.Uvarint(frame)
				m.RestoredTuples.Add(int64(n))
				if !a.ex.sendCtrl(f.task, envelope{ctrl: ctrlRecBatch, rec: &recMsg{rel: rel, frame: frame}}) {
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
			if !a.ex.sendCtrl(f.task, envelope{ctrl: ctrlRecDone, rec: &recMsg{rel: rel}}) {
				return false
			}
		}
	}

	select {
	case <-a.acks:
	case <-a.ex.abort:
		return false
	case <-a.ex.ctlQuit:
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
	// Recovery-round state.
	recovering bool
	panicked   bool
	began      bool
	routes     []int
	manifest   *recovery.Manifest
	dones      int
	stash      []envelope
	poisoned   *envelope   // the frame a captured panic interrupted
	cur        wire.Cursor // import row cursor
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
	var frames [][]byte
	keep := func(frame []byte, count int) bool {
		frames = append(frames, append([]byte(nil), frame...))
		ck.Tuples += int64(count)
		return true
	}

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
				frames = nil
				cks, relOK, err := te.ExportStateTier(rel, batch, keep)
				if err != nil {
					return err
				}
				if !relOK {
					tiered = false
					break
				}
				refs := make([]recovery.SegmentRef, len(cks))
				for i, c := range cks {
					refs[i] = recovery.SegmentRef{Key: c.Key, CRC: c.CRC, Rows: int64(c.Rows)}
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
			frames = nil
			rep.ExportStateFrames(rel, batch, keep)
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
// recovering task, one frame per segment. Every blob read back from the
// store is verified byte-for-byte: the segment codec's own CRC must decode
// clean AND match the CRC the manifest recorded at checkpoint time, the row
// count must match, and every row span must hold exactly one encoded row.
// Any failure fails the run, including an empty row span or trailing bytes
// after a row: the alternatives are fabricating rows or silently dropping
// them.
func (a *recState) restoreSegments(task, rel int, refs []recovery.SegmentRef) bool {
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
		if !a.ex.sendCtrl(task, envelope{ctrl: ctrlRecBatch, rec: &recMsg{rel: rel, frame: frame}}) {
			return false
		}
	}
	return true
}

// serveStateReq exports one relation to a recovering peer over its inbox as
// bare wire batch frames, each copied once — the live form of ft's "recover
// from a peer machine" route. Bytes are charged to this (serving) task like
// any network transfer.
func (s *recSession) serveStateReq(bolt Bolt, tm *TaskMetrics, msg *recMsg) bool {
	a := s.a
	m := &a.ex.metrics.Recovery
	ok := true
	bolt.(Repartitioner).ExportStateFrames(msg.rel, a.ex.opts.BatchSize, func(frame []byte, count int) bool {
		tm.BytesOut.Add(int64(len(frame)))
		m.PeerBytes.Add(int64(len(frame)))
		m.RestoredTuples.Add(int64(count))
		rec := &recMsg{rel: msg.rel, frame: append([]byte(nil), frame...)}
		ok = a.ex.send(a.node, msg.target, envelope{from: s.task, ctrl: ctrlRecBatch, rec: rec})
		return ok
	})
	return ok && a.ex.send(a.node, msg.target, envelope{from: s.task, ctrl: ctrlRecDone, rec: &recMsg{rel: msg.rel}})
}
