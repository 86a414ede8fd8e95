// Live adaptive 1-Bucket execution (§5, "Hypercube sizes"): the control
// plane that lets a running 2-way random-partitioned join reshape its
// rows x cols matrix as the observed |R| : |S| ratio drifts, migrating only
// the state whose cells change.
//
// The protocol per reshape:
//
//  1. Joiner tasks push periodic load reports (stored tuples per side) to a
//     per-run controller goroutine, which feeds them to the decision logic
//     shared with the offline operator (adaptive.Decide).
//  2. When a better matrix clears the hysteresis margin, the controller
//     closes a pause gate: producers route-and-send adaptive-edge rows
//     inside the gate, so once the gate is drained every row routed under
//     the old matrix is already enqueued.
//  3. The controller enqueues a reshape barrier marker into every joiner
//     task's inbox. FIFO inboxes guarantee each task sees all old-epoch
//     tuples before the barrier.
//  4. On the barrier, each task resolves which sides it keeps (its cell
//     coordinates are unchanged between the matrices) and which it drops;
//     row/column primaries export the moving state to its new owners over
//     the ordinary wire batch framing — migration bytes are charged to the
//     sender's BytesOut exactly like any network transfer. Imports are
//     silent inserts: every pair among pre-barrier state already met at
//     exactly one old cell, so re-probing would double-count results.
//  5. When a task holds migration-done markers from every peer it acks the
//     controller; once all tasks ack, the controller installs the new
//     matrix and reopens the gate. New tuples route under the new shape.
//
// See DESIGN.md ("Runtime adaptation") for the cost accounting and the
// exactly-once argument.
package dataflow

import (
	"fmt"
	"sync"
	"sync/atomic"

	"squall/internal/adaptive"
	"squall/internal/types"
	"squall/internal/wire"
)

// Repartitioner is implemented by bolts whose per-relation state can be
// exported, discarded and re-imported while a run is live. Sides are the
// adaptive join's relation indexes (0 = R, the row side; 1 = S, the column
// side). The executor requires the adaptive component's bolts to implement
// this interface.
type Repartitioner interface {
	// StoredCount returns the stored tuples of one side (load reports).
	StoredCount(side int) int
	// ExportState snapshots the stored tuples of one side. The returned
	// slice must remain valid after ResetForReshape.
	ExportState(side int) []types.Tuple
	// ResetForReshape rebuilds local state retaining only the indicated
	// sides; dropped sides are refilled through ImportState.
	ResetForReshape(keep [2]bool) error
	// ImportState silently inserts migrated tuples: state is updated but no
	// join results are produced (the pairs already met pre-migration).
	ImportState(side int, tuples []types.Tuple) error
}

// FrameExporter is optionally implemented by Repartitioners whose state is
// stored wire-encoded in slab arenas: ExportStateFrames streams one
// side's stored tuples as ready-made wire batch frames of up to batchSize
// tuples, blitted from the packed rows without materializing []types.Value
// tuples. The frame buffer is only valid during the visit callback; visit
// returning false stops the stream. It reports false when the state is not
// frame-exportable, in which case the migration path falls back to
// ExportState. With footer set, uniform-arity frames carry a
// column-offset footer (PR 6); footers are advisory, so every frame
// consumer decodes footered exports identically.
type FrameExporter interface {
	ExportStateFrames(side, batchSize int, footer bool, visit func(frame []byte, count int) bool) bool
}

// AdaptivePolicy configures live 1-Bucket adaptation of one 2-way join
// component. The component's two input edges (from RStream and SStream) stop
// using their registered groupings: R tuples pick a random row of the
// current matrix and replicate across its columns, S tuples pick a random
// column and replicate across its rows.
type AdaptivePolicy struct {
	// Component names the joiner whose matrix adapts. All of its inputs
	// must come from RStream and SStream, and its bolts must implement
	// Repartitioner.
	Component string
	// RStream and SStream name the upstream components carrying the row
	// and column relations.
	RStream, SStream string
	// InitialRows x InitialCols is the starting matrix (must fit the
	// component's parallelism). Zero means the square-ish
	// adaptive.OptimalMatrix(par, 1, 1).
	InitialRows, InitialCols int
	// ReportEvery is how many processed tuples a joiner task waits between
	// load reports. Default 256.
	ReportEvery int
	// MinGain is the relative load improvement required to reshape
	// (hysteresis against oscillation). Default 0.2.
	MinGain float64
	// MinObserved defers the first reshape until this many tuples are
	// stored across tasks. Default 512.
	MinObserved int64
	// MaxReshapes caps reshapes per run when > 0.
	MaxReshapes int
	// Static freezes the initial matrix: tuples route through the adaptive
	// machinery but the controller never reshapes. This is the fixed-matrix
	// baseline adaptive runs are measured against.
	Static bool
}

func (p *AdaptivePolicy) withDefaults() AdaptivePolicy {
	q := *p
	if q.ReportEvery <= 0 {
		q.ReportEvery = 256
	}
	if q.MinGain <= 0 {
		q.MinGain = 0.2
	}
	if q.MinObserved <= 0 {
		q.MinObserved = 512
	}
	return q
}

// ctrlKind tags control-plane envelopes (zero on data envelopes).
type ctrlKind uint8

const (
	ctrlNone ctrlKind = iota
	// ctrlReshape is the barrier marker opening a migration round.
	ctrlReshape
	// ctrlMigBatch carries one wire frame of migrated state.
	ctrlMigBatch
	// ctrlMigDone marks the end of one peer's exports.
	ctrlMigDone
)

// reshapeCmd is the barrier payload: the matrices to migrate between.
type reshapeCmd struct {
	epoch     int
	old, next adaptive.Matrix
}

// migBatch is one chunk of migrated state.
type migBatch struct {
	epoch  int
	side   int
	tuples []types.Tuple
}

// loadReport is one joiner task's stored-state sizes, tagged with the
// reshape epoch the state was measured under: the controller aggregates
// only current-epoch reports, because counts measured under another matrix
// shape carry that shape's replication factors.
type loadReport struct {
	task  int
	epoch int
	r, s  int64
}

// AdaptMetrics counts live-reshape activity (all zero when no adaptation
// policy is installed). Migrated traffic is charged to the sending task's
// BytesOut but deliberately kept out of Sent/Received, which measure the
// query's own dataflow (replication factor, §6).
type AdaptMetrics struct {
	Reshapes       atomic.Int64 // completed reshape rounds
	MigratedTuples atomic.Int64 // tuple copies moved between tasks
	MigratedBytes  atomic.Int64 // serialized bytes of migrated state
	// FinalRows x FinalCols is the matrix the run ended on.
	FinalRows, FinalCols atomic.Int64
}

// adaptState is the per-run control plane: the pause gate producers route
// through, the controller's decision inputs, and the migration plumbing.
type adaptState struct {
	ex   *execution
	pol  AdaptivePolicy
	node *node // the adaptive joiner
	// sideByNode maps a producer node to 0 (R) or 1 (S).
	sideByNode map[*node]int

	mu       sync.Mutex
	matrix   adaptive.Matrix // current routing matrix (read inside the gate)
	paused   bool
	active   int           // producers inside the gate
	resumeCh chan struct{} // closed when the gate reopens
	idleCh   chan struct{} // closed when active hits 0 while paused
	// routeEpoch counts matrix installs: producers compare it against the
	// epoch of their pending batches and re-route stale ones.
	routeEpoch int

	// live counts producer tasks on adaptive edges that have not sent EOS;
	// decremented inside the gate, so after a pause the controller reads an
	// exact value: if 0, every joiner task may already have exited and a
	// barrier could never be acked.
	live atomic.Int64

	reports chan loadReport
	// acks carries each task's end-of-round acknowledgement together with
	// its post-migration load refresh: the delivery is blocking (unlike the
	// lossy periodic reports), so the controller's post-reshape picture is
	// complete by construction.
	acks     chan loadReport
	quit     chan struct{} // closed by Run after all tasks finish
	done     chan struct{} // closed when the controller goroutine exits
	exportWG sync.WaitGroup

	cur      adaptive.Matrix // controller's view; sole writer
	epoch    int
	reshapes int
	// latest holds each task's most recent load report (controller-owned:
	// written from run() and from reshape()'s ack wait, same goroutine).
	latest []loadReport
}

// initAdaptive validates the policy against the topology and installs the
// control plane on the execution.
func (ex *execution) initAdaptive(pol *AdaptivePolicy) error {
	p := pol.withDefaults()
	n, ok := ex.topo.byN[p.Component]
	if !ok || n.bolt == nil {
		return fmt.Errorf("dataflow: adaptive component %q is not a registered bolt", p.Component)
	}
	rn, ok := ex.topo.byN[p.RStream]
	if !ok {
		return fmt.Errorf("dataflow: adaptive R stream %q not registered", p.RStream)
	}
	sn, ok := ex.topo.byN[p.SStream]
	if !ok {
		return fmt.Errorf("dataflow: adaptive S stream %q not registered", p.SStream)
	}
	if rn == sn {
		return fmt.Errorf("dataflow: adaptive R and S streams must differ, both are %q", p.RStream)
	}
	// All inputs of the adaptive component must be the two adaptive edges:
	// any other producer would bypass the pause gate and break the barrier.
	if len(n.inputs) != 2 {
		return fmt.Errorf("dataflow: adaptive component %q needs exactly inputs %q and %q", p.Component, p.RStream, p.SStream)
	}
	for _, e := range n.inputs {
		if e.from != rn && e.from != sn {
			return fmt.Errorf("dataflow: adaptive component %q has non-adaptive input %q", p.Component, e.from.name)
		}
	}
	m := adaptive.Matrix{Rows: p.InitialRows, Cols: p.InitialCols}
	if m.Rows == 0 && m.Cols == 0 {
		m = adaptive.OptimalMatrix(n.par, 1, 1)
	}
	if m.Rows < 1 || m.Cols < 1 || m.Machines() > n.par {
		return fmt.Errorf("dataflow: adaptive matrix %dx%d does not fit %d tasks", m.Rows, m.Cols, n.par)
	}
	a := &adaptState{
		ex:         ex,
		pol:        p,
		node:       n,
		sideByNode: map[*node]int{rn: 0, sn: 1},
		matrix:     m,
		cur:        m,
		resumeCh:   make(chan struct{}),
		reports:    make(chan loadReport, 8*n.par),
		acks:       make(chan loadReport, n.par),
		quit:       make(chan struct{}),
		done:       make(chan struct{}),
	}
	liveCnt := rn.par + sn.par
	if ex.net != nil {
		// In a cluster run, live counts the producers hosted *here*; the
		// controller adds the remote workers' counts from their pause acks.
		liveCnt = 0
		if ex.net.owns(rn) {
			liveCnt += rn.par
		}
		if ex.net.owns(sn) {
			liveCnt += sn.par
		}
	}
	a.live.Store(int64(liveCnt))
	a.latest = make([]loadReport, n.par)
	ex.metrics.Adapt.FinalRows.Store(int64(m.Rows))
	ex.metrics.Adapt.FinalCols.Store(int64(m.Cols))
	ex.adapt = a
	return nil
}

// sidesFor returns, for one producer node, the adaptive side of each output
// edge (-1 for normal edges), or nil when the node has no adaptive edges.
func (a *adaptState) sidesFor(n *node) []int {
	side, ok := a.sideByNode[n]
	if !ok {
		return nil
	}
	out := make([]int, len(n.outputs))
	any := false
	for i, e := range n.outputs {
		out[i] = -1
		if e.to == a.node {
			out[i] = side
			any = true
		}
	}
	if !any {
		return nil
	}
	return out
}

// enter joins the pause gate, blocking while a reshape is in flight. It
// returns the routing matrix to use and its epoch (bumped whenever the
// matrix changes, so producers can detect pending batches routed under a
// superseded shape); ok is false when the run aborted.
func (a *adaptState) enter() (m adaptive.Matrix, epoch int, ok bool) {
	a.mu.Lock()
	for a.paused {
		ch := a.resumeCh
		a.mu.Unlock()
		select {
		case <-ch:
		case <-a.ex.abort:
			return adaptive.Matrix{}, 0, false
		}
		a.mu.Lock()
	}
	a.active++
	m = a.matrix
	epoch = a.routeEpoch
	a.mu.Unlock()
	return m, epoch, true
}

// exit leaves the gate, waking a paused controller once drained.
func (a *adaptState) exit() {
	a.mu.Lock()
	a.active--
	if a.active == 0 && a.paused && a.idleCh != nil {
		close(a.idleCh)
		a.idleCh = nil
	}
	a.mu.Unlock()
}

// pause closes the gate and waits until no producer is inside it: at that
// point every tuple routed under the old matrix is enqueued, so a barrier
// marker enqueued next is ordered after all of them.
func (a *adaptState) pause() bool {
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

// resume installs the matrix and reopens the gate.
func (a *adaptState) resume(m adaptive.Matrix) {
	a.mu.Lock()
	if m != a.matrix {
		a.matrix = m
		a.routeEpoch++
	}
	a.paused = false
	ch := a.resumeCh
	a.mu.Unlock()
	close(ch)
}

// report delivers one task's load report, dropping it when the controller
// is busy (reports are advisory; the next one supersedes).
func (a *adaptState) report(task, epoch int, rep Repartitioner) {
	select {
	case a.reports <- loadReport{task: task, epoch: epoch, r: int64(rep.StoredCount(0)), s: int64(rep.StoredCount(1))}:
	default:
	}
}

// run is the controller goroutine: aggregate load reports, decide, reshape.
func (a *adaptState) run() {
	defer close(a.done)
	for {
		select {
		case rep := <-a.reports:
			a.latest[rep.task] = rep
		case <-a.ex.abort:
			return
		case <-a.quit:
			return
		}
		// Drain whatever else is already queued before deciding: after a
		// reshape every task's refresh report is enqueued before its ack,
		// so this guarantees the first post-reshape decision sees all of
		// them rather than a single task's slice of the new placement.
		for drained := false; !drained; {
			select {
			case rep := <-a.reports:
				a.latest[rep.task] = rep
			default:
				drained = true
			}
		}
		if a.pol.Static {
			continue
		}
		if a.pol.MaxReshapes > 0 && a.reshapes >= a.pol.MaxReshapes {
			continue
		}
		// Aggregate only reports measured under the current matrix: counts
		// from another epoch carry that shape's replication factors, and a
		// partial post-reshape view (one task's counts, the rest missing)
		// whipsaws the observed ratio. Every task re-reports the instant it
		// finishes a migration round, so the picture is complete again right
		// after each reshape.
		var storedR, storedS int64
		for _, rep := range a.latest {
			if rep.epoch == a.epoch {
				storedR += rep.r
				storedS += rep.s
			}
		}
		// Tasks store replicated copies — an R tuple lives on every cell of
		// its row — so the summed counts overstate the relation sizes by the
		// current replication factors. Undo them, or the decision would
		// chase its own matrix shape and oscillate.
		r := float64(storedR) / float64(a.cur.Cols)
		s := float64(storedS) / float64(a.cur.Rows)
		if r+s < float64(a.pol.MinObserved) {
			continue
		}
		next, ok := adaptive.Decide(a.node.par, a.cur, r, s, a.pol.MinGain)
		if !ok {
			continue
		}
		if !a.reshape(next) {
			return
		}
	}
}

// reshape runs one barrier/migrate/resume round. It reports false when the
// run is shutting down (abort, or all tasks already finished). The round
// holds the execution's roundMu end to end, serializing it against recovery
// rounds (recover.go) — a task is never migrating and restoring at once, and
// the recovery manager reads a.cur under the same lock.
func (a *adaptState) reshape(next adaptive.Matrix) bool {
	a.ex.roundMu.Lock()
	defer a.ex.roundMu.Unlock()
	if !a.pause() {
		return false
	}
	// Cluster round: pause the adaptive gate on every remote producer worker
	// (their acks report how many of their producers are still live), then
	// flush in-flight remote data ahead of the barrier markers with tokens
	// through every joiner inbox — post-barrier data mid-migration is a
	// protocol violation the executor fails on.
	var remoteLive int64
	if a.ex.net != nil {
		var ok bool
		if remoteLive, ok = a.ex.net.pauseRemote(planeAdapt, a.node); !ok {
			return false
		}
	}
	// If every adaptive producer has already EOS'd, joiner tasks may have
	// exited and a barrier would never be acked: the stream is over, so the
	// reshape is pointless anyway.
	if a.live.Load()+remoteLive == 0 {
		if a.ex.net != nil && !a.ex.net.resumeRemote(planeAdapt, a.node, a.cur.Rows, a.cur.Cols) {
			return false
		}
		a.resume(a.cur)
		return true
	}
	if a.ex.net != nil && !a.ex.net.quiesce(a.node, allTasks(a.node)) {
		return false
	}
	a.epoch++
	cmd := &reshapeCmd{epoch: a.epoch, old: a.cur, next: next}
	for t := 0; t < a.node.par; t++ {
		if !a.sendCtrl(t, envelope{ctrl: ctrlReshape, cmd: cmd}) {
			return false
		}
	}
	for got := 0; got < a.node.par; {
		select {
		case ack := <-a.acks:
			a.latest[ack.task] = ack
			got++
		case rep := <-a.reports:
			// Keep draining the lossy periodic queue while waiting; stale
			// pre-pause entries are epoch-filtered at aggregation time.
			a.latest[rep.task] = rep
		case <-a.ex.abort:
			return false
		case <-a.quit:
			return false
		}
	}
	a.cur = next
	a.reshapes++
	a.ex.metrics.Adapt.Reshapes.Add(1)
	a.ex.metrics.Adapt.FinalRows.Store(int64(next.Rows))
	a.ex.metrics.Adapt.FinalCols.Store(int64(next.Cols))
	if a.ex.net != nil && !a.ex.net.resumeRemote(planeAdapt, a.node, next.Rows, next.Cols) {
		return false
	}
	a.resume(next)
	return true
}

func (a *adaptState) sendCtrl(task int, env envelope) bool {
	select {
	case a.ex.inboxes[a.node][task] <- env:
		return true
	case <-a.ex.abort:
		return false
	case <-a.quit:
		return false
	}
}

// migSession tracks one joiner task's progress through a migration round.
type migSession struct {
	epoch int
	dones int // peers (including self) whose exports have fully arrived
}

func (s *migSession) complete(par int) bool { return s.dones == par }

// sideExport is the state one primary ships for one side: either pre-built
// wire batch frames (slab-backed state, snapshotted by blitting rows) or
// materialized tuples (state without slab rows).
type sideExport struct {
	frames [][]byte // each a complete wire batch frame
	tuples []types.Tuple
	dests  []int
}

// snapshotExport captures one side's state before ResetForReshape rebuilds
// it. Frame-exporting state copies the packed frames — encoded bytes, no
// tuple materialization; other state snapshots decoded tuples.
func (a *adaptState) snapshotExport(rep Repartitioner, side int, dests []int) sideExport {
	exp := sideExport{dests: dests}
	if fe, ok := rep.(FrameExporter); ok {
		done := fe.ExportStateFrames(side, a.ex.opts.BatchSize, a.ex.opts.VecExec, func(frame []byte, _ int) bool {
			exp.frames = append(exp.frames, append([]byte(nil), frame...))
			return true
		})
		if done {
			return exp
		}
	}
	exp.tuples = rep.ExportState(side)
	return exp
}

// beginMigration runs the task-local half of the barrier: resolve what this
// task keeps, snapshot what it must export as a primary, rebuild local
// state, and ship the exports from a sender goroutine (the task's main loop
// keeps draining its inbox, so peer exchanges cannot deadlock on full
// inboxes).
func (a *adaptState) beginMigration(task int, rep Repartitioner, tm *TaskMetrics, cmd *reshapeCmd) (*migSession, error) {
	old, next := cmd.old, cmd.next
	var exports [2]sideExport
	var keep [2]bool
	if task < old.Rows*old.Cols { // task held state under the old matrix
		row, col := task/old.Cols, task%old.Cols
		newRow, newCol := row%next.Rows, col%next.Cols
		inNew := task < next.Rows*next.Cols
		// A side survives in place iff this task is a cell of the new
		// matrix on the same (wrapped) coordinate, i.e. the cell does not
		// change for that side — the paper's "only the state that changes
		// cells migrates".
		keep[0] = inNew && task/next.Cols == newRow
		keep[1] = inNew && task%next.Cols == newCol
		if col == 0 {
			// Leftmost cell of each old row holds the row's entire R state
			// (row-side tuples replicate across columns): it is the row's
			// primary, exporting to the new row's cells that don't already
			// hold the state (old cells of this row that keep it).
			var dests []int
			for c := 0; c < next.Cols; c++ {
				d := newRow*next.Cols + c
				if d < old.Rows*old.Cols && d/old.Cols == row {
					continue // old holder, retains in place
				}
				dests = append(dests, d)
			}
			if len(dests) > 0 {
				exports[0] = a.snapshotExport(rep, 0, dests)
			}
		}
		if row == 0 {
			// Topmost cell of each old column: the column's S primary.
			var dests []int
			for r := 0; r < next.Rows; r++ {
				d := r*next.Cols + newCol
				if d < old.Rows*old.Cols && d%old.Cols == col {
					continue
				}
				dests = append(dests, d)
			}
			if len(dests) > 0 {
				exports[1] = a.snapshotExport(rep, 1, dests)
			}
		}
	}
	if err := rep.ResetForReshape(keep); err != nil {
		return nil, err
	}
	a.exportWG.Add(1)
	go a.sendExports(task, tm, cmd.epoch, exports)
	return &migSession{epoch: cmd.epoch}, nil
}

// sendExports ships one task's exports as wire batch frames, then marks the
// end of its exports to every peer. Slab-backed state arrives as pre-built
// frames (snapshotExport blitted the packed rows), so this path never
// re-encodes; tuples from ExportState are chunked and encoded here. Runs
// concurrently with the task's main loop; TaskMetrics fields are atomics.
func (a *adaptState) sendExports(task int, tm *TaskMetrics, epoch int, exports [2]sideExport) {
	defer a.exportWG.Done()
	var scratch []byte
	var dec wire.BatchDecoder
	batchSize := a.ex.opts.BatchSize
	// shipFrame delivers one encoded frame to every destination, each
	// receiving its own decoded copies and the sender charged the frame
	// bytes, exactly like a data hop (DESIGN.md substitution table).
	shipFrame := func(frame []byte, side int, dests []int) bool {
		for _, d := range dests {
			out, _, err := dec.Decode(frame)
			if err != nil {
				a.ex.fail(fmt.Errorf("dataflow: migration wire corruption at %s[%d]: %w", a.node.name, task, err))
				return false
			}
			tm.BytesOut.Add(int64(len(frame)))
			a.ex.metrics.Adapt.MigratedBytes.Add(int64(len(frame)))
			a.ex.metrics.Adapt.MigratedTuples.Add(int64(len(out)))
			env := envelope{from: task, ctrl: ctrlMigBatch, mig: &migBatch{epoch: epoch, side: side, tuples: out}}
			if !a.ex.send(a.node, d, env) {
				return false
			}
		}
		return true
	}
	for side, exp := range exports {
		for _, frame := range exp.frames {
			if !shipFrame(frame, side, exp.dests) {
				return
			}
		}
		for start := 0; start < len(exp.tuples); start += batchSize {
			end := start + batchSize
			if end > len(exp.tuples) {
				end = len(exp.tuples)
			}
			scratch = wire.EncodeBatch(scratch[:0], exp.tuples[start:end])
			if !shipFrame(scratch, side, exp.dests) {
				return
			}
		}
	}
	for d := 0; d < a.node.par; d++ {
		if !a.ex.send(a.node, d, envelope{from: task, ctrl: ctrlMigDone, mig: &migBatch{epoch: epoch}}) {
			return
		}
	}
}

// applyMig folds one control envelope into the task's migration session.
func (a *adaptState) applyMig(mig *migSession, rep Repartitioner, env envelope) error {
	switch env.ctrl {
	case ctrlMigBatch:
		if env.mig.epoch != mig.epoch {
			return fmt.Errorf("dataflow: migration batch for epoch %d during epoch %d", env.mig.epoch, mig.epoch)
		}
		return rep.ImportState(env.mig.side, env.mig.tuples)
	case ctrlMigDone:
		mig.dones++
		return nil
	default:
		return fmt.Errorf("dataflow: unexpected control envelope %d mid-migration", env.ctrl)
	}
}

// ackMigration tells the controller this task finished the round, carrying
// the task's post-migration load refresh so the controller's first
// post-reshape decision aggregates every task's slice of the new placement.
func (a *adaptState) ackMigration(task, epoch int, rep Repartitioner) {
	ack := loadReport{task: task, epoch: epoch, r: int64(rep.StoredCount(0)), s: int64(rep.StoredCount(1))}
	select {
	case a.acks <- ack:
	case <-a.ex.abort:
	case <-a.quit:
	}
}

// producerEOS flushes an adaptive edge's pending frames and broadcasts the
// producer task's EOS, all from inside the gate, so a paused reshape never
// interleaves with them; it then retires the producer from the live count
// before releasing the gate (the controller must observe an exact count
// after any pause).
func (c *Collector) producerEOS(ei int) {
	a := c.ex.adapt
	e := c.node.outputs[ei]
	m, epoch, ok := a.enter()
	if !ok {
		a.live.Add(-1) // aborting; the controller is unwinding too
		return
	}
	// The decrement must happen before exit(): the controller reads live
	// right after draining the gate, and a retired producer observed late
	// would let it open a barrier that joiner tasks (their EOS set already
	// complete) will never read.
	defer a.exit()
	defer a.live.Add(-1)
	if c.adaptEpoch != epoch {
		if err := c.rerouteAdaptive(m); err != nil {
			c.ex.fail(fmt.Errorf("dataflow: %s[%d] final adaptive reroute: %w", c.node.name, c.task, err))
			return
		}
		c.adaptEpoch = epoch
	}
	side := c.adaptSide[ei]
	for coord := range c.adaptOut[ei] {
		if err := c.flushAdaptive(ei, side, coord, m); err != nil {
			// Abort (send refused) is a no-op; surface anything else.
			c.ex.fail(fmt.Errorf("dataflow: %s[%d] final adaptive flush: %w", c.node.name, c.task, err))
			return
		}
	}
	for target := 0; target < e.to.par; target++ {
		if !c.ex.send(e.to, target, envelope{stream: c.node.name, from: c.task, eos: true}) {
			return
		}
	}
}

// emitAdaptive routes one row on an adaptive edge: 1-Bucket routing under
// the current matrix. Rows are buffered once per edge under their picked
// coordinate (row for the R side, column for S); a flush copies the frame
// to every cell of the coordinate, so batch amortization survives
// replication without per-cell row appends. If the matrix changed since the
// last emit, pending (unsent) rows are re-routed under the new shape first —
// they were never delivered, so they are not state anywhere and re-routing
// them is indistinguishable from fresh arrivals.
func (c *Collector) emitAdaptive(ei, side int, row []byte) error {
	a := c.ex.adapt
	m, epoch, ok := a.enter()
	if !ok {
		return c.ex.abortErr()
	}
	defer a.exit()
	if c.adaptEpoch != epoch {
		if err := c.rerouteAdaptive(m); err != nil {
			return err
		}
		c.adaptEpoch = epoch
	}
	return c.routeAdaptive(ei, side, row, m)
}

// routeAdaptive buffers row under a random coordinate of m, flushing the
// coordinate's frame when full. Must run inside the gate.
func (c *Collector) routeAdaptive(ei, side int, row []byte, m adaptive.Matrix) error {
	coord := c.rng.Intn(m.Rows)
	if side == 1 {
		coord = c.rng.Intn(m.Cols)
	}
	// No footer: adaptive joiners take rows one at a time (load reports).
	if c.appendRow(&c.adaptOut[ei][coord], row, false) {
		return c.flushAdaptive(ei, side, coord, m)
	}
	return nil
}

// flushAdaptive ships one coordinate's pending frame to every cell of that
// row (side 0) or column (side 1). Each cell receives its own copy of the
// frame — the last one takes the buffer itself — and each copy is charged
// to BytesOut like a unicast transfer (the DESIGN.md substitution). Must
// run inside the gate.
func (c *Collector) flushAdaptive(ei, side, coord int, m adaptive.Matrix) error {
	rb := &c.adaptOut[ei][coord]
	if rb.count == 0 {
		return nil
	}
	e := c.node.outputs[ei]
	c.tbuf = c.tbuf[:0]
	if side == 0 {
		for col := 0; col < m.Cols; col++ {
			c.tbuf = append(c.tbuf, coord*m.Cols+col)
		}
	} else {
		for row := 0; row < m.Rows; row++ {
			c.tbuf = append(c.tbuf, row*m.Cols+coord)
		}
	}
	// On a recovery-tracked edge each cell's copy is stamped with its own
	// (producer, target) sequence and retained for replay, so it is never
	// pooled; the caller already holds the recovery gate
	// (emitAdaptiveGated / eos).
	tracked := c.recTracked != nil && c.recTracked[ei]
	frame, count, box := c.seal(rb, false), rb.count, rb.box
	rb.box, rb.buf, rb.count = nil, nil, 0
	last := len(c.tbuf) - 1
	for i, target := range c.tbuf {
		env := envelope{stream: c.node.name, from: c.task, frame: frame, count: count}
		switch {
		case i < last && tracked:
			env.frame = append([]byte(nil), frame...)
		case i < last:
			env.pframe = getFrameBox()
			env.frame = append((*env.pframe)[:0], frame...)
		case tracked:
			*box = nil
			putFrameBox(box)
		default:
			env.pframe = box
		}
		c.metrics.BytesOut.Add(int64(len(frame)))
		c.metrics.Sent.Add(int64(count))
		c.metrics.Batches.Add(1)
		if tracked {
			c.recSeq[ei][target]++
			env.seq = c.recSeq[ei][target]
			c.ex.rec.record(c.recPid, target, replayEnt{seq: env.seq, frame: env.frame, count: count})
		}
		if !c.ex.send(e.to, target, env) {
			return c.ex.abortErr()
		}
	}
	return nil
}

// rerouteAdaptive re-assigns every pending (unsent) adaptive row under the
// new matrix. All of an edge's coordinates are drained into scratch before
// any row is re-routed — a row re-buffered into a not-yet-visited
// coordinate must not be picked up twice. Must run inside the gate.
func (c *Collector) rerouteAdaptive(m adaptive.Matrix) error {
	var cur wire.Cursor
	for ei, side := range c.adaptSide {
		if side < 0 {
			continue
		}
		pending, ends := c.adaptReroute[:0], c.adaptEnds[:0]
		for coord := range c.adaptOut[ei] {
			rb := &c.adaptOut[ei][coord]
			if rb.count == 0 {
				continue
			}
			for rows := rb.buf[c.hdrRoom:]; len(rows) > 0; {
				n, err := cur.Parse(rows)
				if err != nil {
					return fmt.Errorf("dataflow: pending adaptive row: %w", err)
				}
				pending = append(pending, rows[:n]...)
				ends = append(ends, len(pending))
				rows = rows[n:]
			}
			rb.buf, rb.count = rb.buf[:c.hdrRoom], 0
		}
		c.adaptReroute, c.adaptEnds = pending, ends
		start := 0
		for _, end := range ends {
			if err := c.routeAdaptive(ei, side, pending[start:end], m); err != nil {
				return err
			}
			start = end
		}
	}
	return nil
}
