// Live adaptive 1-Bucket execution (§5, "Hypercube sizes"): the control
// plane that lets a running 2-way join reshape its Random-Hypercube as the
// observed |R| : |S| ratio drifts, migrating only the state whose cells
// change. In the paper a 2-way Random-Hypercube is 1-Bucket, and so it is
// here: the live shape is a *core.Hypercube built by core.OneBucket over two
// random dims, [S's columns, R's rows], and it is the only geometry. The gate
// publishes it; producers route adaptive edges through its GroupingFor into
// their ordinary per-target buffers; migration and recovery peers read its
// coordinates; and core's optimizer is the load model that reshapes it.
//
// The protocol per reshape:
//
//  1. Joiner tasks push periodic load reports (stored tuples per side) to
//     the execution's control loop, which undoes the shape's replication
//     and asks core for a better matrix (Hypercube.Reshape).
//  2. When one clears the hysteresis margin, the loop opens a round
//     (execution.round) and closes the execution's one gate: producers
//     route and flush adaptive-edge rows inside the gate, so once it is
//     drained every row routed under the old shape is either enqueued or
//     still buffered at its producer.
//  3. The round enqueues a reshape barrier marker into every joiner task's
//     inbox. FIFO inboxes guarantee each task sees all old-shape tuples
//     before the barrier.
//  4. On the barrier, each task applies the migration rule in hypercube
//     coordinates (reshapePlan): it keeps a relation's state in place when
//     its coordinates on the relation's dims are unchanged, and each
//     relation's primary copy snapshots its state as wire batch frames
//     blitted from its slab rows and ships each frame, shared read-only,
//     to every new owner — migration bytes are charged to the sender's
//     BytesOut once per destination, exactly like any network transfer.
//     Importers walk the frame and copy each row into their own arenas
//     (ImportRow). Imports are silent inserts: every pair among
//     pre-barrier state already met at exactly one old cell, so
//     re-probing would double-count results.
//  5. When a task holds migration-done markers from every peer it acks the
//     controller; once all tasks ack, the round reopens the gate under the
//     new shape. A producer re-routes the rows it still buffers under the
//     old shape in its first session after that, before routing anything
//     new: they were never delivered, so they are fresh arrivals.
//
// See DESIGN.md ("Runtime adaptation") for the cost accounting and the
// exactly-once argument.
package dataflow

import (
	"fmt"
	"sync"
	"sync/atomic"

	"squall/internal/core"
	"squall/internal/wire"
)

// Repartitioner is implemented by bolts whose per-relation state can be
// exported, discarded and re-imported while a run is live. State moves in
// one shape: encoded rows in wire batch frames. Sides are the adaptive
// join's relation indexes (0 = R, the row side; 1 = S, the column side);
// the recovery plane uses the same hooks with relation indexes. The
// executor requires adaptive and recovery-protected bolts to implement
// this interface.
type Repartitioner interface {
	// StoredCount returns the stored tuples of one side (load reports).
	StoredCount(side int) int
	// ExportStateFrames streams one side's stored rows as bare wire batch
	// frames of up to batchSize rows. The frame buffer is only valid during
	// the visit callback; visit returning false stops the stream.
	ExportStateFrames(side, batchSize int, visit func(frame []byte, count int) bool)
	// ResetForReshape rebuilds local state retaining only the indicated
	// sides; dropped sides are refilled through ImportRow.
	ResetForReshape(keep [2]bool) error
	// ImportRow silently inserts one encoded row (cur views it): state is
	// updated but no join results are produced (the pairs already met
	// before the migration or the fault). The row must be copied if kept.
	ImportRow(side int, row []byte, cur *wire.Cursor) error
}

// importFrame silently inserts one state frame's rows through ImportRow —
// the single import face of migration, restore and replay.
func importFrame(rep Repartitioner, side int, frame []byte, cur *wire.Cursor) error {
	_, _, err := wire.EachRow(frame, cur, func(row []byte) error {
		return rep.ImportRow(side, row, cur)
	})
	return err
}

// AdaptivePolicy configures live 1-Bucket adaptation of one 2-way join
// component. The component's two input edges (from RStream and SStream) stop
// using their registered groupings and route through the live shape: R
// tuples pick a random row and replicate across its columns, S tuples pick a
// random column and replicate down its rows.
type AdaptivePolicy struct {
	// Component names the joiner whose matrix adapts. All of its inputs
	// must come from RStream and SStream, and its bolts must implement
	// Repartitioner.
	Component string
	// RStream and SStream name the upstream components carrying the row
	// and column relations.
	RStream, SStream string
	// InitialRows x InitialCols pins the starting matrix through
	// core.OneBucket (it must fit the component's parallelism). Zero means
	// the optimizer's square-ish matrix for equal sizes.
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
	// ctrlMigBatch carries one wire batch frame of migrated state.
	ctrlMigBatch
	// ctrlMigDone marks the end of one peer's exports.
	ctrlMigDone
)

// reshapeCmd is the barrier payload: the shapes to migrate between.
type reshapeCmd struct {
	epoch     int
	old, next *core.Hypercube
}

// migBatch is one frame of migrated state. A primary ships the same
// migBatch to every destination: the frame is immutable once snapshotted,
// and each importer copies its rows into its own arena.
type migBatch struct {
	epoch int
	side  int
	frame []byte
	count int
}

// loadReport is one joiner task's stored-state sizes, tagged with the
// reshape epoch the state was measured under: the controller aggregates
// only current-epoch reports, because counts measured under another shape
// carry that shape's replication factors.
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

// adaptState is the per-run adaptive plane: the controller's decision
// inputs and the migration plumbing. Producers route under the shape the
// execution's gate publishes.
type adaptState struct {
	ex   *execution
	pol  AdaptivePolicy
	node *node // the adaptive joiner
	// relOf maps a producer node to its relation: 0 (R) or 1 (S).
	relOf map[*node]int

	reports chan loadReport
	// acks carries each task's end-of-round acknowledgement together with
	// its post-migration load refresh: the delivery is blocking (unlike the
	// lossy periodic reports), so the controller's post-reshape picture is
	// complete by construction.
	acks     chan loadReport
	exportWG sync.WaitGroup

	// Controller-owned (the control loop is their only reader and writer).
	epoch int
	// latest holds each task's most recent load report.
	latest []loadReport
}

// initAdaptive validates the policy against the topology and installs the
// control plane on the execution, publishing the initial shape on its gate.
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
	// any other producer would bypass the gate and break the barrier.
	if len(n.inputs) != 2 {
		return fmt.Errorf("dataflow: adaptive component %q needs exactly inputs %q and %q", p.Component, p.RStream, p.SStream)
	}
	for _, e := range n.inputs {
		if e.from != rn && e.from != sn {
			return fmt.Errorf("dataflow: adaptive component %q has non-adaptive input %q", p.Component, e.from.name)
		}
	}
	spec := core.JoinSpec{Names: []string{p.RStream, p.SStream}, Sizes: []int64{1, 1}}
	hc, err := core.OneBucket(spec, n.par, p.InitialRows, p.InitialCols)
	if err != nil {
		return fmt.Errorf("dataflow: adaptive component %q: %w", p.Component, err)
	}
	ex.adapt = &adaptState{
		ex:      ex,
		pol:     p,
		node:    n,
		relOf:   map[*node]int{rn: 0, sn: 1},
		reports: make(chan loadReport, 8*n.par),
		acks:    make(chan loadReport, n.par),
		latest:  make([]loadReport, n.par),
	}
	ex.ctl, ex.gate.hc = n, hc
	ex.adapt.setFinal(hc)
	return nil
}

// matrix returns the live shape with rows x cols: the installed one when it
// already has them, else a fresh core.OneBucket. A cluster worker rebuilds
// the shape a remote round resumed under from its two dim sizes.
func (a *adaptState) matrix(rows, cols int) (*core.Hypercube, error) {
	cur := a.ex.gate.shape()
	if r, c := cur.Matrix(); r == rows && c == cols {
		return cur, nil
	}
	spec := core.JoinSpec{Names: []string{a.pol.RStream, a.pol.SStream}, Sizes: []int64{1, 1}}
	return core.OneBucket(spec, a.node.par, rows, cols)
}

// setFinal records the matrix the run ends on, so far.
func (a *adaptState) setFinal(hc *core.Hypercube) {
	rows, cols := hc.Matrix()
	a.ex.metrics.Adapt.FinalRows.Store(int64(rows))
	a.ex.metrics.Adapt.FinalCols.Store(int64(cols))
}

// liveRels returns, for one producer node, the relation each output edge
// carries into the adaptive joiner (-1 for other edges), or nil when the
// node has no adaptive edge.
func (a *adaptState) liveRels(n *node) []int {
	rel, ok := a.relOf[n]
	if !ok {
		return nil
	}
	out := make([]int, len(n.outputs))
	for i, e := range n.outputs {
		out[i] = -1
		if e.to == a.node {
			out[i] = rel
		}
	}
	return out
}

// report delivers one task's load report, dropping it when the controller
// is busy (reports are advisory; the next one supersedes).
func (a *adaptState) report(task, epoch int, rep Repartitioner) {
	select {
	case a.reports <- loadReport{task: task, epoch: epoch, r: int64(rep.StoredCount(0)), s: int64(rep.StoredCount(1))}:
	default:
	}
}

// observe is the control loop's handling of one load report: aggregate,
// decide, and reshape when a better matrix clears the hysteresis margin. It
// reports false when the run is shutting down.
func (a *adaptState) observe(rep loadReport) bool {
	a.latest[rep.task] = rep
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
		return true
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
	cur := a.ex.gate.shape()
	rows, cols := cur.Matrix()
	r := float64(storedR) / float64(cols)
	s := float64(storedS) / float64(rows)
	if r+s < float64(a.pol.MinObserved) {
		return true
	}
	next, ok := cur.Reshape(a.node.par, r, s, a.pol.MinGain)
	if !ok {
		return true
	}
	return a.reshape(next)
}

// reshape runs one barrier/migrate/resume round. It reports false when the
// run is shutting down (abort, or all tasks already finished).
func (a *adaptState) reshape(next *core.Hypercube) bool {
	return a.ex.round(func(remoteLive int64) []int {
		// If every adaptive producer has already EOS'd, joiner tasks may
		// have exited and a barrier would never be acked: the stream is
		// over, so the reshape is pointless anyway.
		if a.ex.gate.live.Load()+remoteLive == 0 {
			return nil
		}
		return allTasks(a.node)
	}, func(cur *core.Hypercube) (*core.Hypercube, bool) {
		a.epoch++
		cmd := &reshapeCmd{epoch: a.epoch, old: cur, next: next}
		for t := 0; t < a.node.par; t++ {
			if !a.ex.sendCtrl(t, envelope{ctrl: ctrlReshape, cmd: cmd}) {
				return cur, false
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
				return cur, false
			case <-a.ex.ctlQuit:
				return cur, false
			}
		}
		a.ex.metrics.Adapt.Reshapes.Add(1)
		a.setFinal(next)
		return next, true
	})
}

// migSession tracks one joiner task's progress through a migration round.
type migSession struct {
	epoch int
	dones int         // peers (including self) whose exports have fully arrived
	cur   wire.Cursor // import row cursor
}

func (s *migSession) complete(par int) bool { return s.dones == par }

// sideExport is the state one primary ships for one side: frames blitted
// from its slab rows, each sent to every destination.
type sideExport struct {
	batches []*migBatch
	dests   []int
}

// snapshotExport captures one side's state before ResetForReshape rebuilds
// it, copying each exported frame once.
func (a *adaptState) snapshotExport(rep Repartitioner, epoch, side int, dests []int) sideExport {
	exp := sideExport{dests: dests}
	rep.ExportStateFrames(side, a.ex.opts.BatchSize, func(frame []byte, count int) bool {
		exp.batches = append(exp.batches, &migBatch{epoch: epoch, side: side, frame: append([]byte(nil), frame...), count: count})
		return true
	})
	return exp
}

// reshapePlan is the migration rule for one cell and relation, stated in
// hypercube coordinates so that it reads the same for any dims. A cell that
// held state under old keeps relation rel's state in place when it is a
// cell of next whose coordinates on rel's own dims equal its old ones,
// wrapped onto next's sizes — "only the state that changes cells
// migrates". The relation's primary copy (primaryCell) exports to every
// cell of next at its wrapped coordinates, except the cells that already
// held the same copy under old.
func reshapePlan(old, next *core.Hypercube, task, rel int) (keep, primary bool, dests []int) {
	if task >= old.Machines() {
		return false, false, nil // held no state under old
	}
	at := old.Coords(task)
	want := make([]int, len(at)) // rel's coordinates under next
	for d, c := range at {
		if old.Owns(rel, d) {
			want[d] = c % next.Dims[d].Size
		}
	}
	// sameOn reports whether coords agree with ref on rel's own dims.
	sameOn := func(coords, ref []int) bool {
		for d := range coords {
			if old.Owns(rel, d) && coords[d] != ref[d] {
				return false
			}
		}
		return true
	}
	keep = task < next.Machines() && sameOn(next.Coords(task), want)
	if !primaryCell(old, rel, task) {
		return keep, false, nil
	}
	for m := 0; m < next.Machines(); m++ {
		if !sameOn(next.Coords(m), want) {
			continue
		}
		if m < old.Machines() && sameOn(old.Coords(m), at) {
			continue // an old holder of this copy retains it in place
		}
		dests = append(dests, m)
	}
	return keep, true, dests
}

// beginMigration runs the task-local half of the barrier: resolve what this
// task keeps, snapshot what it must export as a primary, rebuild local
// state, and ship the exports from a sender goroutine (the task's main loop
// keeps draining its inbox, so peer exchanges cannot deadlock on full
// inboxes).
func (a *adaptState) beginMigration(task int, rep Repartitioner, tm *TaskMetrics, cmd *reshapeCmd) (*migSession, error) {
	var exports [2]sideExport
	var keep [2]bool
	for rel := range keep {
		var dests []int
		keep[rel], _, dests = reshapePlan(cmd.old, cmd.next, task, rel)
		if len(dests) > 0 {
			exports[rel] = a.snapshotExport(rep, cmd.epoch, rel, dests)
		}
	}
	if err := rep.ResetForReshape(keep); err != nil {
		return nil, err
	}
	a.exportWG.Add(1)
	go a.sendExports(task, tm, cmd.epoch, exports)
	return &migSession{epoch: cmd.epoch}, nil
}

// sendExports ships one task's exports, each frame to every destination,
// then marks the end of its exports to every peer. Each copy is charged to
// the sender like a data hop (DESIGN.md substitution table). Runs
// concurrently with the task's main loop; TaskMetrics fields are atomics.
func (a *adaptState) sendExports(task int, tm *TaskMetrics, epoch int, exports [2]sideExport) {
	defer a.exportWG.Done()
	for _, exp := range exports {
		for _, b := range exp.batches {
			for _, d := range exp.dests {
				tm.BytesOut.Add(int64(len(b.frame)))
				a.ex.metrics.Adapt.MigratedBytes.Add(int64(len(b.frame)))
				a.ex.metrics.Adapt.MigratedTuples.Add(int64(b.count))
				if !a.ex.send(a.node, d, envelope{from: task, ctrl: ctrlMigBatch, mig: b}) {
					return
				}
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
		return importFrame(rep, env.mig.side, env.mig.frame, &mig.cur)
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
	case <-a.ex.ctlQuit:
	}
}

// primaryCell reports whether cell sits at coordinate 0 on every dim of hc
// that relation rel does not own: the one cell of its replication group
// whose copy stands for the group (the replicas hold identical rows).
func primaryCell(hc *core.Hypercube, rel, cell int) bool {
	for d, c := range hc.Coords(cell) {
		if !hc.Owns(rel, d) && c != 0 {
			return false
		}
	}
	return true
}
