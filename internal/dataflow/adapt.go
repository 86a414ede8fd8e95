// Live adaptive 1-Bucket execution (§5, "Hypercube sizes"): the control
// plane that lets a running 2-way random-partitioned join reshape its
// rows x cols matrix as the observed |R| : |S| ratio drifts, migrating only
// the state whose cells change.
//
// The protocol per reshape:
//
//  1. Joiner tasks push periodic load reports (stored tuples per side) to
//     the execution's control loop, which feeds them to the decision logic
//     shared with the offline operator (adaptive.Decide).
//  2. When a better matrix clears the hysteresis margin, the loop opens a
//     round (execution.round) and closes the execution's one gate:
//     producers route-and-send adaptive-edge rows inside the gate, so once
//     it is drained every row routed under the old matrix is enqueued.
//  3. The round enqueues a reshape barrier marker into every joiner task's
//     inbox. FIFO inboxes guarantee each task sees all old-epoch tuples
//     before the barrier.
//  4. On the barrier, each task resolves which sides it keeps (its cell
//     coordinates are unchanged between the matrices) and which it drops;
//     row/column primaries snapshot the moving state as wire batch frames
//     blitted from their slab rows and ship each frame, shared read-only,
//     to every new owner — migration bytes are charged to the sender's
//     BytesOut once per destination, exactly like any network transfer.
//     Importers walk the frame and copy each row into their own arenas
//     (ImportRow). Imports are silent inserts: every pair among
//     pre-barrier state already met at exactly one old cell, so
//     re-probing would double-count results.
//  5. When a task holds migration-done markers from every peer it acks the
//     controller; once all tasks ack, the round reopens the gate under the
//     new matrix, bumping its epoch. New tuples route under the new shape.
//
// See DESIGN.md ("Runtime adaptation") for the cost accounting and the
// exactly-once argument.
package dataflow

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"squall/internal/adaptive"
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

// errImportLimit stops importFrame's walk at its row limit.
var errImportLimit = errors.New("dataflow: import limit reached")

// importFrame silently inserts one state frame's rows through ImportRow —
// the single import face of migration, restore, replay and the poisoned
// prefix. A limit >= 0 stops the walk after that many rows.
func importFrame(rep Repartitioner, side int, frame []byte, limit int, cur *wire.Cursor) error {
	k := 0
	_, _, err := wire.EachRow(frame, cur, func(row []byte) error {
		if limit >= 0 && k == limit {
			return errImportLimit
		}
		k++
		return rep.ImportRow(side, row, cur)
	})
	if err == errImportLimit {
		return nil
	}
	return err
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
	// ctrlMigBatch carries one wire batch frame of migrated state.
	ctrlMigBatch
	// ctrlMigDone marks the end of one peer's exports.
	ctrlMigDone
)

// reshapeCmd is the barrier payload: the matrices to migrate between.
type reshapeCmd struct {
	epoch     int
	old, next adaptive.Matrix
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

// adaptState is the per-run adaptive plane: the controller's decision
// inputs and the migration plumbing. Producers route under the matrix the
// execution's gate publishes.
type adaptState struct {
	ex   *execution
	pol  AdaptivePolicy
	node *node // the adaptive joiner
	// sideByNode maps a producer node to 0 (R) or 1 (S).
	sideByNode map[*node]int

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
	exportWG sync.WaitGroup

	// Controller-owned (the control loop is their only reader and writer).
	epoch    int
	reshapes int
	// latest holds each task's most recent load report.
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
	// any other producer would bypass the gate and break the barrier.
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
		reports:    make(chan loadReport, 8*n.par),
		acks:       make(chan loadReport, n.par),
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
	ex.adapt, ex.ctl, ex.gate.m = a, n, m
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
	if a.pol.Static || (a.pol.MaxReshapes > 0 && a.reshapes >= a.pol.MaxReshapes) {
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
	cur := a.ex.gate.matrix()
	r := float64(storedR) / float64(cur.Cols)
	s := float64(storedS) / float64(cur.Rows)
	if r+s < float64(a.pol.MinObserved) {
		return true
	}
	next, ok := adaptive.Decide(a.node.par, cur, r, s, a.pol.MinGain)
	if !ok {
		return true
	}
	return a.reshape(next)
}

// reshape runs one barrier/migrate/resume round. It reports false when the
// run is shutting down (abort, or all tasks already finished).
func (a *adaptState) reshape(next adaptive.Matrix) bool {
	return a.ex.round(func(remoteLive int64) []int {
		// If every adaptive producer has already EOS'd, joiner tasks may
		// have exited and a barrier would never be acked: the stream is
		// over, so the reshape is pointless anyway.
		if a.live.Load()+remoteLive == 0 {
			return nil
		}
		return allTasks(a.node)
	}, func(cur adaptive.Matrix) (adaptive.Matrix, bool) {
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
		a.reshapes++
		a.ex.metrics.Adapt.Reshapes.Add(1)
		a.ex.metrics.Adapt.FinalRows.Store(int64(next.Rows))
		a.ex.metrics.Adapt.FinalCols.Store(int64(next.Cols))
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
				exports[0] = a.snapshotExport(rep, cmd.epoch, 0, dests)
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
				exports[1] = a.snapshotExport(rep, cmd.epoch, 1, dests)
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
		return importFrame(rep, env.mig.side, env.mig.frame, -1, &mig.cur)
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

// emitAdaptive routes one row on an adaptive edge: 1-Bucket routing under
// the current matrix. Rows are buffered once per edge under their picked
// coordinate (row for the R side, column for S); a flush copies the frame
// to every cell of the coordinate, so batch amortization survives
// replication without per-cell row appends.
func (c *Collector) emitAdaptive(ei, side int, row []byte) error {
	if !c.gateEnter() {
		return c.ex.abortErr()
	}
	defer c.gateExit()
	if err := c.syncRoute(); err != nil {
		return err
	}
	return c.routeAdaptive(ei, side, row)
}

// syncRoute re-routes the pending (unsent) adaptive rows when the matrix
// changed since they were assigned. They were never delivered, so they are
// not state anywhere and re-routing them is indistinguishable from fresh
// arrivals. Must run inside the gate.
func (c *Collector) syncRoute() error {
	if c.adaptEpoch == c.routeEpoch {
		return nil
	}
	if err := c.rerouteAdaptive(); err != nil {
		return err
	}
	c.adaptEpoch = c.routeEpoch
	return nil
}

// flushAdaptiveEdge ships every pending coordinate frame of one adaptive
// edge under the current matrix. Must run inside the gate.
func (c *Collector) flushAdaptiveEdge(ei int) error {
	if err := c.syncRoute(); err != nil {
		return err
	}
	for coord := range c.adaptOut[ei] {
		if err := c.flushAdaptive(ei, c.adaptSide[ei], coord); err != nil {
			return err
		}
	}
	return nil
}

// routeAdaptive buffers row under a random coordinate of the current
// matrix, flushing the coordinate's frame when full. Must run inside the
// gate.
func (c *Collector) routeAdaptive(ei, side int, row []byte) error {
	coord := c.rng.Intn(c.route.Rows)
	if side == 1 {
		coord = c.rng.Intn(c.route.Cols)
	}
	if c.appendRow(&c.adaptOut[ei][coord], row) {
		return c.flushAdaptive(ei, side, coord)
	}
	return nil
}

// flushAdaptive ships one coordinate's pending frame to every cell of that
// row (side 0) or column (side 1). Each cell receives its own copy of the
// frame — the last one takes the buffer itself — and each copy is charged
// to BytesOut like a unicast transfer (the DESIGN.md substitution). Must
// run inside the gate.
func (c *Collector) flushAdaptive(ei, side, coord int) error {
	rb := &c.adaptOut[ei][coord]
	if rb.count == 0 {
		return nil
	}
	e, m := c.node.outputs[ei], c.route
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
	// pooled; the caller already holds the gate (emitAdaptive / gatedEOS).
	tracked := c.recTracked != nil && c.recTracked[ei]
	frame, count, box := c.seal(rb), rb.count, rb.box
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
// current matrix. All of an edge's coordinates are drained into scratch
// before any row is re-routed — a row re-buffered into a not-yet-visited
// coordinate must not be picked up twice. Must run inside the gate.
func (c *Collector) rerouteAdaptive() error {
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
			if err := c.routeAdaptive(ei, side, pending[start:end]); err != nil {
				return err
			}
			start = end
		}
	}
	return nil
}
