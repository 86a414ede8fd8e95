// Live adaptive 1-Bucket execution (§5, "Hypercube sizes"): the control
// plane that lets a running 2-way join reshape its Random-Hypercube as the
// observed |R| : |S| ratio drifts, migrating only the state whose cells
// change. In the paper a 2-way Random-Hypercube is 1-Bucket, and so it is
// here: the live shape is a *core.Hypercube built by core.OneBucket over two
// random dims, [S's columns, R's rows], and it is the only geometry. The gate
// publishes it; producers route adaptive edges through its GroupingFor into
// their ordinary per-target buffers; migration and recovery moves read its
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
//  3. The round is a state transfer (moves.go) over core.Moves(old, next,
//     nil): FIFO inboxes guarantee each task sees all old-shape tuples
//     before its command, and the rule keeps a relation's state in place
//     where its coordinates on the relation's dims are unchanged and ships
//     each copy whose cells change from the lowest cell holding it — only
//     the state that changes cells migrates.
//  4. Once every task acks, the round reopens the gate under the new shape.
//     A producer re-routes the rows it still buffers under the old shape in
//     its first session after that, before routing anything new: they were
//     never delivered, so they are fresh arrivals.
//
// See DESIGN.md ("Runtime adaptation") for the cost accounting and the
// exactly-once argument.
package dataflow

import (
	"fmt"
	"sync/atomic"

	"squall/internal/core"
)

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

// counters lists the counters a cluster run sums across workers, then the
// ones only the adaptive component's host stores.
func (m *AdaptMetrics) counters() (summed, owned []*atomic.Int64) {
	return []*atomic.Int64{&m.Reshapes, &m.MigratedTuples, &m.MigratedBytes},
		[]*atomic.Int64{&m.FinalRows, &m.FinalCols}
}

// adaptState is the per-run adaptive plane: the controller's decision
// inputs. Producers route under the shape the execution's gate publishes;
// reshape rounds move state through moves.go.
type adaptState struct {
	ex   *execution
	pol  AdaptivePolicy
	node *node // the adaptive joiner
	// relOf maps a producer node to its relation: 0 (R) or 1 (S).
	relOf map[*node]int

	reports chan loadReport

	// Controller-owned (the control loop is their only reader and writer).
	epoch int
	// latest holds each task's most recent load report; a round's acks
	// refresh it on a blocking path (unlike the lossy periodic reports), so
	// the controller's post-reshape picture is complete by construction.
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

// reshape runs one pause/move/resume round. It reports false when the
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
		ms, err := core.Moves(cur, next, nil)
		if err != nil {
			a.ex.fail(fmt.Errorf("dataflow: reshape of %s: %w", a.node.name, err))
			return cur, false
		}
		a.epoch++
		if !a.ex.moveRound(allTasks(a.node), &movesCmd{epoch: a.epoch, moves: ms}, nil) {
			return cur, false
		}
		a.ex.metrics.Adapt.Reshapes.Add(1)
		a.setFinal(next)
		return next, true
	})
}
