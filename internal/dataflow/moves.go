// State transfer between joiner tasks: the one protocol behind a live
// reshape (adapt.go) and a recovery round (recover.go). Both are a
// core.MoveSet — a reshape is Moves(old, next, nil), a kill of task f is
// Moves(hc, hc, []int{f}) — and both run the same steps behind the closed
// gate:
//
//  1. The controller sends one ctrlMoves command, carrying the move set, to
//     every task the round quiesced. Each task works out its own part: what
//     it keeps, what it ships as a source and how many sources it waits for.
//  2. A source snapshots each shipped relation as wire batch frames blitted
//     from its state, drops what it does not keep, and ships the frames from
//     a sender goroutine: one ctrlMove per frame and destination, then one
//     ctrlMoveDone per destination. The frame is shared read-only by every
//     destination, and each copy is charged to the sender's BytesOut like a
//     data hop. The task loop keeps draining its inbox meanwhile, so peer
//     exchanges cannot deadlock on full inboxes.
//  3. A destination walks each frame through Repartitioner.ImportRow. Imports
//     are silent inserts: every pair among the moved rows already met before
//     the round, so re-probing would double-count results. Moves that
//     outrun the task's own command wait in early.
//  4. The Checkpoint source is the controller itself: after the replay, it
//     ships the victim's checkpoint frames and sealed segments and one
//     ctrlMoveDone per checkpoint-routed relation.
//  5. A task whose state changed re-checkpoints, then acks; the round ends
//     once every task has acked.
package dataflow

import (
	"slices"

	"squall/internal/core"
	"squall/internal/recovery"
	"squall/internal/wire"
)

// Repartitioner is implemented by bolts whose per-relation state can be
// exported, discarded and re-imported while a run is live. State moves in
// one shape: encoded rows in wire batch frames, per relation index (for the
// adaptive join, 0 = R, the row side; 1 = S, the column side). Reshape and
// recovery rounds move state through it, so the executor requires adaptive
// and recovery-protected bolts to implement it.
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
// the single import face of moves, restore and replay.
func importFrame(rep Repartitioner, side int, frame []byte, cur *wire.Cursor) error {
	_, _, err := wire.EachRow(frame, cur, func(row []byte) error {
		return rep.ImportRow(side, row, cur)
	})
	return err
}

// ctrlKind tags control-plane envelopes (zero on data envelopes).
type ctrlKind uint8

const (
	ctrlNone ctrlKind = iota
	// ctrlMoves opens a state-transfer round at one task.
	ctrlMoves
	// ctrlMove carries one wire batch frame of moved state.
	ctrlMove
	// ctrlMoveDone ends one source's moves to the task.
	ctrlMoveDone
	// ctrlKill tells the fault-plan task to drop its state (quiesced kill).
	ctrlKill
	// ctrlNetFlush is a cluster flush token (see NetPlane.quiesce): it rides
	// the data path from a remote producer worker, so draining it proves
	// every data envelope that worker sent earlier has been processed. The
	// task reports it to the plane and carries on.
	ctrlNetFlush
)

// movesCmd is the one command of a state-transfer round.
type movesCmd struct {
	epoch int // the reshape epoch the round leaves the tasks in
	moves *core.MoveSet
	// lost names the cells whose state is gone: a recovery round's victim,
	// none on a reshape.
	lost []int
	// manifest is the victim's checkpoint manifest, which bounds the replay
	// it re-imports (nil when it has none).
	manifest *recovery.Manifest
}

// move is one frame of moved state (ctrlMove; nil on ctrlMoveDone).
type move struct {
	rel   int
	frame []byte
	count int
}

// loadReport is one joiner task's stored-state sizes, tagged with the
// reshape epoch the state was measured under: the controller aggregates
// only current-epoch reports, because counts measured under another shape
// carry that shape's replication factors. A round's acks are load reports
// too (sizes zero off adaptive runs).
type loadReport struct {
	task  int
	epoch int
	r, s  int64
}

// moveRound runs the body of one state-transfer round behind the closed
// gate: it sends cmd to tasks, plays the Checkpoint source through source
// (nil on a reshape) and waits for every task's ack, folding each into an
// adaptive run's load picture.
func (ex *execution) moveRound(tasks []int, cmd *movesCmd, source func() bool) bool {
	for _, t := range tasks {
		if !ex.sendCtrl(t, envelope{ctrl: ctrlMoves, cmd: cmd}) {
			return false
		}
	}
	if source != nil && !source() {
		return false
	}
	for range tasks {
		select {
		case ack := <-ex.acks:
			if ex.adapt != nil {
				ex.adapt.latest[ack.task] = ack
			}
		case <-ex.abort:
			return false
		case <-ex.ctlQuit:
			return false
		}
	}
	return true
}

// moveSession is one task's part of an open round.
type moveSession struct {
	cmd *movesCmd
	// lost marks the round's victim, whose restore ends with the round.
	lost bool
	// changed reports the round dropped or brings state here.
	changed bool
	want    int // ctrlMoveDone markers the task waits for
	dones   int
	cur     wire.Cursor // import row cursor
}

// relExport is one relation's state a source ships: frames snapshotted
// from its state, each sent to every destination.
type relExport struct {
	frames []*move
	dests  []int
}

// transfer handles one state-transfer envelope. The command opens the
// task's part of the round and applies the moves that outran it; moves
// import; the part closes once every source the task waits for is done.
func (t *boltTask) transfer(env envelope) error {
	switch {
	case env.ctrl == ctrlMoves:
		if err := t.beginMoves(env.cmd); err != nil {
			return err
		}
		early := t.early
		t.early = nil
		for _, e := range early {
			if err := t.applyMove(e); err != nil {
				return err
			}
		}
	case t.mv == nil:
		// A source's moves for the round whose command we have not drained
		// to yet; apply them once it arrives.
		t.early = append(t.early, env)
		return nil
	default:
		if err := t.applyMove(env); err != nil {
			return err
		}
	}
	if t.mv.dones < t.mv.want {
		return nil
	}
	return t.endMoves()
}

// beginMoves works out the task's part of a round from the move set:
// snapshot what it serves as a source, drop what it does not keep, ship
// from a sender goroutine, and count the sources it waits for.
func (t *boltTask) beginMoves(cmd *movesCmd) error {
	ms := cmd.moves
	s := &moveSession{cmd: cmd, lost: slices.Contains(cmd.lost, t.task)}
	// A lost task restarted on a fresh instance; any other task of the old
	// shape drops what it does not keep.
	held := !s.lost && t.task < len(ms.Keep)
	dropped := held && slices.Contains(ms.Keep[t.task], false)
	var exports []relExport
	var peers []int
	for rel := range ms.From {
		if t.task < len(ms.From[rel]) {
			for _, src := range ms.From[rel][t.task] {
				if src == core.Checkpoint {
					s.want++
				} else if !slices.Contains(peers, src) {
					peers = append(peers, src)
				}
			}
		}
		var dests []int
		for m, srcs := range ms.From[rel] {
			if slices.Contains(srcs, t.task) {
				dests = append(dests, m)
			}
		}
		if len(dests) == 0 {
			continue
		}
		if t.rs != nil && t.rs.recovering {
			// A concurrently faulted task restarted and is mid-restore:
			// exporting its empty state would silently restore the victim
			// wrong. Recovering a concurrent double fault is out of scope.
			return t.errf(" named as the source of rel %d while itself recovering (concurrent double fault)", rel)
		}
		exp := relExport{dests: dests}
		t.rep.ExportStateFrames(rel, t.ex.opts.BatchSize, func(frame []byte, count int) bool {
			exp.frames = append(exp.frames, &move{rel: rel, frame: append([]byte(nil), frame...), count: count})
			return true
		})
		exports = append(exports, exp)
	}
	s.want += len(peers)
	s.changed = s.lost || dropped || s.want > 0
	if dropped {
		var keep [2]bool
		copy(keep[:], ms.Keep[t.task])
		if err := t.rep.ResetForReshape(keep); err != nil {
			return t.errf(" moves: %w", err)
		}
	}
	if len(exports) > 0 {
		t.ex.moveWG.Add(1)
		go t.ex.sendMoves(t.n, t.task, t.tm, len(cmd.lost) > 0, exports)
	}
	t.mv = s
	return nil
}

// sendMoves ships one source's exports, each frame to every destination,
// then marks the end of its moves to each destination. Each copy is
// charged to the sender like a data hop (DESIGN.md substitution table), and
// to the round's purpose: peer bytes of a recovery, migrated bytes of a
// reshape. Runs concurrently with the task's main loop; TaskMetrics fields
// are atomics.
func (ex *execution) sendMoves(n *node, task int, tm *TaskMetrics, recovering bool, exports []relExport) {
	defer ex.moveWG.Done()
	var dests []int
	for _, exp := range exports {
		for _, mv := range exp.frames {
			for _, d := range exp.dests {
				tm.BytesOut.Add(int64(len(mv.frame)))
				if recovering {
					ex.metrics.Recovery.PeerBytes.Add(int64(len(mv.frame)))
					ex.metrics.Recovery.RestoredTuples.Add(int64(mv.count))
				} else {
					ex.metrics.Adapt.MigratedBytes.Add(int64(len(mv.frame)))
					ex.metrics.Adapt.MigratedTuples.Add(int64(mv.count))
				}
				if !ex.send(n, d, envelope{from: task, ctrl: ctrlMove, mv: mv}) {
					return
				}
			}
		}
		for _, d := range exp.dests {
			if !slices.Contains(dests, d) {
				dests = append(dests, d)
			}
		}
	}
	for _, d := range dests {
		if !ex.send(n, d, envelope{from: task, ctrl: ctrlMoveDone}) {
			return
		}
	}
}

// applyMove folds one move envelope into the task's open part.
func (t *boltTask) applyMove(env envelope) error {
	if env.ctrl == ctrlMoveDone {
		t.mv.dones++
		return nil
	}
	if err := importFrame(t.rep, env.mv.rel, env.mv.frame, &t.mv.cur); err != nil {
		return t.errf(" move import: %w", err)
	}
	return nil
}

// endMoves closes the task's part of a round: a victim re-runs what its
// fault interrupted, a task whose state changed re-checkpoints it — moves
// change state without consuming input, so an older checkpoint plus replay
// could not rebuild it — and the task acks with its post-round load, so an
// adaptive controller's first decision after a reshape sees every task's
// slice of the new placement.
func (t *boltTask) endMoves() error {
	s := t.mv
	t.mv, t.epoch = nil, s.cmd.epoch
	if s.lost {
		if err := t.redeliver(); err != nil {
			return t.errf(" recovery: %w", err)
		}
	}
	if t.rs != nil && s.changed {
		if err := t.rs.checkpoint(t.bolt); err != nil {
			return t.errf(" post-round checkpoint: %w", err)
		}
	}
	if s.lost {
		t.rs.recovering = false
	}
	ack := loadReport{task: t.task, epoch: t.epoch}
	if t.adaptHere {
		ack.r, ack.s = int64(t.rep.StoredCount(0)), int64(t.rep.StoredCount(1))
	}
	select {
	case t.ex.acks <- ack:
		return nil
	case <-t.ex.abort:
		return t.ex.abortErr()
	}
}
