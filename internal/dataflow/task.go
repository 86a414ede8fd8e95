package dataflow

import (
	"encoding/binary"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"

	"squall/internal/wire"
)

// boltTask is one running bolt task: its inbox loop and the state the
// loop's handlers share. Every data row reaches the bolt through
// ExecuteRow; control envelopes drive the kill marker and the
// state-transfer rounds.
type boltTask struct {
	ex    *execution
	n     *node
	task  int
	col   *Collector
	tm    *TaskMetrics
	inbox chan envelope
	cur   wire.Cursor // deliver's row cursor
	// remote carries the envelopes remote workers send the task (nil when
	// none does), and owed counts the credits it owes each worker's link.
	remote chan envelope
	owed   []int

	// bolt is the current instance, and the rest what instance resolved on
	// it: mem reports state size (nil when the bolt does not), and rep
	// repartitions state (required on adaptive and protected tasks).
	bolt Bolt
	mem  MemReporter
	rep  Repartitioner

	adaptHere bool         // the task is an adaptive joiner
	rs        *recSession  // non-nil on a recovery-protected task
	mv        *moveSession // non-nil while the task's part of a round is open
	early     []envelope   // moves that outran the task's round command
	epoch     int          // reshape epoch this task's state conforms to
	// planDone is the fault plan's resolution signal while a protected task
	// still waits for it; nil once observed or when no plan is scheduled.
	planDone  <-chan struct{}
	expectEOS int // upstream tasks whose EOS has not arrived
	processed int
}

func (ex *execution) runBolt(wg *sync.WaitGroup, n *node, task int) {
	defer wg.Done()
	t := ex.newBoltTask(n, task)
	defer t.col.close() // eos (or an abort) has flushed whatever will flush
	// The task owns its bolt's external charges (pressure gauges); refund
	// them when the task exits, whatever bolt instance it ends with.
	defer func() { releaseState(t.bolt) }()
	err := t.instance()
	if err == nil {
		err = t.run()
	}
	if err != nil {
		ex.fail(err)
	}
}

// newBoltTask prepares one bolt task's loop state, before its first bolt
// instance is built.
func (ex *execution) newBoltTask(n *node, task int) *boltTask {
	t := &boltTask{ex: ex, n: n, task: task, col: ex.collector(n, task), inbox: ex.inboxes[n][task]}
	t.tm = t.col.metrics
	if p := ex.net; p != nil {
		if chs := p.remotes[p.nodeIdx[n.name]]; chs != nil {
			t.remote, t.owed = chs[task], make([]int, len(p.links))
		}
	}
	for _, e := range n.inputs {
		t.expectEOS += e.from.par
	}
	t.adaptHere = ex.adapt != nil && ex.adapt.node == n
	if ex.rec != nil && ex.rec.node == n {
		t.rs = ex.rec.newSession(task)
		if ex.rec.scheduled {
			t.planDone = ex.rec.planDone
		}
	}
	return t
}

// errf formats a task failure; format continues the "dataflow: bolt
// name[task]" prefix, so it starts with a space or a colon.
func (t *boltTask) errf(format string, args ...any) error {
	return fmt.Errorf("dataflow: bolt %s[%d]"+format, append([]any{t.n.name, t.task}, args...)...)
}

// instance builds a fresh bolt for the task, at start and after a fault
// dropped the old one's state, and resolves its state reporter and
// Repartitioner. The bolt is never wrapped, so every optional interface
// stays visible.
func (t *boltTask) instance() error {
	if t.bolt != nil {
		releaseState(t.bolt) // the replaced instance must not keep its gauge charges
	}
	t.bolt = t.n.bolt(t.task, t.n.par)
	t.mem, _ = t.bolt.(MemReporter)
	t.rep, _ = t.bolt.(Repartitioner)
	if t.rep == nil && (t.adaptHere || t.rs != nil) {
		return t.errf(" (%T) does not implement Repartitioner, which adaptive and recovery-protected bolts need", t.bolt)
	}
	return nil
}

// run is the task's inbox loop. It ends once the EOS set is complete and no
// control round needs the task: no round part open, no recovery in flight
// and, on a protected task under a fault plan, the plan resolved — a kill
// landing at the very end of the stream must still find every peer alive
// to serve its partitions. Then the bolt finishes and EOS goes downstream.
func (t *boltTask) run() error {
	for t.expectEOS > 0 || t.mv != nil || (t.rs != nil && (t.rs.busy() || t.planDone != nil)) {
		if t.expectEOS == 0 && t.mv == nil && t.rs != nil && t.rs.armed && !t.rs.busy() {
			// The plan never fired (this task received too few tuples):
			// resolve it so lingering peers release.
			t.rs.armed = false
			if !t.note(faultNote{task: t.task, void: true}) {
				return t.ex.abortErr()
			}
		}
		select {
		case env := <-t.inbox:
			if err := t.handle(env); err != nil {
				return err
			}
		case env := <-t.remote:
			if err := t.fromRemote(env); err != nil {
				return err
			}
		case <-t.planDone:
			t.planDone = nil
		case <-t.ex.abort:
			return t.ex.abortErr()
		}
	}
	if t.mem != nil {
		t.ex.checkMem(t.n, t.task, t.tm, t.mem)
	}
	if err := t.call(nil); err != nil {
		return t.errf(" finish: %w", err)
	}
	t.col.eos()
	return nil
}

// handle dispatches one inbox envelope.
func (t *boltTask) handle(env envelope) error {
	switch {
	case env.eos:
		t.expectEOS--
		return nil
	case env.ctrl == ctrlNone:
		return t.data(env)
	case env.ctrl == ctrlKill:
		return t.kill()
	case env.ctrl == ctrlNetFlush:
		t.ex.net.tokenSeen(env.seq)
		return nil
	}
	return t.transfer(env)
}

// fromRemote handles one envelope taken from the remote channel, after
// settling its credit and handling what the inbox held when it was taken. A
// remote worker sends only what the control loop asked for after enqueueing
// what must precede it — a recovery round's command ahead of the replay it
// requests — so the inbox goes first, as it would in one FIFO; whatever the
// inbox holds cannot depend on this envelope, since each marker that must
// follow remote data waits for a flush token queued behind that data.
func (t *boltTask) fromRemote(env envelope) error {
	t.ex.net.took(t, &env)
	for n := len(t.inbox); n > 0; n-- {
		if err := t.handle(<-t.inbox); err != nil {
			return err
		}
	}
	return t.handle(env)
}

// note sends a fault note to the control loop; false means the run aborted.
func (t *boltTask) note(f faultNote) bool {
	select {
	case t.ex.rec.faults <- f:
		return true
	case <-t.ex.abort:
		return false
	}
}

// data applies one data frame. On a protected task it first passes the
// recovery filter: mid-restore it is stashed or re-imported (restoreData),
// otherwise a late duplicate of replayed input is dropped; once applied, it
// advances the task's cursor, fault trigger and checkpoint cadence.
func (t *boltTask) data(env envelope) error {
	rs := t.rs
	if rs != nil && rs.recovering {
		return t.restoreData(env)
	}
	if t.mv != nil {
		return t.errf(" received data mid-round (barrier violated)")
	}
	if rs != nil && !rs.dedup(&env) {
		return nil
	}
	t.tm.Received.Add(int64(env.count))
	if err := t.deliver(&env); err == errPanicCaptured {
		return t.captured(env)
	} else if err != nil {
		return t.errf(": %w", err)
	}
	// The frame is consumed (rows walked in place): recycle its pooled
	// buffer.
	releaseEnv(&env)
	if rs == nil {
		return nil
	}
	rs.applied(&env)
	if rs.armed && t.tm.Received.Load() >= int64(t.ex.rec.pol.Fault.AfterTuples) {
		rs.armed, rs.requested = false, true
		if !t.note(faultNote{task: t.task}) {
			return t.ex.abortErr()
		}
	}
	if rs.sinceCkpt += env.count; rs.sinceCkpt >= t.ex.rec.pol.CheckpointEvery {
		if err := rs.checkpoint(t.bolt); err != nil {
			return t.errf(" checkpoint: %w", err)
		}
	}
	return nil
}

// deliver applies one data frame: every row goes through ExecuteRow, the
// final one flagged Last, under one panic guard for the frame. On
// a protected task the frame's emissions are held until its last row
// returns (Collector.held), then settled once.
func (t *boltTask) deliver(env *envelope) error {
	t.col.held = t.rs != nil
	return t.settle(env.count, t.call(env))
}

// settle finishes a delivered frame of rows whose walk returned err: held
// emissions ship on success and drop on failure. A panic on a task with an
// open recovery session, and no round it would conflict with, poisons the
// whole frame and is reported as errPanicCaptured.
func (t *boltTask) settle(rows int, err error) error {
	if t.col.held {
		err = t.col.settle(err)
	}
	if err != nil {
		if _, ok := err.(*panicFault); ok && t.rs != nil && !t.rs.recovering && t.ex.adapt == nil && t.mv == nil {
			return errPanicCaptured
		}
		return err
	}
	was := t.processed
	t.processed += rows
	if t.adaptHere {
		if every := t.ex.adapt.pol.ReportEvery; t.processed/every != was/every {
			t.ex.adapt.report(t.task, t.epoch, t.rep)
		}
	}
	if t.mem != nil && t.processed/256 != was/256 {
		t.ex.checkMem(t.n, t.task, t.tm, t.mem)
		select {
		case <-t.ex.abort:
			return t.ex.abortErr()
		default:
		}
	}
	return nil
}

// call runs one bolt callback — the walk of a whole frame, or Finish when
// env is nil — turning a panic into a *panicFault. A panic poisons the
// whole frame, so one guard per frame is enough.
func (t *boltTask) call(env *envelope) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &panicFault{val: r, stack: debug.Stack()}
		}
	}()
	if env == nil {
		return t.bolt.Finish(t.col)
	}
	in := RowInput{Stream: env.stream, FromTask: env.from, Cur: &t.cur}
	n, _ := binary.Uvarint(env.frame) // EachRow rejects a bad header
	k := uint64(0)
	_, _, err = wire.EachRow(env.frame, &t.cur, func(row []byte) error {
		k++
		in.Row, in.Last = row, k == n
		return t.bolt.ExecuteRow(in, t.col)
	})
	return err
}

// panicFault is a panic captured inside a bolt callback, carried as an error
// so the task can either turn it into a recovery round or fail the run with
// the stack attached.
type panicFault struct {
	val   any
	stack []byte
}

func (p *panicFault) Error() string { return fmt.Sprintf("panicked: %v\n%s", p.val, p.stack) }

// errPanicCaptured signals that a panic was absorbed into a recovery round.
var errPanicCaptured = errors.New("dataflow: bolt panic captured")

// restart drops the task's state ahead of a restore. The pending outputs
// hold only results of fully applied rows, so they flush first; then a
// fresh bolt instance replaces the old one and the session enters restore
// mode.
func (t *boltTask) restart(panicked bool) error {
	if err := t.col.flushAll(); err != nil {
		cause := "kill"
		if panicked {
			cause = "panic"
		}
		return t.errf(" %s flush: %w", cause, err)
	}
	if err := t.instance(); err != nil {
		return err
	}
	t.rs.startRecovery()
	return nil
}

// captured turns a panic captured mid-frame into a restore from the
// checkpoint route: the frame's held emissions were dropped, and the frame
// is kept to re-run whole once the restore completes.
func (t *boltTask) captured(env envelope) error {
	t.rs.poisoned = &env
	if err := t.restart(true); err != nil {
		return err
	}
	if t.rs.requested {
		// A kill trigger is outstanding: that round will reach this task,
		// learn of the panic from the kill ack and service this session
		// with panic semantics. A second note would open a stray round
		// against an already-restored task.
		return nil
	}
	if !t.note(faultNote{task: t.task, panicked: true}) {
		return t.ex.abortErr()
	}
	return nil
}

// restoreData handles a data frame reaching a task mid-restore. Before its
// round begins it is traffic a panic left unapplied, stashed to reprocess
// once the restore completes. After, it is replayed input: re-imported
// silently when it was applied after the checkpoint but before the fault
// (older is in the checkpoint, newer is stashed).
func (t *boltTask) restoreData(env envelope) error {
	rs := t.rs
	if t.mv == nil {
		t.tm.Received.Add(int64(env.count))
		rs.stash = append(rs.stash, env)
		return nil
	}
	rel, ok := t.ex.rec.pol.RelOf[env.stream]
	if !ok {
		return t.errf(" replay from unmapped stream %q", env.stream)
	}
	var ckptCur int64
	if man := t.mv.cmd.manifest; man != nil {
		ckptCur = man.CursorFor(env.stream, env.from)
	}
	if env.seq > ckptCur && env.seq <= rs.cursors[env.stream][env.from] {
		if err := importFrame(t.rep, rel, env.frame, &t.mv.cur); err != nil {
			return t.errf(" replay import: %w", err)
		}
	}
	return nil
}

// kill handles the kill marker. It lands at a quiesced point, every
// delivered envelope applied, so the task restarts for a restore. A captured
// panic may have beaten the marker here: the restore session it opened
// stands (clobbering it would lose the stash and the poisoned envelope), and
// the ack tells the round to run with panic semantics instead.
func (t *boltTask) kill() error {
	if t.rs == nil {
		return t.errf(" received a kill marker without a recovery session")
	}
	t.rs.requested = false
	alreadyPanicked := t.rs.recovering
	if !alreadyPanicked {
		if err := t.restart(false); err != nil {
			return err
		}
	}
	select {
	case t.ex.rec.killAck <- alreadyPanicked:
		return nil
	case <-t.ex.abort:
		return t.ex.abortErr()
	}
}

// redeliver closes a victim's restore: it re-runs the poisoned frame whole
// (none of its emissions shipped) and reprocesses the stashed backlog with
// full emission.
func (t *boltTask) redeliver() error {
	rs := t.rs
	if p := rs.poisoned; p != nil {
		if err := t.deliver(p); err != nil {
			return err
		}
		rs.applied(p)
		rs.poisoned = nil
	}
	for i := range rs.stash {
		if err := t.deliver(&rs.stash[i]); err != nil {
			return err
		}
		rs.applied(&rs.stash[i])
	}
	rs.stash = nil
	return nil
}
