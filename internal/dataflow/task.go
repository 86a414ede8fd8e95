package dataflow

import (
	"errors"
	"fmt"
	"runtime/debug"
	"sync"

	"squall/internal/types"
	"squall/internal/wire"
)

// boltTask is one running bolt task: its inbox loop and the state the
// loop's handlers share. Every data row reaches the bolt through one face,
// exec; control envelopes drive the recovery and migration state machines.
type boltTask struct {
	ex    *execution
	n     *node
	task  int
	col   *Collector
	tm    *TaskMetrics
	inbox chan envelope
	cur   wire.Cursor // deliver's row cursor

	// bolt is the current instance, and the rest what instance resolved on
	// it: exec delivers one row (ExecuteRow, or Execute over the decoded
	// row), mem reports state size (nil when the bolt does not), and rep
	// repartitions state (required on adaptive and protected tasks).
	bolt Bolt
	exec func(RowInput, *Collector) error
	mem  MemReporter
	rep  Repartitioner
	dec  tupleDecoder

	adaptHere bool        // the task is an adaptive joiner
	rs        *recSession // non-nil on a recovery-protected task
	mig       *migSession // non-nil while a migration round is open
	early     []envelope  // migration traffic that outran our barrier marker
	epoch     int         // reshape epoch this task's state conforms to
	// planDone is the fault plan's resolution signal while a protected task
	// still waits for it; nil once observed or when no plan is scheduled.
	planDone  <-chan struct{}
	expectEOS int // upstream tasks whose EOS has not arrived
	processed int
}

func (ex *execution) runBolt(wg *sync.WaitGroup, n *node, task int) {
	defer wg.Done()
	t := &boltTask{ex: ex, n: n, task: task, col: ex.collector(n, task), inbox: ex.inboxes[n][task]}
	t.tm = t.col.metrics
	defer t.col.close() // eos (or an abort) has flushed whatever will flush
	// The task owns its bolt's external charges (pressure gauges); refund
	// them when the task exits, whatever bolt instance it ends with.
	defer func() { releaseState(t.bolt) }()
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
	err := t.instance()
	if err == nil {
		err = t.run()
	}
	if err != nil {
		ex.fail(err)
	}
}

// errf formats a task failure; format continues the "dataflow: bolt
// name[task]" prefix, so it starts with a space or a colon.
func (t *boltTask) errf(format string, args ...any) error {
	return fmt.Errorf("dataflow: bolt %s[%d]"+format, append([]any{t.n.name, t.task}, args...)...)
}

// instance builds a fresh bolt for the task, at start and after a fault
// dropped the old one's state, and resolves its delivery function, state
// reporter and Repartitioner. The bolt is never wrapped, so every optional
// interface stays visible.
func (t *boltTask) instance() error {
	if t.bolt != nil {
		releaseState(t.bolt) // the replaced instance must not keep its gauge charges
	}
	t.bolt = t.n.bolt(t.task, t.n.par)
	switch b := t.bolt.(type) {
	case RowBolt:
		t.exec = b.ExecuteRow
	case TupleBolt:
		t.exec = func(in RowInput, col *Collector) error {
			return b.Execute(Input{Stream: in.Stream, FromTask: in.FromTask, Tuple: t.dec.tuple(in.Cur)}, col)
		}
	default:
		return t.errf(" (%T) implements neither ExecuteRow nor Execute", t.bolt)
	}
	t.mem, _ = t.bolt.(MemReporter)
	t.rep, _ = t.bolt.(Repartitioner)
	if t.rep == nil && (t.adaptHere || t.rs != nil) {
		return t.errf(" (%T) does not implement Repartitioner, which adaptive and recovery-protected bolts need", t.bolt)
	}
	return nil
}

// run is the task's inbox loop. It ends once the EOS set is complete and no
// control round needs the task: no migration open, no recovery in flight
// and, on a protected task under a fault plan, the plan resolved — a kill
// landing at the very end of the stream must still find every peer alive
// to serve its partitions. Then the bolt finishes and EOS goes downstream.
func (t *boltTask) run() error {
	for t.expectEOS > 0 || t.mig != nil || (t.rs != nil && (t.rs.busy() || t.planDone != nil)) {
		if t.expectEOS == 0 && t.mig == nil && t.rs != nil && t.rs.armed && !t.rs.busy() {
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
	case env.ctrl >= ctrlKill:
		return t.recControl(env)
	case env.ctrl != ctrlNone:
		return t.migrate(env)
	}
	return t.data(env)
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
	if t.mig != nil {
		return t.errf(" received data mid-migration (barrier violated)")
	}
	rs := t.rs
	if rs != nil && rs.recovering {
		return t.restoreData(env)
	}
	if rs != nil && !rs.dedup(&env) {
		return nil
	}
	t.tm.Received.Add(int64(env.count))
	if err := t.deliver(env, 0); err == errPanicCaptured {
		return t.captured(env)
	} else if err != nil {
		return t.errf(": %w", err)
	}
	// The frame is consumed (rows walked in place, tuples decoded into
	// their own values): recycle its pooled buffer.
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

// deliver applies one data frame's rows from row index from on, each
// through the bolt's one face. On a protected task each row's emissions
// are held until it returns (Collector.held), then settled.
func (t *boltTask) deliver(env envelope, from int) error {
	in := RowInput{Stream: env.stream, FromTask: env.from, Cur: &t.cur}
	t.dec.frame, t.dec.str = env.frame, ""
	k := 0
	_, _, err := wire.EachRow(env.frame, &t.cur, func(row []byte) error {
		if k++; k <= from {
			return nil
		}
		in.Row = row
		t.col.held = t.rs != nil
		return t.settle(k-1, t.call(&in))
	})
	return err
}

// settle finishes row k of a delivered frame, whose callback returned err:
// held emissions ship on success and drop on failure. A panic on a task
// with an open recovery session, and no round it would conflict with, is
// captured with the row's index and reported as errPanicCaptured.
func (t *boltTask) settle(k int, err error) error {
	if t.col.held {
		err = t.col.settle(err)
	}
	if err != nil {
		if _, ok := err.(*panicFault); ok && t.rs != nil && !t.rs.recovering && t.ex.adapt == nil && t.mig == nil {
			t.rs.poisoned = &poisonedEnv{idx: k}
			return errPanicCaptured
		}
		return err
	}
	t.processed++
	if t.adaptHere && t.processed%t.ex.adapt.pol.ReportEvery == 0 {
		t.ex.adapt.report(t.task, t.epoch, t.rep)
	}
	if t.mem != nil && t.processed%256 == 0 {
		t.ex.checkMem(t.n, t.task, t.tm, t.mem)
		select {
		case <-t.ex.abort:
			return t.ex.abortErr()
		default:
		}
	}
	return nil
}

// call runs one bolt callback — exec on in, or Finish when in is nil —
// turning a panic into a *panicFault.
func (t *boltTask) call(in *RowInput) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &panicFault{val: r, stack: debug.Stack()}
		}
	}()
	if in == nil {
		return t.bolt.Finish(t.col)
	}
	return t.exec(*in, t.col)
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
	t.rs.startRecovery(panicked)
	return nil
}

// captured turns a panic captured mid-frame into a restore from the
// checkpoint route: the poisoned frame is kept to re-apply across its
// emission boundary, and the poisoned row's held emissions were dropped.
func (t *boltTask) captured(env envelope) error {
	t.rs.poisoned.env = env
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

// restoreData handles a data frame reaching a task mid-restore. Before the
// round begins it is traffic a panic left unapplied, stashed to reprocess
// once the restore completes. After, it is replayed input: re-imported
// silently when it was applied after the checkpoint but before the fault
// (older is in the checkpoint, newer is stashed).
func (t *boltTask) restoreData(env envelope) error {
	rs := t.rs
	if !rs.began {
		t.tm.Received.Add(int64(env.count))
		rs.stash = append(rs.stash, env)
		return nil
	}
	rel, ok := t.ex.rec.pol.RelOf[env.stream]
	if !ok {
		return t.errf(" replay from unmapped stream %q", env.stream)
	}
	var ckptCur int64
	if rs.manifest != nil {
		ckptCur = rs.manifest.CursorFor(env.stream, env.from)
	}
	if env.seq > ckptCur && env.seq <= rs.cursors[env.stream][env.from] {
		if err := importFrame(t.rep, rel, env.frame, -1, &rs.cur); err != nil {
			return t.errf(" replay import: %w", err)
		}
	}
	return nil
}

// recControl handles one recovery-plane envelope: a kill marker, a
// restore's begin, batch and done messages, a recovering peer's state
// request, or a cluster round's flush token.
func (t *boltTask) recControl(env envelope) error {
	if env.ctrl == ctrlNetFlush {
		if t.ex.net == nil {
			return t.errf(" received a flush token without a network plane")
		}
		t.ex.net.tokenSeen(env.seq)
		return nil
	}
	rs := t.rs
	if rs == nil {
		return t.errf(" received recovery control %d without a recovery session", env.ctrl)
	}
	switch env.ctrl {
	case ctrlKill:
		return t.kill()
	case ctrlRecBegin:
		if !rs.recovering {
			return t.errf(" stray recovery begin")
		}
		rs.began, rs.routes, rs.manifest = true, env.rec.routes, env.rec.manifest
	case ctrlRecBatch:
		if !rs.recovering || !rs.began {
			return t.errf(" stray recovery batch")
		}
		if err := importFrame(t.rep, env.rec.rel, env.rec.frame, -1, &rs.cur); err != nil {
			return t.errf(" restore import: %w", err)
		}
	case ctrlRecDone:
		if !rs.recovering || !rs.began {
			return t.errf(" stray recovery done")
		}
		if rs.dones++; rs.dones == t.ex.rec.pol.NumRels {
			if err := t.finishRecovery(); err != nil {
				return t.errf(" recovery: %w", err)
			}
		}
	case ctrlStateReq:
		if rs.recovering {
			// A concurrently-panicked peer has been rebirthed and is
			// mid-restore: exporting its (empty) state would silently
			// restore the victim wrong. Concurrent double-fault recovery is
			// out of scope — fail loudly instead.
			return t.errf(" asked to serve rel %d while itself recovering (concurrent double fault)", env.rec.rel)
		}
		if !rs.serveStateReq(t.bolt, t.tm, env.rec) {
			return t.ex.abortErr()
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

// finishRecovery closes a restore round: re-apply the poisoned frame across
// its emission boundary, reprocess the stashed backlog with full emission,
// re-checkpoint, and ack the round.
func (t *boltTask) finishRecovery() error {
	rs := t.rs
	if p := rs.poisoned; p != nil {
		if p.idx > 0 {
			// The applied prefix already emitted its deltas before the
			// crash; re-import it silently.
			if err := importFrame(t.rep, t.ex.rec.pol.RelOf[p.env.stream], p.env.frame, p.idx, &rs.cur); err != nil {
				return err
			}
		}
		// The crashing row and the rest of the frame never emitted.
		if err := t.deliver(p.env, p.idx); err != nil {
			return err
		}
		rs.applied(&p.env)
		rs.poisoned = nil
	}
	for _, env := range rs.stash {
		if err := t.deliver(env, 0); err != nil {
			return err
		}
		rs.applied(&env)
	}
	rs.stash = nil
	// A fresh checkpoint pins the restored state as the new replay horizon
	// before new input flows.
	if err := rs.checkpoint(t.bolt); err != nil {
		return err
	}
	rs.recovering = false
	select {
	case t.ex.rec.acks <- t.task:
		return nil
	case <-t.ex.abort:
		return t.ex.abortErr()
	}
}

// migrate handles one adaptive-plane envelope. The reshape barrier opens a
// migration round and applies the exports that outran it; peers' export
// frames import; the round closes once every peer's exports are in.
func (t *boltTask) migrate(env envelope) error {
	a := t.ex.adapt
	switch {
	case env.ctrl == ctrlReshape:
		mig, err := a.beginMigration(t.task, t.rep, t.tm, env.cmd)
		for _, e := range t.early {
			if err == nil {
				err = a.applyMig(mig, t.rep, e)
			}
		}
		t.early = nil
		if err != nil {
			return t.errf(" reshape: %w", err)
		}
		t.mig = mig
	case t.mig == nil:
		// A peer's exports for the round whose barrier marker we have not
		// drained to yet; apply them once it arrives.
		t.early = append(t.early, env)
		return nil
	default:
		if err := a.applyMig(t.mig, t.rep, env); err != nil {
			return t.errf(" migration: %w", err)
		}
	}
	if !t.mig.complete(t.n.par) {
		return nil
	}
	t.epoch, t.mig = t.mig.epoch, nil
	// A reshape moved state between tasks without consuming input, so older
	// checkpoints can no longer be reconciled with replay cursors:
	// re-checkpoint the new placement before any post-reshape tuple arrives.
	if t.rs != nil {
		if err := t.rs.checkpoint(t.bolt); err != nil {
			return t.errf(" post-reshape checkpoint: %w", err)
		}
	}
	// The ack carries this task's post-migration load refresh on a blocking
	// path, so the controller's first post-reshape decision sees every
	// task's slice of the new placement rather than a partial picture that
	// would whipsaw it.
	a.ackMigration(t.task, t.epoch, t.rep)
	return nil
}

// tupleChunk is how many values a TupleBolt's decoder carves tuples from
// before it takes a fresh chunk.
const tupleChunk = 256

// tupleDecoder materializes rows for a TupleBolt, which may keep every
// tuple it is handed, so nothing handed out is ever reused. Tuples are
// carved from a value chunk that is replaced, never recycled, once full,
// and every string of one frame slices a single string copy of that frame:
// a frame of ints and strings costs O(1) allocations, not one per value.
type tupleDecoder struct {
	chunk []types.Value
	frame []byte // the frame being delivered
	str   string // frame copied on its first string field; "" until then
}

// tuple decodes the row cur views, which must lie inside d.frame.
func (d *tupleDecoder) tuple(cur *wire.Cursor) types.Tuple {
	n := cur.Arity()
	if cap(d.chunk)-len(d.chunk) < n {
		d.chunk = make([]types.Value, 0, max(n, tupleChunk))
	}
	start := len(d.chunk)
	for i := 0; i < n; i++ {
		b, isStr := cur.Bytes(i)
		if !isStr {
			d.chunk = append(d.chunk, cur.Value(i))
			continue
		}
		if d.str == "" {
			d.str = string(d.frame)
		}
		// b slices d.frame, so their capacities differ by b's offset.
		off := cap(d.frame) - cap(b)
		d.chunk = append(d.chunk, types.Value{KindV: types.KindString, Str: d.str[off : off+len(b)]})
	}
	return types.Tuple(d.chunk[start:len(d.chunk):len(d.chunk)])
}
