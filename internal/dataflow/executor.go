package dataflow

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime/debug"
	"sync"
	"time"

	"squall/internal/slab"
	"squall/internal/types"
	"squall/internal/wire"
)

// ErrMemoryOverflow is returned (wrapped) when a task's state exceeds the
// per-task memory budget — the paper's "Memory Overflow" outcome in Figure 7.
var ErrMemoryOverflow = errors.New("memory overflow")

// ErrCanceled is returned when a run is aborted through Options.Cancel —
// the serving engine's Unregister path, not a failure of the query itself.
var ErrCanceled = errors.New("dataflow: run canceled")

// DefaultBatchSize is the transport batch size used when Options.BatchSize
// is unset: envelopes carry up to this many tuples per channel send, so the
// per-hop framing (channel operation, abort select, wire frame) is amortized
// across the batch.
const DefaultBatchSize = 64

// Options configure one topology execution.
type Options struct {
	// Seed makes shuffle/random groupings and spout factories deterministic.
	Seed int64
	// ChannelBuf is the per-task inbox capacity in envelopes (backpressure
	// depth; one envelope carries up to BatchSize tuples, so the in-flight
	// tuple budget is ChannelBuf x BatchSize). When unset it defaults to
	// max(128, 1024/BatchSize): deep enough to pipeline batched envelopes
	// without buffering 64x more tuples than one-row batches would.
	ChannelBuf int
	// BatchSize caps how many tuples ride in one envelope per (edge, target)
	// before the producer flushes. Default DefaultBatchSize; 1 ships one-row
	// batches through the same path, so every tuple copy is its own send and
	// its own wire frame.
	BatchSize int
	// MemLimitPerTask, when > 0, aborts the run with ErrMemoryOverflow if any
	// MemReporter bolt's state exceeds this many bytes.
	MemLimitPerTask int
	// NoSerialize skips the per-hop tuple (de)serialization. Used by tests
	// and by analytical benches where network cost must be excluded
	// (Figure 5 isolates it explicitly instead).
	NoSerialize bool
	// VecExec enables vectorized frame execution (PR 6): producers append a
	// column-offset footer to every packed frame they flush, and consumers
	// implementing FrameBolt receive whole frames instead of a per-row walk.
	// Off reproduces the PR 5 packed transport bit for bit. Frame delivery is
	// disabled per task on recovery-protected and adaptive bolts, whose
	// control planes need per-row delivery bookkeeping.
	VecExec bool
	// Adaptive, when set, runs one 2-way join component as a live adaptive
	// 1-Bucket operator: its input edges route by the policy's matrix, a
	// controller reshapes the matrix as the observed size ratio drifts, and
	// joiner state migrates between tasks (see adapt.go).
	Adaptive *AdaptivePolicy
	// Recovery, when set, protects one component with the live
	// fault-tolerance subsystem: sequence-tagged inputs, incremental
	// checkpoints, and kill/panic recovery by peer refetch or checkpoint +
	// replay (see recover.go).
	Recovery *RecoveryPolicy
	// Cancel, when non-nil, aborts the run with ErrCanceled once the channel
	// is closed. The long-lived serving engine uses it to detach a registered
	// query without fate-sharing the process; a cancelled run still drains its
	// tasks and returns partial metrics like any other abort.
	Cancel <-chan struct{}
	// MemObserver, when non-nil, receives every MemReporter state sample the
	// executor takes (the same cadence as MemLimitPerTask enforcement: every
	// 256 processed tuples per task plus once at end of stream). The serving
	// engine charges these samples against per-tenant budgets. Called from
	// task goroutines; must be cheap and concurrency-safe across tasks.
	MemObserver func(component string, task int, bytes int64)
	// Pressure, when set, is the tiered-state degradation ladder (PR 10).
	// The executor only reads it: spouts pause briefly per batch while the
	// ladder sits at Backpressure (spilling is not keeping residency under
	// the cap) and pause harder at Reject, giving the arenas' spill step time
	// to catch up instead of racing emission against eviction. The arenas
	// themselves feed the ladder through their pressure gauges.
	Pressure *slab.Pressure
	// SpillObserver, when non-nil, receives every SpillReporter sample the
	// executor takes (same cadence as MemObserver). The serving engine
	// mirrors these into per-tenant spilled-byte accounting. Called from task
	// goroutines; must be cheap and concurrency-safe across tasks.
	SpillObserver func(component string, task int, bytes int64)
	// Net, when set, makes this Run one worker of a multi-process cluster:
	// only the components Net places here execute locally, edges to remote
	// components ship serialized envelopes over TCP with credit-based
	// backpressure, and the control planes drive their remote producers
	// through the plane's RPCs (see net.go). Every participating process
	// must build the identical topology with identical Options.
	Net *NetPlane
}

// envelope is one channel message: a batch of tuples sharing provenance
// (same producer task, same stream), a packed frame of wire-encoded rows
// (EmitRow's zero-materialization transport, PR 5), an EOS marker, or a
// control message (adaptive barrier / migration traffic, or recovery kill /
// restore traffic).
type envelope struct {
	batch []types.Tuple
	// frame is a wire batch frame (varint(count) + encoded rows) shipped
	// without decoding; count is its row count. RowBolt consumers walk it
	// with a cursor, everyone else receives it decoded.
	frame []byte
	count int
	// pframe/pbatch, when non-nil, are the pool boxes the consumer refills
	// with the consumed payload and returns after delivery — the whole
	// recycle is allocation-free. Never set on recovery-tracked edges,
	// whose payloads are retained for replay/stash.
	pframe *[]byte
	pbatch *[]types.Tuple
	stream string
	from   int
	// seq is the per-(producer task, destination task) sequence number on
	// edges into a recovery-protected component (0 elsewhere): the consumer
	// dedups replayed envelopes by it (exactly-once).
	seq  int64
	eos  bool
	ctrl ctrlKind
	cmd  *reshapeCmd // ctrlReshape payload
	mig  *migBatch   // ctrlMigBatch / ctrlMigDone payload
	rec  *recMsg     // recovery-plane payload
}

// Transport pools: steady-state runs recycle envelope payloads between
// consumer and producer instead of churning them through the GC — the
// NoSerialize batch slices, the decoded-batch tuple headers, and the packed
// frame buffers. Payloads on recovery-tracked edges are never pooled (the
// replay buffer or the consumer's stash retains them).
var (
	batchPool = sync.Pool{New: func() any { s := []types.Tuple(nil); return &s }}
	framePool = sync.Pool{New: func() any { b := []byte(nil); return &b }}
)

// releaseEnv refills a delivered envelope's pool boxes with the consumed
// payloads and returns them.
func releaseEnv(env *envelope) {
	if env.pframe != nil {
		*env.pframe = env.frame[:0]
		putFrameBox(env.pframe)
		env.pframe, env.frame = nil, nil
	}
	if env.pbatch != nil {
		*env.pbatch = env.batch[:0]
		putBatchBox(env.pbatch)
		env.pbatch, env.batch = nil, nil
	}
}

// rowBatch is one (edge, target) packed accumulation buffer: encoded rows
// appended back to back after hdrRoom reserved bytes, where flushRow stamps
// the frame's count varint. box is the pool box the buffer came from; it
// travels in the flushed envelope so the consumer's return trip reuses it.
// Under VecExec, foot accumulates the column-offset footer as rows land, so
// the flush appends it without re-scanning the frame.
type rowBatch struct {
	box   *[]byte
	buf   []byte
	count int
	foot  wire.FooterBuilder
}

// Collector routes a task's emitted tuples to the downstream tasks chosen by
// each outgoing edge's grouping, accumulating per-(edge, target) batches
// that flush at Options.BatchSize and on EOS. One Collector belongs to one
// task; it is not safe for concurrent use.
type Collector struct {
	ex        *execution
	node      *node
	task      int
	rng       *rand.Rand
	metrics   *TaskMetrics
	batchSize int
	scratch   []byte
	tbuf      []int
	dec       wire.BatchDecoder
	// out[edge][target] is the pending batch bound for one downstream inbox;
	// outBox[edge][target] is the pool box its slice came from (nil until
	// the slot's first pooled refill).
	out    [][][]types.Tuple
	outBox [][]*[]types.Tuple
	// Packed emission (EmitRow): pout[edge][target] accumulates encoded rows
	// that flush as ready wire frames — rows cross the edge without ever
	// being decoded. rowGroup caches each edge's RowGrouping (nil = the
	// grouping needs a materialized tuple); rowCur/routeT are the per-emit
	// cursor and the fallback-materialization scratch; hdrRoom is the space
	// reserved for the frame count varint. A task must not interleave Emit
	// and EmitRow on the same edge mid-stream — the two buffer families
	// flush independently, so mixing would break per-target FIFO framing
	// (bag semantics tolerate it, but nothing in the engine does it).
	pout     [][]rowBatch
	rowGroup []RowGrouping
	rowCur   wire.Cursor
	routeT   types.Tuple
	hdrRoom  int
	// vec mirrors Options.VecExec: EmitRow feeds each pending frame's footer
	// builder and flushRow appends the footer before shipping.
	vec bool
	// adaptSide[edge] is the adaptive side (0 = R, 1 = S) of each outgoing
	// edge, -1 for normal edges; nil when this node has no adaptive edges.
	adaptSide []int
	// adaptOut[edge][coord] is the pending adaptive batch for one matrix
	// coordinate (row for the R side, column for S): tuples are buffered
	// once per coordinate and the flushed frame is replicated to every cell
	// of that row/column. adaptEpoch is the routing epoch the pending
	// batches were assigned under; adaptReroute is reroute scratch.
	adaptOut     [][][]types.Tuple
	adaptEpoch   int
	adaptReroute []types.Tuple
	// recTracked[edge] marks outgoing edges into the recovery-protected
	// component (nil when this node has none): their sends are sequence-
	// tagged, retained for replay, and pass through the recovery pause gate.
	// recSeq[edge][target] is the last assigned sequence; recShared[edge]
	// records whether any currently-buffered tuple of the edge routed to
	// multiple targets (such tuples must flush as one gate session, see
	// Emit); recPid is this producer task's id in the replay-buffer table;
	// inRecGate tracks gate re-entrancy (the gate is counting, so a nested
	// enter while paused would self-deadlock).
	recTracked []bool
	recSeq     [][]int64
	recShared  []bool
	recPid     int
	inRecGate  bool
}

// recEnter joins the recovery pause gate unless this goroutine already holds
// it; entered reports whether recExit must be called, ok is false on abort.
func (c *Collector) recEnter() (entered, ok bool) {
	if c.inRecGate {
		return false, true
	}
	if !c.ex.rec.enter() {
		return false, false
	}
	c.inRecGate = true
	return true, true
}

func (c *Collector) recExit() {
	c.inRecGate = false
	c.ex.rec.exit()
}

// Emit ships t to all subscribed downstream components. The tuple may be
// retained in pending batch buffers until the next flush (batch full, EOS),
// so the caller must not mutate it after emitting — the engine-wide
// tuples-are-immutable convention (types.Tuple) is load-bearing here.
func (c *Collector) Emit(t types.Tuple) error {
	c.metrics.Emitted.Add(1)
	for ei, e := range c.node.outputs {
		if c.adaptSide != nil && c.adaptSide[ei] >= 0 {
			if err := c.emitAdaptiveGated(ei, c.adaptSide[ei], t); err != nil {
				return err
			}
			continue
		}
		c.tbuf = e.grouping.Targets(t, e.to.par, c.rng, c.tbuf[:0])
		full := false
		for _, target := range c.tbuf {
			if target < 0 || target >= e.to.par {
				return fmt.Errorf("dataflow: grouping on edge %s->%s chose task %d of %d", e.from.name, e.to.name, target, e.to.par)
			}
			c.out[ei][target] = append(c.out[ei][target], t)
			if len(c.out[ei][target]) >= c.batchSize {
				full = true
			}
		}
		if c.recTracked != nil && c.recTracked[ei] && len(c.tbuf) > 1 {
			c.recShared[ei] = true
		}
		if !full {
			continue
		}
		if c.recTracked != nil && c.recTracked[ei] && c.recShared[ei] {
			// A replicated tuple is pending somewhere on this edge: flush
			// every target together inside one gate session, so the tuple is
			// never delivered to one copy's task while still buffered for
			// another when a recovery round quiesces the edge — a peer
			// snapshot would disagree with the failed task's applied
			// history. Edges carrying only unicast tuples keep the ordinary
			// per-target flush (full batch amortization): with no replicas,
			// nothing can be split. Replicating edges deliberately accept
			// sub-BatchSize frames for the uneven targets here: flushing
			// only the targets sharing pending replicas would need
			// per-tuple target-set bookkeeping on the hot path, and the
			// conservative whole-edge flush is what the `recover`
			// experiment's <25% overhead gate already prices in.
			if err := c.flushEdgeTracked(ei); err != nil {
				return err
			}
			continue
		}
		for _, target := range c.tbuf {
			if len(c.out[ei][target]) >= c.batchSize {
				if err := c.flush(ei, target); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// EmitRow ships one wire-encoded row to all subscribed downstream
// components without materializing a tuple: routing reads the encoded
// fields through a cursor (RowGrouping), and the row's bytes are appended
// straight into per-(edge, target) frame buffers that flush as ready wire
// frames. This is the packed execution hot path (PR 5): a row crossing N
// non-adaptive edges costs N memcpys, zero decodes and zero re-encodes.
// The row is copied immediately, so the caller may reuse its buffer.
func (c *Collector) EmitRow(row []byte) error {
	c.metrics.Emitted.Add(1)
	if err := c.rowCur.Reset(row); err != nil {
		return fmt.Errorf("dataflow: EmitRow from %s[%d]: %w", c.node.name, c.task, err)
	}
	materialized := false
	for ei, e := range c.node.outputs {
		if c.adaptSide != nil && c.adaptSide[ei] >= 0 {
			// Adaptive edges keep tuple semantics: their coordinate buffers
			// retain tuples across the reshape protocol, so the row is
			// materialized once (owned — the buffer outlives this call).
			if err := c.emitAdaptiveGated(ei, c.adaptSide[ei], c.rowCur.Tuple(nil)); err != nil {
				return err
			}
			continue
		}
		if rg := c.rowGroup[ei]; rg != nil {
			c.tbuf = rg.RowTargets(&c.rowCur, e.to.par, c.rng, c.tbuf[:0])
		} else {
			// The grouping has no packed path: materialize into reusable
			// scratch (groupings never retain the tuple).
			if !materialized {
				c.routeT = c.rowCur.Tuple(c.routeT)
				materialized = true
			}
			c.tbuf = e.grouping.Targets(c.routeT, e.to.par, c.rng, c.tbuf[:0])
		}
		full := false
		for _, target := range c.tbuf {
			if target < 0 || target >= e.to.par {
				return fmt.Errorf("dataflow: grouping on edge %s->%s chose task %d of %d", e.from.name, e.to.name, target, e.to.par)
			}
			rb := &c.pout[ei][target]
			if rb.buf == nil {
				c.newRowBuf(rb)
			}
			if c.vec {
				rb.foot.AddRow(len(rb.buf)-c.hdrRoom, &c.rowCur)
			}
			rb.buf = append(rb.buf, row...)
			rb.count++
			if rb.count >= c.batchSize {
				full = true
			}
		}
		if c.recTracked != nil && c.recTracked[ei] && len(c.tbuf) > 1 {
			c.recShared[ei] = true
		}
		if !full {
			continue
		}
		if c.recTracked != nil && c.recTracked[ei] && c.recShared[ei] {
			// Same invariant as Emit: a replicated row pending on a tracked
			// edge flushes every target inside one gate session.
			if err := c.flushEdgeTracked(ei); err != nil {
				return err
			}
			continue
		}
		for _, target := range c.tbuf {
			if c.pout[ei][target].count >= c.batchSize {
				if err := c.flushRow(ei, target); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// newRowBuf takes a frame buffer (and its box) from the pool with hdrRoom
// bytes reserved for the count varint flushRow stamps.
func (c *Collector) newRowBuf(rb *rowBatch) {
	p := getFrameBox()
	buf := *p
	if cap(buf) < c.hdrRoom {
		buf = make([]byte, c.hdrRoom, c.hdrRoom+512)
	}
	rb.box, rb.buf = p, buf[:c.hdrRoom]
	if c.vec {
		rb.foot.Reset()
	}
}

// flushRow ships the pending packed frame of one (edge, target) buffer: the
// count varint is stamped into the reserved header room and the buffer is
// handed to the consumer as-is — the frame was effectively "encoded" by the
// row appends themselves. Tracked edges sequence-tag the frame and retain
// it for replay, exactly like flush.
func (c *Collector) flushRow(ei, target int) error {
	rb := &c.pout[ei][target]
	if rb.count == 0 {
		return nil
	}
	e := c.node.outputs[ei]
	tracked := c.recTracked != nil && c.recTracked[ei]
	if tracked {
		entered, ok := c.recEnter()
		if !ok {
			return c.ex.abortErr()
		}
		if entered {
			defer c.recExit()
		}
	}
	if c.vec {
		// The footer's offsets are relative to the rows region, so appending
		// it before the count varint is stamped is safe regardless of the
		// varint's width.
		rb.buf = rb.foot.Append(rb.buf)
	}
	var hdr [10]byte
	hl := binary.PutUvarint(hdr[:], uint64(rb.count))
	start := c.hdrRoom - hl
	copy(rb.buf[start:], hdr[:hl])
	frame := rb.buf[start:]
	env := envelope{stream: c.node.name, from: c.task, frame: frame, count: rb.count}
	c.metrics.BytesOut.Add(int64(len(frame)))
	c.metrics.Sent.Add(int64(rb.count))
	c.metrics.Batches.Add(1)
	if tracked {
		c.recSeq[ei][target]++
		env.seq = c.recSeq[ei][target]
		c.ex.rec.record(c.recPid, target, replayEnt{frame: frame, count: rb.count, seq: env.seq})
		// The replay buffer retains the frame: return only the empty box.
		*rb.box = nil
		putFrameBox(rb.box)
	} else {
		env.pframe = rb.box
	}
	// Ownership of the buffer moves downstream; start fresh.
	rb.box, rb.buf, rb.count = nil, nil, 0
	if !c.ex.send(e.to, target, env) {
		return c.ex.abortErr()
	}
	return nil
}

// flushEdgeTracked drains every pending batch of one recovery-tracked edge
// inside a single gate session, so the gate never splits a replication group.
func (c *Collector) flushEdgeTracked(ei int) error {
	entered, ok := c.recEnter()
	if !ok {
		return c.ex.abortErr()
	}
	if entered {
		defer c.recExit()
	}
	for target := range c.out[ei] {
		if err := c.flush(ei, target); err != nil {
			return err
		}
	}
	for target := range c.pout[ei] {
		if err := c.flushRow(ei, target); err != nil {
			return err
		}
	}
	c.recShared[ei] = false
	return nil
}

// emitAdaptiveGated routes one adaptive-edge tuple, holding the recovery
// gate (when installed) outside the adaptive gate — the lock order the
// control planes' round serialization (roundMu) relies on.
func (c *Collector) emitAdaptiveGated(ei, side int, t types.Tuple) error {
	if c.recTracked != nil && c.recTracked[ei] {
		entered, ok := c.recEnter()
		if !ok {
			return c.ex.abortErr()
		}
		if entered {
			defer c.recExit()
		}
	}
	return c.emitAdaptive(ei, side, t)
}

// flush ships the pending batch of one (edge, target) buffer downstream. On
// edges into a recovery-protected component the send happens inside the
// recovery gate, carries the next (producer, target) sequence number, and is
// retained in the replay buffer.
func (c *Collector) flush(ei, target int) error {
	batch := c.out[ei][target]
	if len(batch) == 0 {
		return nil
	}
	e := c.node.outputs[ei]
	tracked := c.recTracked != nil && c.recTracked[ei]
	if tracked {
		entered, ok := c.recEnter()
		if !ok {
			return c.ex.abortErr()
		}
		if entered {
			defer c.recExit()
		}
	}
	env := envelope{stream: c.node.name, from: c.task}
	var ent replayEnt
	switch {
	case c.ex.opts.NoSerialize:
		// The consumer takes ownership of the slice; start a fresh buffer
		// from the pool. The outgoing slice's box (outBox) travels in the
		// envelope so the consumer's return trip recycles both without
		// allocating — unless the edge retains payloads for replay.
		env.batch = batch
		box := c.outBox[ei][target]
		if tracked {
			// Replay re-delivers the same immutable tuples; only the empty
			// box returns to the pool.
			ent = replayEnt{tuples: batch, count: len(batch)}
			if box != nil {
				*box = nil
				putBatchBox(box)
			}
		} else {
			if box == nil {
				box = new([]types.Tuple) // first flush of this slot
				adoptBatchBox(box)
			}
			env.pbatch = box
		}
		p := getBatchBox()
		next := *p
		if cap(next) < c.batchSize {
			next = make([]types.Tuple, 0, c.batchSize)
		}
		c.out[ei][target] = next[:0]
		c.outBox[ei][target] = p
		c.metrics.Sent.Add(int64(len(batch)))
	default:
		// One wire frame per flush: the destination receives its own
		// deserialized copies, exactly as on a real network, but the frame
		// cost is paid once per batch. The accumulation buffer is reusable
		// because only the decoded copies leave this task. The decoded
		// tuple headers land in a pooled slice (the value arena stays fresh
		// per frame, so retained tuples are unaffected by recycling) whose
		// box rides the envelope back to the pool.
		c.scratch = wire.EncodeBatch(c.scratch[:0], batch)
		p := getBatchBox()
		out, _, err := c.dec.DecodeReuse(c.scratch, *p)
		if err != nil {
			return fmt.Errorf("dataflow: wire corruption on %s->%s: %w", e.from.name, e.to.name, err)
		}
		env.batch = out
		if tracked {
			// The consumer may stash the batch during a recovery round;
			// only the empty box returns.
			*p = nil
			putBatchBox(p)
		} else {
			env.pbatch = p
		}
		c.metrics.BytesOut.Add(int64(len(c.scratch)))
		c.out[ei][target] = batch[:0]
		c.metrics.Sent.Add(int64(len(out)))
		if tracked {
			ent = replayEnt{frame: append([]byte(nil), c.scratch...), count: len(out)}
		}
	}
	c.metrics.Batches.Add(1)
	if tracked {
		c.recSeq[ei][target]++
		env.seq = c.recSeq[ei][target]
		ent.seq = env.seq
		c.ex.rec.record(c.recPid, target, ent)
	}
	if !c.ex.send(e.to, target, env) {
		return c.ex.abortErr()
	}
	return nil
}

// flushAll drains every pending batch — tuple and packed row buffers alike —
// preserving per-target FIFO order. Tracked edges with a replicated tuple
// pending drain inside one gate session per edge (see Emit).
func (c *Collector) flushAll() error {
	for ei := range c.node.outputs {
		if c.recTracked != nil && c.recTracked[ei] && c.recShared[ei] {
			if err := c.flushEdgeTracked(ei); err != nil {
				return err
			}
			continue
		}
		for target := range c.out[ei] {
			if err := c.flush(ei, target); err != nil {
				return err
			}
		}
		for target := range c.pout[ei] {
			if err := c.flushRow(ei, target); err != nil {
				return err
			}
		}
	}
	return nil
}

// close returns the pool boxes the collector still holds once the task is
// done emitting: the NoSerialize accumulation boxes parked in outBox (every
// flush Gets a replacement that the final flush strands there), and any
// packed-row buffer an abort left unflushed. Without it, every task retired
// one box per output slot per run — never unsafe, but a steady leak that
// degraded the pools back toward per-envelope allocation on repeated runs,
// and noise that would mask real leaks in the pool ledger. Must run after
// the last flush/eos; boxes in envelopes already sent are owned downstream
// and are not touched.
func (c *Collector) close() {
	for ei := range c.outBox {
		for t, box := range c.outBox[ei] {
			if box != nil {
				*box = nil
				putBatchBox(box)
				c.outBox[ei][t] = nil
				c.out[ei][t] = nil
			}
		}
	}
	for ei := range c.pout {
		for t := range c.pout[ei] {
			rb := &c.pout[ei][t]
			if rb.box != nil {
				*rb.box = nil
				putFrameBox(rb.box)
				rb.box, rb.buf, rb.count = nil, nil, 0
			}
		}
	}
}

// eos flushes all pending batches, then broadcasts end-of-stream to every
// task of every downstream component. Inboxes are FIFO, so a consumer always
// sees the final partial batch before the EOS marker.
func (c *Collector) eos() {
	if err := c.flushAll(); err != nil {
		// A flush can only fail on abort (send refused) or wire corruption of
		// our own encoding; surface the latter, no-op on the former.
		c.ex.fail(fmt.Errorf("dataflow: %s[%d] final flush: %w", c.node.name, c.task, err))
		return
	}
	for ei, e := range c.node.outputs {
		if c.adaptSide != nil && c.adaptSide[ei] >= 0 {
			// EOS on an adaptive edge goes through the pause gate(s) so it
			// cannot interleave with a reshape barrier (adapt.go) or a
			// recovery round (recover.go).
			if c.recTracked != nil && c.recTracked[ei] {
				entered, ok := c.recEnter()
				if !ok {
					// Aborting; the adaptive controller still needs its exact
					// live count to unwind.
					c.ex.adapt.live.Add(-1)
					return
				}
				c.producerEOS(ei)
				if entered {
					c.recExit()
				}
				continue
			}
			c.producerEOS(ei)
			continue
		}
		if c.recTracked != nil && c.recTracked[ei] {
			if !c.trackedEOS(ei) {
				return
			}
			continue
		}
		for target := 0; target < e.to.par; target++ {
			if !c.ex.send(e.to, target, envelope{stream: c.node.name, from: c.task, eos: true}) {
				return
			}
		}
	}
}

// trackedEOS broadcasts a producer task's EOS on a recovery-tracked edge
// from inside the gate, so a recovery round never interleaves with it.
func (c *Collector) trackedEOS(ei int) bool {
	e := c.node.outputs[ei]
	entered, ok := c.recEnter()
	if !ok {
		return false
	}
	if entered {
		defer c.recExit()
	}
	for target := 0; target < e.to.par; target++ {
		if !c.ex.send(e.to, target, envelope{stream: c.node.name, from: c.task, eos: true}) {
			return false
		}
	}
	return true
}

// execution is the runtime state of one Run call.
type execution struct {
	topo    *Topology
	opts    Options
	inboxes map[*node][]chan envelope
	metrics *RunMetrics
	abort   chan struct{}
	once    sync.Once
	err     error
	adapt   *adaptState // non-nil when Options.Adaptive is set
	rec     *recState   // non-nil when Options.Recovery is set
	net     *NetPlane   // non-nil when Options.Net is set (cluster worker)
	// roundMu serializes control-plane rounds: an adaptive reshape and a
	// recovery round each hold it end to end, so a task is never asked to
	// migrate state and rebuild it in the same breath.
	roundMu sync.Mutex
}

func (ex *execution) fail(err error) {
	ex.once.Do(func() {
		ex.err = err
		if ex.net != nil {
			// Tell the other workers before releasing local waiters, so their
			// own failure reports name this error rather than a link teardown.
			ex.net.broadcastAbort(err)
		}
		close(ex.abort)
	})
}

func (ex *execution) abortErr() error {
	select {
	case <-ex.abort:
		if ex.err != nil {
			return ex.err
		}
		return errors.New("dataflow: aborted")
	default:
		return errors.New("dataflow: send failed without abort")
	}
}

// send delivers an envelope unless the run has been aborted; it reports
// whether delivery happened. Envelopes for remotely hosted components leave
// through the network plane instead of an inbox.
func (ex *execution) send(to *node, task int, env envelope) bool {
	if ex.net != nil && !ex.net.owns(to) {
		return ex.net.sendRemote(to, task, env)
	}
	select {
	case ex.inboxes[to][task] <- env:
		return true
	case <-ex.abort:
		return false
	}
}

func taskSeed(base int64, comp string, task int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%d", base, comp, task)
	return int64(h.Sum64())
}

// Run executes the topology to completion: spouts drain, EOS propagates
// through every bolt (triggering Finish), and per-task metrics are returned.
// On error (bolt failure, memory overflow) the run aborts and the partial
// metrics are still returned alongside the error, which is how the paper
// extrapolates runtimes for configurations that die of memory overflow.
func Run(t *Topology, opts Options) (*RunMetrics, error) {
	if opts.BatchSize <= 0 {
		opts.BatchSize = DefaultBatchSize
	}
	if opts.ChannelBuf <= 0 {
		opts.ChannelBuf = 1024 / opts.BatchSize
		if opts.ChannelBuf < 128 {
			opts.ChannelBuf = 128
		}
	}
	ex := &execution{
		topo:    t,
		opts:    opts,
		inboxes: make(map[*node][]chan envelope, len(t.nodes)),
		abort:   make(chan struct{}),
		metrics: &RunMetrics{Components: make(map[string]*ComponentMetrics, len(t.nodes)), topo: t},
	}
	if opts.Net != nil {
		if opts.NoSerialize {
			return nil, errors.New("dataflow: NoSerialize cannot cross process boundaries — cluster runs serialize every edge")
		}
		// Set before initAdaptive/initRecovery: both size their accounting to
		// the locally hosted slice of the topology.
		ex.net = opts.Net
	}
	for _, n := range t.nodes {
		cm := &ComponentMetrics{Name: n.name, Par: n.par, Tasks: make([]*TaskMetrics, n.par)}
		chans := make([]chan envelope, n.par)
		for i := range chans {
			chans[i] = make(chan envelope, opts.ChannelBuf)
			cm.Tasks[i] = &TaskMetrics{}
		}
		ex.inboxes[n] = chans
		ex.metrics.Components[n.name] = cm
	}
	if opts.Adaptive != nil {
		if err := ex.initAdaptive(opts.Adaptive); err != nil {
			return nil, err
		}
	}
	if opts.Recovery != nil {
		if err := ex.initRecovery(opts.Recovery); err != nil {
			return nil, err
		}
	}
	if ex.net != nil {
		if err := ex.net.bind(ex); err != nil {
			return nil, err
		}
	}

	// The cancel watcher must be joined before Run returns: a Cancel closed
	// as the run drains would otherwise race its fail call against the caller
	// reading the returned error.
	stopCancel := func() {}
	if opts.Cancel != nil {
		cancelQuit := make(chan struct{})
		cancelExit := make(chan struct{})
		go func() {
			defer close(cancelExit)
			select {
			case <-opts.Cancel:
				ex.fail(ErrCanceled)
			case <-cancelQuit:
			case <-ex.abort:
			}
		}()
		stopCancel = func() { close(cancelQuit); <-cancelExit }
	}

	// In a cluster run, only the locally placed slice executes here: local
	// tasks, and a control-plane manager only when its protected component is
	// hosted here (keeping every control envelope process-local).
	local := func(n *node) bool { return ex.net == nil || ex.net.owns(n) }
	start := time.Now()
	var wg sync.WaitGroup
	runAdapt := ex.adapt != nil && local(ex.adapt.node)
	runRec := ex.rec != nil && local(ex.rec.node)
	if runAdapt {
		go ex.adapt.run()
	}
	if runRec {
		go ex.rec.run()
	}
	for _, n := range t.nodes {
		if !local(n) {
			continue
		}
		for task := 0; task < n.par; task++ {
			wg.Add(1)
			if n.spout != nil {
				go ex.runSpout(&wg, n, task)
			} else {
				go ex.runBolt(&wg, n, task)
			}
		}
	}
	wg.Wait()
	stopCancel()
	if runAdapt {
		close(ex.adapt.quit)
		<-ex.adapt.done
		ex.adapt.exportWG.Wait()
	}
	if runRec {
		close(ex.rec.quit)
		<-ex.rec.done
	}
	ex.metrics.Elapsed = time.Since(start)
	return ex.metrics, ex.err
}

func (ex *execution) collector(n *node, task int) *Collector {
	out := make([][][]types.Tuple, len(n.outputs))
	outBox := make([][]*[]types.Tuple, len(n.outputs))
	pout := make([][]rowBatch, len(n.outputs))
	rowGroup := make([]RowGrouping, len(n.outputs))
	for i, e := range n.outputs {
		out[i] = make([][]types.Tuple, e.to.par)
		outBox[i] = make([]*[]types.Tuple, e.to.par)
		pout[i] = make([]rowBatch, e.to.par)
		rowGroup[i], _ = e.grouping.(RowGrouping)
	}
	hdrRoom := 1
	for v := uint64(ex.opts.BatchSize); v >= 0x80; v >>= 7 {
		hdrRoom++
	}
	var adaptSide []int
	var adaptOut [][][]types.Tuple
	if ex.adapt != nil {
		if adaptSide = ex.adapt.sidesFor(n); adaptSide != nil {
			adaptOut = make([][][]types.Tuple, len(n.outputs))
			for ei, side := range adaptSide {
				if side >= 0 {
					// A coordinate never exceeds the joiner's task count.
					adaptOut[ei] = make([][]types.Tuple, ex.adapt.node.par)
				}
			}
		}
	}
	var recTracked, recShared []bool
	var recSeq [][]int64
	recPid := 0
	if ex.rec != nil {
		if tr, base := ex.rec.tracksFor(n); tr != nil {
			recTracked = tr
			recPid = base + task
			recSeq = make([][]int64, len(n.outputs))
			recShared = make([]bool, len(n.outputs))
			for ei, tracked := range tr {
				if tracked {
					recSeq[ei] = make([]int64, n.outputs[ei].to.par)
				}
			}
		}
	}
	return &Collector{
		ex:         ex,
		node:       n,
		task:       task,
		rng:        rand.New(rand.NewSource(taskSeed(ex.opts.Seed, n.name, task))),
		metrics:    ex.metrics.Components[n.name].Tasks[task],
		batchSize:  ex.opts.BatchSize,
		out:        out,
		outBox:     outBox,
		pout:       pout,
		rowGroup:   rowGroup,
		hdrRoom:    hdrRoom,
		vec:        ex.opts.VecExec,
		adaptSide:  adaptSide,
		adaptOut:   adaptOut,
		recTracked: recTracked,
		recSeq:     recSeq,
		recShared:  recShared,
		recPid:     recPid,
	}
}

func (ex *execution) runSpout(wg *sync.WaitGroup, n *node, task int) {
	defer wg.Done()
	col := ex.collector(n, task)
	defer col.close() // after eos: the final flush decides which boxes remain
	defer col.eos()
	sp := n.spout(task, n.par)
	// Packed sources (RowSpout) hand the executor wire-encoded rows: one
	// encode at the source, then routing, transport and state inserts all
	// work on the bytes. NoSerialize runs skip it — there the tuple path is
	// the cheap one, frames would reintroduce the cost being excluded.
	if rsp, ok := sp.(RowSpout); ok && !ex.opts.NoSerialize {
		for i := 0; ; i++ {
			if i%col.batchSize == 0 {
				select {
				case <-ex.abort:
					return
				default:
				}
				ex.spoutThrottle()
			}
			row, ok := rsp.NextRow()
			if !ok {
				return
			}
			if err := col.EmitRow(row); err != nil {
				ex.fail(fmt.Errorf("dataflow: spout %s[%d]: %w", n.name, task, err))
				return
			}
		}
	}
	// The abort poll is amortized to once per batch; flushes inside Emit
	// observe aborts anyway, so a stuck downstream never wedges the spout.
	for i := 0; ; i++ {
		if i%col.batchSize == 0 {
			select {
			case <-ex.abort:
				return
			default:
			}
			ex.spoutThrottle()
		}
		tuple, ok := sp.Next()
		if !ok {
			return
		}
		if err := col.Emit(tuple); err != nil {
			ex.fail(fmt.Errorf("dataflow: spout %s[%d]: %w", n.name, task, err))
			return
		}
	}
}

// panicFault is a panic captured inside Bolt.Execute, carried as an error so
// the executor can either convert it into a recovery round or fail the run
// with the stack attached.
type panicFault struct {
	val   any
	stack []byte
}

func (p *panicFault) Error() string { return fmt.Sprintf("bolt panic: %v", p.val) }

// errPanicCaptured signals that a panic was absorbed into a recovery round.
var errPanicCaptured = errors.New("dataflow: bolt panic captured")

// safeExecute runs Bolt.Execute with panic capture.
func safeExecute(b Bolt, in Input, col *Collector) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &panicFault{val: r, stack: debug.Stack()}
		}
	}()
	return b.Execute(in, col)
}

// safeExecuteRow runs RowBolt.ExecuteRow with panic capture.
func safeExecuteRow(b RowBolt, in RowInput, col *Collector) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &panicFault{val: r, stack: debug.Stack()}
		}
	}()
	return b.ExecuteRow(in, col)
}

// safeExecuteFrame runs FrameBolt.ExecuteFrame with panic capture.
func safeExecuteFrame(b FrameBolt, in FrameInput, col *Collector) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &panicFault{val: r, stack: debug.Stack()}
		}
	}()
	return b.ExecuteFrame(in, col)
}

// safeFinish runs Bolt.Finish with panic capture (never recoverable — the
// stream is over — but a panic must fail the run, not crash the process).
func safeFinish(b Bolt, col *Collector) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &panicFault{val: r, stack: debug.Stack()}
		}
	}()
	return b.Finish(col)
}

func (ex *execution) runBolt(wg *sync.WaitGroup, n *node, task int) {
	defer wg.Done()
	col := ex.collector(n, task)
	defer col.close() // eos (or an abort) has flushed whatever will flush
	bolt := n.bolt(task, n.par)
	// The task owns its bolt's external charges (pressure gauges); refund
	// them when the task exits, whatever bolt instance it ends with.
	defer func() { releaseState(bolt) }()
	mem, hasMem := bolt.(MemReporter)
	rowBolt, _ := bolt.(RowBolt)
	frameBolt, _ := bolt.(FrameBolt)
	tm := col.metrics

	// Adaptive joiner tasks repartition state on reshape barriers and feed
	// the controller load reports.
	var rep Repartitioner
	adaptHere := ex.adapt != nil && ex.adapt.node == n
	if adaptHere {
		var ok bool
		if rep, ok = bolt.(Repartitioner); !ok {
			ex.fail(fmt.Errorf("dataflow: adaptive bolt %s[%d] (%T) does not implement Repartitioner", n.name, task, bolt))
			return
		}
	}
	// Recovery-protected tasks track input cursors, checkpoint periodically,
	// and rebuild their state after a kill or captured panic.
	var rs *recSession
	if ex.rec != nil && ex.rec.node == n {
		if _, ok := bolt.(Repartitioner); !ok {
			ex.fail(fmt.Errorf("dataflow: recovery bolt %s[%d] (%T) does not implement Repartitioner", n.name, task, bolt))
			return
		}
		rs = ex.rec.newSession(task)
	}
	// rebirth replaces the bolt after a fault dropped its state.
	rebirth := func() bool {
		releaseState(bolt) // the replaced instance must not keep its gauge charges
		bolt = n.bolt(task, n.par)
		mem, hasMem = bolt.(MemReporter)
		rowBolt, _ = bolt.(RowBolt)
		frameBolt, _ = bolt.(FrameBolt)
		if adaptHere {
			rep, _ = bolt.(Repartitioner)
		}
		if _, ok := bolt.(Repartitioner); !ok {
			ex.fail(fmt.Errorf("dataflow: recovery bolt %s[%d] (%T) does not implement Repartitioner", n.name, task, bolt))
			return false
		}
		return true
	}

	var mig *migSession  // non-nil while a migration round is open
	var early []envelope // migration traffic that outran our barrier marker
	taskEpoch := 0       // reshape epoch this task's state conforms to

	expectEOS := 0
	for _, e := range n.inputs {
		expectEOS += e.from.par
	}
	inbox := ex.inboxes[n][task]
	processed := 0
	var fdec wire.BatchDecoder // frame decoding for non-RowBolt consumers
	var rcur wire.Cursor       // frame row cursor

	// postTuple is the shared per-tuple/per-row bookkeeping: adaptive load
	// reports and the amortized memory check + abort poll.
	postTuple := func() error {
		processed++
		if adaptHere && processed%ex.adapt.pol.ReportEvery == 0 {
			ex.adapt.report(task, taskEpoch, rep)
		}
		if hasMem && processed%256 == 0 {
			ex.checkMem(n, task, tm, mem)
			select {
			case <-ex.abort:
				return ex.abortErr()
			default:
			}
		}
		return nil
	}

	// deliver applies one data envelope tuple by tuple (or, for packed
	// frames into a RowBolt, row by row without decoding). A panic with an
	// open recovery session (and no conflicting round) is captured as the
	// poisoned envelope and reported via errPanicCaptured.
	// vecHere gates whole-frame delivery: vectorized execution stays off on
	// recovery-protected tasks (their replay bookkeeping is per row) and on
	// adaptive joiners (per-row load reports drive the controller).
	vecHere := ex.opts.VecExec && rs == nil && !adaptHere
	var deliver func(env envelope, count bool) error
	deliver = func(env envelope, count bool) error {
		if env.frame != nil {
			if count {
				tm.Received.Add(int64(env.count))
			}
			if frameBolt != nil && vecHere && mig == nil {
				// Vectorized path: the bolt takes the frame whole, footer and
				// all. ExecuteFrame owns the per-row fallback, so delivery is
				// unconditional once the bolt is frame-capable.
				in := FrameInput{Stream: env.stream, FromTask: env.from, Frame: env.frame, Count: env.count}
				if err := safeExecuteFrame(frameBolt, in, col); err != nil {
					if pf, ok := err.(*panicFault); ok {
						return fmt.Errorf("dataflow: bolt %s[%d] panicked: %v\n%s", n.name, task, pf.val, pf.stack)
					}
					return err
				}
				tm.VecRows.Add(int64(env.count))
				processed += env.count
				if hasMem {
					ex.checkMem(n, task, tm, mem)
					select {
					case <-ex.abort:
						return ex.abortErr()
					default:
					}
				}
				return nil
			}
			if rowBolt == nil {
				// Not frame-capable: strip any footer and hand the frame over
				// decoded (boxed edges never see footers).
				batch, _, err := fdec.Decode(wire.StripFooter(env.frame))
				if err != nil {
					return fmt.Errorf("dataflow: frame corruption into %s[%d]: %w", n.name, task, err)
				}
				dec := env
				dec.frame, dec.count, dec.pframe = nil, 0, nil
				dec.batch = batch
				return deliver(dec, false)
			}
			in := RowInput{Stream: env.stream, FromTask: env.from, Cur: &rcur}
			k := 0
			_, _, err := wire.EachRow(env.frame, &rcur, func(row []byte) error {
				in.Row = row
				if err := safeExecuteRow(rowBolt, in, col); err != nil {
					pf, panicked := err.(*panicFault)
					if !panicked {
						return err
					}
					if rs != nil && !rs.recovering && ex.adapt == nil && mig == nil {
						// The poisoned envelope is retained decoded: the
						// restore path re-imports the applied prefix and
						// reprocesses the rest through the tuple path.
						pb, _, derr := wire.DecodeBatch(wire.StripFooter(env.frame))
						if derr != nil {
							return fmt.Errorf("dataflow: frame corruption into %s[%d]: %w", n.name, task, derr)
						}
						rs.poisoned = &poisonedEnv{env: env, batch: pb, idx: k}
						return errPanicCaptured
					}
					return fmt.Errorf("dataflow: bolt %s[%d] panicked: %v\n%s", n.name, task, pf.val, pf.stack)
				}
				k++
				return postTuple()
			})
			if err != nil {
				return err
			}
			return nil
		}
		batch := env.batch
		in := Input{Stream: env.stream, FromTask: env.from}
		if count {
			tm.Received.Add(int64(len(batch)))
		}
		for i := 0; i < len(batch); i++ {
			in.Tuple = batch[i]
			if err := safeExecute(bolt, in, col); err != nil {
				pf, panicked := err.(*panicFault)
				if !panicked {
					return err
				}
				if rs != nil && !rs.recovering && ex.adapt == nil && mig == nil {
					rs.poisoned = &poisonedEnv{env: env, batch: batch, idx: i}
					return errPanicCaptured
				}
				return fmt.Errorf("dataflow: bolt %s[%d] panicked: %v\n%s", n.name, task, pf.val, pf.stack)
			}
			if err := postTuple(); err != nil {
				return err
			}
		}
		return nil
	}

	// finishRecovery closes a restore round: re-apply the poisoned envelope
	// across its emission boundary, reprocess the stashed backlog with full
	// emission, re-checkpoint, and ack the manager.
	finishRecovery := func() error {
		if p := rs.poisoned; p != nil {
			rel := ex.rec.pol.RelOf[p.env.stream]
			if p.idx > 0 {
				// The applied prefix already emitted its deltas before the
				// crash; re-import it silently.
				if err := bolt.(Repartitioner).ImportState(rel, p.batch[:p.idx]); err != nil {
					return err
				}
			}
			// The crashing tuple and the rest of the batch never emitted:
			// reprocess them fully (Received was counted at first delivery).
			// A poisoned frame was decoded at capture time, so the re-run
			// always goes through the tuple path.
			reEnv := p.env
			reEnv.batch = p.batch[p.idx:]
			reEnv.frame, reEnv.count = nil, 0
			if err := deliver(reEnv, false); err != nil {
				return err
			}
			rs.applied(&p.env)
			rs.poisoned = nil
		}
		for _, env := range rs.stash {
			if err := deliver(env, true); err != nil {
				return err
			}
			rs.applied(&env)
		}
		rs.stash = nil
		// A fresh checkpoint pins the restored state as the new replay
		// horizon before new input flows.
		if err := rs.checkpoint(bolt); err != nil {
			return err
		}
		rs.recovering = false
		select {
		case ex.rec.acks <- task:
		case <-ex.abort:
			return ex.abortErr()
		}
		return nil
	}

	for expectEOS > 0 || mig != nil || (rs != nil && rs.busy()) {
		var env envelope
		select {
		case env = <-inbox:
		case <-ex.abort:
			return
		}
		if env.eos {
			expectEOS--
			continue
		}
		if env.ctrl >= ctrlKill {
			switch env.ctrl {
			case ctrlKill:
				if rs == nil {
					ex.fail(fmt.Errorf("dataflow: bolt %s[%d] received a kill without a recovery session", n.name, task))
					return
				}
				rs.requested = false
				// A captured panic may have beaten the marker here: the
				// restore session it opened stands (clobbering it would lose
				// the stash and the poisoned envelope), and the ack tells the
				// manager to run this round with panic semantics instead.
				alreadyPanicked := rs.recovering
				if !alreadyPanicked {
					// The kill lands at a quiesced point (every delivered
					// envelope applied): the pending outputs are legitimate
					// results in flight — flush them, then lose the state.
					if err := col.flushAll(); err != nil {
						ex.fail(fmt.Errorf("dataflow: bolt %s[%d] kill flush: %w", n.name, task, err))
						return
					}
					if !rebirth() {
						return
					}
					rs.startRecovery(false)
				}
				select {
				case ex.rec.killAck <- alreadyPanicked:
				case <-ex.abort:
					return
				}
			case ctrlRecBegin:
				if rs == nil || !rs.recovering {
					ex.fail(fmt.Errorf("dataflow: bolt %s[%d] stray recovery begin", n.name, task))
					return
				}
				rs.began = true
				rs.routes = env.rec.routes
				rs.manifest = env.rec.manifest
			case ctrlRecBatch:
				if rs == nil || !rs.recovering || !rs.began {
					ex.fail(fmt.Errorf("dataflow: bolt %s[%d] stray recovery batch", n.name, task))
					return
				}
				if err := bolt.(Repartitioner).ImportState(env.rec.rel, env.rec.tuples); err != nil {
					ex.fail(fmt.Errorf("dataflow: bolt %s[%d] restore import: %w", n.name, task, err))
					return
				}
			case ctrlRecDone:
				if rs == nil || !rs.recovering || !rs.began {
					ex.fail(fmt.Errorf("dataflow: bolt %s[%d] stray recovery done", n.name, task))
					return
				}
				rs.dones++
				if rs.dones == ex.rec.pol.NumRels {
					if err := finishRecovery(); err != nil {
						ex.fail(fmt.Errorf("dataflow: bolt %s[%d] recovery: %w", n.name, task, err))
						return
					}
				}
			case ctrlNetFlush:
				if ex.net == nil {
					ex.fail(fmt.Errorf("dataflow: bolt %s[%d] received a flush token without a network plane", n.name, task))
					return
				}
				ex.net.tokenSeen(env.seq)
			case ctrlStateReq:
				if rs == nil {
					ex.fail(fmt.Errorf("dataflow: bolt %s[%d] stray state request", n.name, task))
					return
				}
				if rs.recovering {
					// A concurrently-panicked peer has been rebirthed and is
					// mid-restore: exporting its (empty) state would silently
					// restore the victim wrong. Concurrent double-fault
					// recovery is out of scope — fail loudly instead.
					ex.fail(fmt.Errorf("dataflow: bolt %s[%d] asked to serve rel %d while itself recovering (concurrent double fault)", n.name, task, env.rec.rel))
					return
				}
				if !rs.serveStateReq(bolt, tm, env.rec) {
					return
				}
			}
			continue
		}
		if env.ctrl != ctrlNone {
			if env.ctrl == ctrlReshape {
				var err error
				if mig, err = ex.adapt.beginMigration(task, rep, tm, env.cmd); err == nil {
					for _, e2 := range early {
						if err = ex.adapt.applyMig(mig, rep, e2); err != nil {
							break
						}
					}
					early = nil
				}
				if err != nil {
					ex.fail(fmt.Errorf("dataflow: bolt %s[%d] reshape: %w", n.name, task, err))
					return
				}
			} else if mig == nil {
				// A peer's exports for the round whose barrier marker we
				// have not drained to yet; replay them once it arrives.
				early = append(early, env)
			} else if err := ex.adapt.applyMig(mig, rep, env); err != nil {
				ex.fail(fmt.Errorf("dataflow: bolt %s[%d] migration: %w", n.name, task, err))
				return
			}
			if mig != nil && mig.complete(n.par) {
				taskEpoch = mig.epoch
				// A reshape moved state between tasks without consuming
				// input, so older checkpoints can no longer be reconciled
				// with replay cursors: re-checkpoint the new placement
				// before any post-reshape tuple arrives.
				if rs != nil {
					if err := rs.checkpoint(bolt); err != nil {
						ex.fail(fmt.Errorf("dataflow: bolt %s[%d] post-reshape checkpoint: %w", n.name, task, err))
						return
					}
				}
				// The ack carries this task's post-migration load refresh
				// on a blocking path, so the controller's first
				// post-reshape decision sees every task's slice of the new
				// placement rather than a partial picture that would
				// whipsaw it.
				ex.adapt.ackMigration(task, taskEpoch, rep)
				mig = nil
			}
			continue
		}
		if mig != nil {
			ex.fail(fmt.Errorf("dataflow: bolt %s[%d] received data mid-migration (barrier violated)", n.name, task))
			return
		}
		if rs != nil {
			if rs.recovering {
				if !rs.began {
					// Pre-gate traffic a panic left unapplied: reprocess it
					// after the restore completes.
					rs.stash = append(rs.stash, env)
					continue
				}
				// Replayed input: silently re-import what was applied before
				// the fault but after the checkpoint; older is in the
				// checkpoint, newer is stashed.
				rel, ok := ex.rec.pol.RelOf[env.stream]
				if !ok {
					ex.fail(fmt.Errorf("dataflow: bolt %s[%d] replay from unmapped stream %q", n.name, task, env.stream))
					return
				}
				var ckptCur int64
				if rs.manifest != nil {
					ckptCur = rs.manifest.CursorFor(env.stream, env.from)
				}
				if env.seq > ckptCur && env.seq <= rs.cursors[env.stream][env.from] {
					batch := env.batch
					if batch == nil {
						var err error
						if batch, _, err = fdec.Decode(wire.StripFooter(env.frame)); err != nil {
							ex.fail(fmt.Errorf("dataflow: bolt %s[%d] replay frame corrupt: %w", n.name, task, err))
							return
						}
					}
					if err := bolt.(Repartitioner).ImportState(rel, batch); err != nil {
						ex.fail(fmt.Errorf("dataflow: bolt %s[%d] replay import: %w", n.name, task, err))
						return
					}
				}
				continue
			}
			if !rs.dedup(&env) {
				continue // late duplicate of replayed input
			}
		}
		nIn := env.count
		if env.batch != nil {
			nIn = len(env.batch)
		}
		if err := deliver(env, true); err != nil {
			if err == errPanicCaptured {
				// Pending outputs hold only deltas of fully applied tuples
				// (operators emit a tuple's deltas after OnTuple returns):
				// flush them, drop the poisoned state, restore from the
				// checkpoint route.
				if ferr := col.flushAll(); ferr != nil {
					ex.fail(fmt.Errorf("dataflow: bolt %s[%d] panic flush: %w", n.name, task, ferr))
					return
				}
				if !rebirth() {
					return
				}
				rs.startRecovery(true)
				if !rs.requested {
					select {
					case ex.rec.faults <- faultNote{task: task, panicked: true}:
					case <-ex.abort:
						return
					}
				}
				// With a kill trigger outstanding (rs.requested), no note is
				// sent: the manager's in-flight kill round will reach this
				// task, learn of the panic from the kill ack, and service
				// this session with panic semantics — a second note would
				// open a stray round against an already-restored task.
				continue
			}
			ex.fail(fmt.Errorf("dataflow: bolt %s[%d]: %w", n.name, task, err))
			return
		}
		// The envelope's payload is consumed (frames were walked in place,
		// decoded tuples copied their strings): recycle pooled buffers.
		releaseEnv(&env)
		if rs != nil {
			rs.applied(&env)
			if rs.armed && tm.Received.Load() >= int64(ex.rec.pol.Fault.AfterTuples) {
				rs.armed = false
				rs.requested = true
				select {
				case ex.rec.faults <- faultNote{task: task}:
				case <-ex.abort:
					return
				}
			}
			rs.sinceCkpt += nIn
			if rs.sinceCkpt >= ex.rec.pol.CheckpointEvery {
				if err := rs.checkpoint(bolt); err != nil {
					ex.fail(fmt.Errorf("dataflow: bolt %s[%d] checkpoint: %w", n.name, task, err))
					return
				}
			}
		}
	}
	if rs != nil && ex.rec.scheduled {
		if rs.armed {
			// The plan never fired (this task received too few tuples):
			// resolve it so lingering peers release.
			select {
			case ex.rec.faults <- faultNote{task: task, void: true}:
			case <-ex.abort:
				return
			}
		}
		// Linger until the fault plan resolves: a kill landing at the very
		// end of the stream must still find every peer alive and able to
		// serve its partitions.
		for lingering := true; lingering; {
			select {
			case <-ex.rec.planDone:
				lingering = false
			case env := <-inbox:
				if env.ctrl == ctrlStateReq {
					if !rs.serveStateReq(bolt, tm, env.rec) {
						return
					}
				} else if env.ctrl == ctrlNetFlush && ex.net != nil {
					// A late cluster round is quiescing this (finished) task;
					// the token must still complete its round trip.
					ex.net.tokenSeen(env.seq)
				}
			case <-ex.abort:
				return
			}
		}
	}
	if hasMem {
		ex.checkMem(n, task, tm, mem)
	}
	if err := safeFinish(bolt, col); err != nil {
		if pf, ok := err.(*panicFault); ok {
			err = fmt.Errorf("panicked: %v\n%s", pf.val, pf.stack)
		}
		ex.fail(fmt.Errorf("dataflow: bolt %s[%d] finish: %w", n.name, task, err))
		return
	}
	col.eos()
}

func (ex *execution) checkMem(n *node, task int, tm *TaskMetrics, mem MemReporter) {
	sz := int64(mem.MemSize())
	if sz > tm.MaxMem.Load() {
		tm.MaxMem.Store(sz)
	}
	if ex.opts.MemObserver != nil {
		ex.opts.MemObserver(n.name, task, sz)
	}
	if ex.opts.SpillObserver != nil {
		if sr, ok := mem.(slab.SpillReporter); ok {
			ex.opts.SpillObserver(n.name, task, int64(sr.SpilledBytes()))
		}
	}
	if ex.opts.MemLimitPerTask > 0 && sz > int64(ex.opts.MemLimitPerTask) {
		ex.fail(fmt.Errorf("dataflow: bolt %s[%d] state %dB exceeds budget %dB: %w",
			n.name, task, sz, ex.opts.MemLimitPerTask, ErrMemoryOverflow))
	}
}
