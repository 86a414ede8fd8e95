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

// envelope is one channel message: a packed frame of wire-encoded rows
// sharing provenance (same producer task, same stream), an EOS marker, or a
// control message (adaptive barrier / migration traffic, or recovery kill /
// restore traffic). Frames are the only data payload an edge carries.
type envelope struct {
	// frame is a wire batch frame (varint(count) + encoded rows) shipped
	// without decoding; count is its row count. RowBolt consumers walk it
	// with a cursor, everyone else receives its rows decoded.
	frame []byte
	count int
	// pframe, when non-nil, is the pool box the consumer refills with the
	// consumed frame and returns after delivery — the whole recycle is
	// allocation-free. Never set on recovery-tracked edges, whose frames are
	// retained for replay/stash.
	pframe *[]byte
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

// framePool recycles frame buffers between consumer and producer instead of
// churning them through the GC. Frames on recovery-tracked edges are never
// pooled (the replay buffer or the consumer's stash retains them).
var framePool = sync.Pool{New: func() any { b := []byte(nil); return &b }}

// releaseEnv refills a delivered envelope's pool box with the consumed frame
// and returns it.
func releaseEnv(env *envelope) {
	if env.pframe != nil {
		*env.pframe = env.frame[:0]
		putFrameBox(env.pframe)
		env.pframe, env.frame = nil, nil
	}
}

// rowBatch is one (edge, target) packed accumulation buffer: encoded rows
// appended back to back after hdrRoom reserved bytes, where seal stamps the
// frame's count varint. box is the pool box the buffer came from; it travels
// in the flushed envelope so the consumer's return trip reuses it. Under
// VecExec, foot accumulates the column-offset footer as rows land, so the
// flush appends it without re-scanning the frame.
type rowBatch struct {
	box   *[]byte
	buf   []byte
	count int
	foot  wire.FooterBuilder
}

// Collector routes a task's emitted rows to the downstream tasks chosen by
// each outgoing edge's grouping, accumulating per-(edge, target) packed
// frames that flush at Options.BatchSize and on EOS. Emit and EmitRow feed
// the same buffers, so a task may mix them freely on one edge and every
// target still sees its rows in emission order. One Collector belongs to one
// task; it is not safe for concurrent use.
type Collector struct {
	ex        *execution
	node      *node
	task      int
	rng       *rand.Rand
	metrics   *TaskMetrics
	batchSize int
	tbuf      []int
	// out[edge][target] accumulates encoded rows that flush as ready wire
	// frames — rows cross the edge without ever being decoded. rowGroup
	// caches each edge's RowGrouping (nil = the grouping needs a
	// materialized tuple); rowCur/routeT are the per-emit cursor and the
	// fallback-materialization scratch; enc is Emit's encode scratch;
	// hdrRoom is the space reserved for the frame count varint.
	out      [][]rowBatch
	rowGroup []RowGrouping
	rowCur   wire.Cursor
	routeT   types.Tuple
	enc      []byte
	hdrRoom  int
	// vec mirrors Options.VecExec: emit feeds each pending frame's footer
	// builder and flushRow appends the footer before shipping.
	vec bool
	// adaptSide[edge] is the adaptive side (0 = R, 1 = S) of each outgoing
	// edge, -1 for normal edges; nil when this node has no adaptive edges.
	adaptSide []int
	// adaptOut[edge][coord] is the pending adaptive frame for one matrix
	// coordinate (row for the R side, column for S): rows are buffered once
	// per coordinate and the flushed frame is copied to every cell of that
	// row/column. adaptEpoch is the routing epoch the pending rows were
	// assigned under; adaptReroute/adaptEnds are reroute scratch.
	adaptOut     [][]rowBatch
	adaptEpoch   int
	adaptReroute []byte
	adaptEnds    []int
	// recTracked[edge] marks outgoing edges into the recovery-protected
	// component (nil when this node has none): their sends are sequence-
	// tagged, retained for replay, and pass through the recovery pause gate.
	// recSeq[edge][target] is the last assigned sequence; recShared[edge]
	// records whether any currently-buffered row of the edge routed to
	// multiple targets (such rows must flush as one gate session, see
	// emit); recPid is this producer task's id in the replay-buffer table;
	// inRecGate tracks gate re-entrancy (the gate is counting, so a nested
	// enter while paused would self-deadlock).
	recTracked []bool
	recSeq     [][]int64
	recShared  []bool
	recPid     int
	inRecGate  bool
	// held is set on a recovery-protected task while it executes one row:
	// emissions are parked in heldRows (ending at heldEnds), and settle
	// ships or drops them once the row returns. A panic captured mid-row
	// then never leaves the row half-emitted — the packed join emits per
	// match, and a corrupt spilled segment fails its fault-in mid-probe.
	held     bool
	heldRows []byte
	heldEnds []int
}

// settle ends a held row whose execution returned err: on success its parked
// emissions go out in order, on failure (a panic, re-run after the restore)
// they are dropped.
func (c *Collector) settle(err error) error {
	c.held = false
	if err == nil {
		start := 0
		for _, end := range c.heldEnds {
			if err = c.EmitRow(c.heldRows[start:end]); err != nil {
				break
			}
			start = end
		}
	}
	c.heldRows, c.heldEnds = c.heldRows[:0], c.heldEnds[:0]
	return err
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

// Emit ships t to all subscribed downstream components. The tuple is encoded
// once, here, and travels as a packed row like every EmitRow row; the caller
// may reuse it afterwards.
func (c *Collector) Emit(t types.Tuple) error {
	c.enc = wire.Encode(c.enc[:0], t)
	return c.emit(c.enc, t)
}

// EmitRow ships one wire-encoded row to all subscribed downstream
// components without materializing a tuple: routing reads the encoded
// fields through a cursor (RowGrouping), and the row's bytes are appended
// straight into per-(edge, target) frame buffers that flush as ready wire
// frames. A row crossing N edges costs N memcpys, zero decodes and zero
// re-encodes. The row is copied immediately, so the caller may reuse its
// buffer.
func (c *Collector) EmitRow(row []byte) error { return c.emit(row, nil) }

// emit routes one encoded row. t, when non-nil, is the row's tuple, already
// in hand: groupings route it with Targets instead of reading the cursor.
func (c *Collector) emit(row []byte, t types.Tuple) error {
	if c.held {
		c.heldRows = append(c.heldRows, row...)
		c.heldEnds = append(c.heldEnds, len(c.heldRows))
		return nil
	}
	c.metrics.Emitted.Add(1)
	if err := c.rowCur.Reset(row); err != nil {
		return fmt.Errorf("dataflow: emit from %s[%d]: %w", c.node.name, c.task, err)
	}
	for ei, e := range c.node.outputs {
		if c.adaptSide != nil && c.adaptSide[ei] >= 0 {
			if err := c.emitAdaptiveGated(ei, c.adaptSide[ei], row); err != nil {
				return err
			}
			continue
		}
		switch rg := c.rowGroup[ei]; {
		case t != nil:
			c.tbuf = e.grouping.Targets(t, e.to.par, c.rng, c.tbuf[:0])
		case rg != nil:
			c.tbuf = rg.RowTargets(&c.rowCur, e.to.par, c.rng, c.tbuf[:0])
		default:
			// The grouping has no packed path: materialize once into
			// reusable scratch (groupings never retain the tuple).
			c.routeT = c.rowCur.Tuple(c.routeT)
			t = c.routeT
			c.tbuf = e.grouping.Targets(t, e.to.par, c.rng, c.tbuf[:0])
		}
		full := false
		for _, target := range c.tbuf {
			if target < 0 || target >= e.to.par {
				return fmt.Errorf("dataflow: grouping on edge %s->%s chose task %d of %d", e.from.name, e.to.name, target, e.to.par)
			}
			if c.appendRow(&c.out[ei][target], row, c.vec) {
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
			// A replicated row is pending somewhere on this edge: flush every
			// target together inside one gate session, so the row is never
			// delivered to one copy's task while still buffered for another
			// when a recovery round quiesces the edge — a peer snapshot would
			// disagree with the failed task's applied history. Edges carrying
			// only unicast rows keep the ordinary per-target flush (full batch
			// amortization): with no replicas, nothing can be split.
			// Replicating edges deliberately accept sub-BatchSize frames for
			// the uneven targets here: flushing only the targets sharing
			// pending replicas would need per-row target-set bookkeeping on
			// the hot path, and the conservative whole-edge flush is already
			// priced into the recovered-run overhead
			// BenchmarkSection5_Recovery reports.
			if err := c.flushEdgeTracked(ei); err != nil {
				return err
			}
			continue
		}
		for _, target := range c.tbuf {
			if c.out[ei][target].count >= c.batchSize {
				if err := c.flushRow(ei, target); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// appendRow adds the row rowCur is positioned on to one pending frame,
// taking a buffer from the pool when the frame is empty, and reports
// whether the frame reached BatchSize. footer feeds the frame's
// column-offset footer builder.
func (c *Collector) appendRow(rb *rowBatch, row []byte, footer bool) bool {
	if rb.buf == nil {
		p := getFrameBox()
		buf := *p
		if cap(buf) < c.hdrRoom {
			buf = make([]byte, c.hdrRoom, c.hdrRoom+512)
		}
		rb.box, rb.buf = p, buf[:c.hdrRoom]
		if footer {
			rb.foot.Reset()
		}
	}
	if footer {
		rb.foot.AddRow(len(rb.buf)-c.hdrRoom, &c.rowCur)
	}
	rb.buf = append(rb.buf, row...)
	rb.count++
	return rb.count >= c.batchSize
}

// seal turns a pending buffer into a ready wire frame: the footer (when
// footer is set) is appended and the count varint stamped into the reserved
// header room. The footer's offsets are relative to the rows region, so
// appending it before the varint lands is safe whatever the varint's width.
func (c *Collector) seal(rb *rowBatch, footer bool) []byte {
	if footer {
		rb.buf = rb.foot.Append(rb.buf)
	}
	var hdr [10]byte
	hl := binary.PutUvarint(hdr[:], uint64(rb.count))
	start := c.hdrRoom - hl
	copy(rb.buf[start:], hdr[:hl])
	return rb.buf[start:]
}

// flushRow ships the pending frame of one (edge, target) buffer: the buffer
// is handed to the consumer as-is — the frame was effectively "encoded" by
// the row appends themselves. On edges into a recovery-protected component
// the send happens inside the recovery gate, carries the next (producer,
// target) sequence number, and the frame is retained in the replay buffer.
func (c *Collector) flushRow(ei, target int) error {
	rb := &c.out[ei][target]
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
	frame := c.seal(rb, c.vec)
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

// flushEdgeTracked drains every pending frame of one recovery-tracked edge
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
		if err := c.flushRow(ei, target); err != nil {
			return err
		}
	}
	c.recShared[ei] = false
	return nil
}

// emitAdaptiveGated routes one adaptive-edge row, holding the recovery gate
// (when installed) outside the adaptive gate — the lock order the control
// planes' round serialization (roundMu) relies on.
func (c *Collector) emitAdaptiveGated(ei, side int, row []byte) error {
	if c.recTracked != nil && c.recTracked[ei] {
		entered, ok := c.recEnter()
		if !ok {
			return c.ex.abortErr()
		}
		if entered {
			defer c.recExit()
		}
	}
	return c.emitAdaptive(ei, side, row)
}

// flushAll drains every pending frame, preserving per-target FIFO order.
// Tracked edges with a replicated row pending drain inside one gate session
// per edge (see emit).
func (c *Collector) flushAll() error {
	for ei := range c.node.outputs {
		if c.recTracked != nil && c.recTracked[ei] && c.recShared[ei] {
			if err := c.flushEdgeTracked(ei); err != nil {
				return err
			}
			continue
		}
		for target := range c.out[ei] {
			if err := c.flushRow(ei, target); err != nil {
				return err
			}
		}
	}
	return nil
}

// close returns the pool boxes the collector still holds once the task is
// done emitting: any pending buffer an abort left unflushed. Without it an
// aborted task retired one box per unflushed slot — never unsafe, but noise
// that would mask real leaks in the pool ledger. Must run after the last
// flush/eos; boxes in envelopes already sent are owned downstream and are
// not touched.
func (c *Collector) close() {
	for _, bufs := range [][][]rowBatch{c.out, c.adaptOut} {
		for ei := range bufs {
			for t := range bufs[ei] {
				rb := &bufs[ei][t]
				if rb.box != nil {
					*rb.box = nil
					putFrameBox(rb.box)
					rb.box, rb.buf, rb.count = nil, nil, 0
				}
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
	out := make([][]rowBatch, len(n.outputs))
	rowGroup := make([]RowGrouping, len(n.outputs))
	for i, e := range n.outputs {
		out[i] = make([]rowBatch, e.to.par)
		rowGroup[i], _ = e.grouping.(RowGrouping)
	}
	hdrRoom := 1
	for v := uint64(ex.opts.BatchSize); v >= 0x80; v >>= 7 {
		hdrRoom++
	}
	var adaptSide []int
	var adaptOut [][]rowBatch
	if ex.adapt != nil {
		if adaptSide = ex.adapt.sidesFor(n); adaptSide != nil {
			adaptOut = make([][]rowBatch, len(n.outputs))
			for ei, side := range adaptSide {
				if side >= 0 {
					// A coordinate never exceeds the joiner's task count.
					adaptOut[ei] = make([]rowBatch, ex.adapt.node.par)
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
	// work on the bytes. Tuple spouts are encoded once, by Emit.
	if rsp, ok := sp.(RowSpout); ok {
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

// panicFault is a panic captured inside a bolt callback, carried as an error so
// the executor can either convert it into a recovery round or fail the run
// with the stack attached.
type panicFault struct {
	val   any
	stack []byte
}

func (p *panicFault) Error() string { return fmt.Sprintf("bolt panic: %v", p.val) }

// errPanicCaptured signals that a panic was absorbed into a recovery round.
var errPanicCaptured = errors.New("dataflow: bolt panic captured")

// safeExecute runs TupleBolt.Execute with panic capture.
func safeExecute(b TupleBolt, in Input, col *Collector) (err error) {
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
	var (
		mem       MemReporter
		hasMem    bool
		rowBolt   RowBolt
		tupleBolt TupleBolt
		frameBolt FrameBolt
	)
	// faces resolves the delivery face of the current bolt instance: rows
	// in place for a RowBolt, decoded tuples for anything else.
	faces := func() bool {
		mem, hasMem = bolt.(MemReporter)
		rowBolt, _ = bolt.(RowBolt)
		tupleBolt, _ = bolt.(TupleBolt)
		frameBolt, _ = bolt.(FrameBolt)
		if rowBolt == nil && tupleBolt == nil {
			ex.fail(fmt.Errorf("dataflow: bolt %s[%d] (%T) implements neither ExecuteRow nor Execute", n.name, task, bolt))
			return false
		}
		return true
	}
	if !faces() {
		return
	}
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
		if !faces() {
			return false
		}
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
	var fdec wire.BatchDecoder // frame decoding for TupleBolt consumers
	var tbatch []types.Tuple   // decoded-row headers, reused across frames
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

	// settleRow finishes one delivered row whose callback returned err: on
	// a protected task the row's emissions were held (Collector.held) and
	// now ship or drop, so a panic with an open recovery session (and no
	// conflicting round) drops the poisoned row's partial output, is
	// captured with the row's index (the main loop adds the envelope), and
	// is reported via errPanicCaptured.
	settleRow := func(k int, err error) error {
		if col.held {
			err = col.settle(err)
		}
		if err != nil {
			pf, panicked := err.(*panicFault)
			if !panicked {
				return err
			}
			if rs != nil && !rs.recovering && ex.adapt == nil && mig == nil {
				rs.poisoned = &poisonedEnv{idx: k}
				return errPanicCaptured
			}
			return fmt.Errorf("dataflow: bolt %s[%d] panicked: %v\n%s", n.name, task, pf.val, pf.stack)
		}
		return postTuple()
	}

	// deliver applies one data frame from row index from on: whole to a
	// FrameBolt, row by row in place to a RowBolt, decoded at the boundary
	// to a TupleBolt. vecHere gates whole-frame delivery: vectorized
	// execution stays off on recovery-protected tasks (their replay
	// bookkeeping is per row) and on adaptive joiners (per-row load reports
	// drive the controller).
	vecHere := ex.opts.VecExec && rs == nil && !adaptHere
	deliver := func(env envelope, count bool, from int) error {
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
		if rowBolt != nil {
			in := RowInput{Stream: env.stream, FromTask: env.from, Cur: &rcur}
			k := 0
			_, _, err := wire.EachRow(env.frame, &rcur, func(row []byte) error {
				if k++; k <= from {
					return nil
				}
				in.Row = row
				col.held = rs != nil
				return settleRow(k-1, safeExecuteRow(rowBolt, in, col))
			})
			return err
		}
		// The decoded tuples own fresh value arenas; only the header slice
		// is reused, so a bolt may keep the tuples it is handed.
		var err error
		if tbatch, _, err = fdec.DecodeReuse(wire.StripFooter(env.frame), tbatch[:0]); err != nil {
			return fmt.Errorf("dataflow: frame corruption into %s[%d]: %w", n.name, task, err)
		}
		in := Input{Stream: env.stream, FromTask: env.from}
		for k := from; k < len(tbatch); k++ {
			in.Tuple = tbatch[k]
			col.held = rs != nil
			if err := settleRow(k, safeExecute(tupleBolt, in, col)); err != nil {
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
			if p.idx > 0 {
				// The applied prefix already emitted its deltas before the
				// crash; re-import it silently.
				batch, _, err := fdec.Decode(wire.StripFooter(p.env.frame))
				if err != nil {
					return fmt.Errorf("dataflow: frame corruption into %s[%d]: %w", n.name, task, err)
				}
				if err := bolt.(Repartitioner).ImportState(ex.rec.pol.RelOf[p.env.stream], batch[:p.idx]); err != nil {
					return err
				}
			}
			// The crashing row and the rest of the frame never emitted:
			// reprocess them fully (Received was counted at first delivery).
			if err := deliver(p.env, false, p.idx); err != nil {
				return err
			}
			rs.applied(&p.env)
			rs.poisoned = nil
		}
		for _, env := range rs.stash {
			if err := deliver(env, true, 0); err != nil {
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
					batch, _, err := fdec.Decode(wire.StripFooter(env.frame))
					if err != nil {
						ex.fail(fmt.Errorf("dataflow: bolt %s[%d] replay frame corrupt: %w", n.name, task, err))
						return
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
		if err := deliver(env, true, 0); err != nil {
			if err == errPanicCaptured {
				rs.poisoned.env = env
				// Pending outputs hold only deltas of fully applied tuples
				// (the poisoned tuple's held emissions were dropped): flush
				// them, drop the poisoned state, restore from the checkpoint
				// route.
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
		// The frame is consumed (walked in place, or decoded into fresh
		// arenas): recycle its pooled buffer.
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
			rs.sinceCkpt += env.count
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
