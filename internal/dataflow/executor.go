package dataflow

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"squall/internal/core"
	"squall/internal/slab"
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
	// Adaptive, when set, runs one 2-way join component as a live adaptive
	// 1-Bucket operator: its input edges route through the live
	// Random-Hypercube the gate publishes, a controller reshapes it as the
	// observed size ratio drifts, and joiner state migrates between tasks
	// (see adapt.go).
	Adaptive *AdaptivePolicy
	// Recovery, when set, protects one component with the live
	// fault-tolerance subsystem: sequence-tagged inputs, incremental
	// checkpoints, and kill/panic recovery by peer refetch or checkpoint +
	// replay (see recover.go). With Adaptive also set, both policies must
	// name the same component: one gate and one control loop serve it.
	Recovery *RecoveryPolicy
	// Cancel, when non-nil, aborts the run with ErrCanceled once the channel
	// is closed. The long-lived serving engine uses it to detach a registered
	// query without fate-sharing the process; a cancelled run still drains its
	// tasks and returns partial metrics like any other abort.
	Cancel <-chan struct{}
	// MemObserver, when non-nil, receives every MemReporter state sample the
	// executor takes (the same cadence as MemLimitPerTask enforcement: every
	// 256 processed tuples per task plus once at end of stream): the resident
	// bytes, and the bytes a SpillReporter bolt holds on disk (0 for any
	// other bolt). The serving engine charges these samples to per-tenant
	// accounts. Called from task goroutines; must be cheap and
	// concurrency-safe across tasks.
	MemObserver func(component string, task int, resident, spilled int64)
	// Pressure, when set, is the tiered-state degradation ladder (PR 10).
	// The executor only reads it: spouts pause briefly per batch while the
	// ladder sits at Backpressure (spilling is not keeping residency under
	// the cap) and pause harder at Reject, giving the arenas' spill step time
	// to catch up instead of racing emission against eviction. The arenas
	// themselves feed the ladder through their pressure gauges.
	Pressure *slab.Pressure
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
// control message (a kill marker, or a state-transfer round's command and
// moves). Frames are the only data payload an edge carries.
type envelope struct {
	// frame is a wire batch frame (varint(count) + encoded rows) shipped
	// without decoding; count is its row count. The consuming bolt walks
	// it with a cursor.
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
	cmd  *movesCmd // ctrlMoves payload
	mv   *move     // ctrlMove payload
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
// in the flushed envelope so the consumer's return trip reuses it.
type rowBatch struct {
	box   *[]byte
	buf   []byte
	count int
}

// Collector routes a task's emitted rows to the downstream tasks chosen by
// each outgoing edge's grouping, accumulating per-(edge, target) packed
// frames that flush at Options.BatchSize and on EOS; every target sees its
// rows in emission order. One Collector belongs to one task; it is not safe
// for concurrent use.
type Collector struct {
	ex        *execution
	node      *node
	task      int
	rng       *rand.Rand
	metrics   *TaskMetrics
	batchSize int
	tbuf      []int
	// out[edge][target] accumulates encoded rows that flush as ready wire
	// frames — rows cross the edge without ever being decoded. group is each
	// edge's grouping, rowCur the per-emit cursor it routes through, and
	// hdrRoom the space reserved for the frame count varint.
	out     [][]rowBatch
	group   []Grouping
	rowCur  wire.Cursor
	hdrRoom int
	// liveRel[edge] is the relation an edge carries into the adaptive
	// joiner, -1 on other edges; nil when this node has no adaptive edge.
	// Such an edge routes and flushes only inside a gate session, through
	// the grouping of the shape the session publishes; routed is the shape
	// its pending rows were routed under.
	liveRel []int
	routed  *core.Hypercube
	// recTracked[edge] marks outgoing edges into the recovery-protected
	// component (nil when this node has none): their sends are sequence-
	// tagged, retained for replay, and pass through the gate.
	// recSeq[edge][target] is the last assigned sequence; recShared[edge]
	// records whether any currently-buffered row of the edge routed to
	// multiple targets (such rows must flush as one gate session, see
	// routeEdge); recPid is this producer task's id in the replay-buffer table.
	recTracked []bool
	recSeq     [][]int64
	recShared  []bool
	recPid     int
	// gateDepth counts this task's nested gate sessions (see gateEnter).
	gateDepth int
	// held is set on a recovery-protected task while it executes one
	// delivered frame: emissions are parked in heldRows (ending at
	// heldEnds), and settle ships or drops them once the frame's last row
	// returns. A panic captured mid-frame then never leaves the frame
	// half-emitted — the packed join emits per match, and a corrupt spilled
	// segment fails its fault-in mid-probe.
	held     bool
	heldRows []byte
	heldEnds []int
}

// settle ends a held frame whose execution returned err: on success its
// parked emissions go out in order, on failure (a panic; the frame re-runs
// after the restore) they are dropped.
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

// gateEnter opens one gate session for this task, or joins the session it
// already holds: sessions nest (a whole-edge flush wraps per-target
// flushes), and a nested enter on the counting gate after a round closed it
// would wait on this task's own exit forever. When the outermost enter
// finds a shape other than the one this task's adaptive rows were routed
// under, it re-routes them first. False means the run aborted; otherwise
// every gateEnter is paired with one gateExit.
func (c *Collector) gateEnter() bool {
	if c.gateDepth == 0 {
		hc, ok := c.ex.gate.enter()
		if !ok {
			return false
		}
		if c.liveRel != nil && hc != c.routed {
			c.gateDepth++
			err := c.reroute(hc)
			c.gateDepth--
			if err != nil {
				c.ex.gate.exit()
				c.ex.fail(fmt.Errorf("dataflow: %s[%d] re-route: %w", c.node.name, c.task, err))
				return false
			}
		}
	}
	c.gateDepth++
	return true
}

func (c *Collector) gateExit() {
	if c.gateDepth--; c.gateDepth == 0 {
		c.ex.gate.exit()
	}
}

// reroute installs shape hc's groupings on the adaptive edges and re-routes
// the rows still pending under the previous shape. They were never
// delivered, so they are not state anywhere and re-routing them is
// indistinguishable from fresh arrivals. Every target of one replication
// group holds identical pending rows (the group's buffers fill and flush
// together), so only each group's primary buffer — the one at coordinate 0
// on every dim the relation does not own — is walked; the other copies are
// dropped. Runs inside the session gateEnter opened.
func (c *Collector) reroute(hc *core.Hypercube) error {
	old := c.routed
	c.routed = hc
	var cur wire.Cursor
	for ei, rel := range c.liveRel {
		if rel < 0 {
			continue
		}
		c.group[ei] = hc.GroupingFor(rel)
		if old == nil {
			continue
		}
		var pending []byte
		for target := range c.out[ei] {
			rb := &c.out[ei][target]
			if rb.count == 0 {
				continue
			}
			if old.CopyOf(rel, target) == target {
				pending = append(pending, rb.buf[c.hdrRoom:]...)
			}
			rb.buf, rb.count = rb.buf[:c.hdrRoom], 0
		}
		if c.recShared != nil {
			c.recShared[ei] = false
		}
		for len(pending) > 0 {
			n, err := cur.Parse(pending)
			if err != nil {
				return fmt.Errorf("pending row: %w", err)
			}
			if err := c.routeEdge(ei, pending[:n], &cur); err != nil {
				return err
			}
			pending = pending[n:]
		}
	}
	return nil
}

// EmitRow ships one wire-encoded row to all subscribed downstream
// components without materializing a tuple: routing reads the encoded
// fields through a cursor, and the row's bytes are appended straight into
// per-(edge, target) frame buffers that flush as ready wire frames. A row
// crossing N edges costs N memcpys, zero decodes and zero re-encodes. The
// row is copied immediately, so the caller may reuse its buffer.
func (c *Collector) EmitRow(row []byte) error {
	if c.held {
		c.heldRows = append(c.heldRows, row...)
		c.heldEnds = append(c.heldEnds, len(c.heldRows))
		return nil
	}
	c.metrics.Emitted.Add(1)
	if err := c.rowCur.Reset(row); err != nil {
		return fmt.Errorf("dataflow: emit from %s[%d]: %w", c.node.name, c.task, err)
	}
	for ei := range c.node.outputs {
		if c.liveRel == nil || c.liveRel[ei] < 0 {
			if err := c.routeEdge(ei, row, &c.rowCur); err != nil {
				return err
			}
			continue
		}
		// An adaptive edge routes and buffers inside one gate session, so a
		// reshape never lands between choosing a row's cells and buffering
		// it. The session holds only this edge: a send on another edge may
		// block on a consumer that itself waits at the gate.
		if !c.gateEnter() {
			return c.ex.abortErr()
		}
		err := c.routeEdge(ei, row, &c.rowCur)
		c.gateExit()
		if err != nil {
			return err
		}
	}
	return nil
}

// routeEdge routes one row, viewed by cur, onto edge ei.
func (c *Collector) routeEdge(ei int, row []byte, cur *wire.Cursor) error {
	e := c.node.outputs[ei]
	c.tbuf = c.group[ei].RowTargets(cur, e.to.par, c.rng, c.tbuf[:0])
	full := false
	for _, target := range c.tbuf {
		if target < 0 || target >= e.to.par {
			return fmt.Errorf("dataflow: grouping on edge %s->%s chose task %d of %d", e.from.name, e.to.name, target, e.to.par)
		}
		if c.appendRow(&c.out[ei][target], row) {
			full = true
		}
	}
	if c.recTracked != nil && c.recTracked[ei] && len(c.tbuf) > 1 {
		c.recShared[ei] = true
	}
	if !full {
		return nil
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
		return c.flushEdge(ei)
	}
	for _, target := range c.tbuf {
		if c.out[ei][target].count >= c.batchSize {
			if err := c.flushRow(ei, target); err != nil {
				return err
			}
		}
	}
	return nil
}

// appendRow adds one encoded row to a pending frame, taking a buffer from
// the pool when the frame is empty, and reports whether the frame reached
// BatchSize.
func (c *Collector) appendRow(rb *rowBatch, row []byte) bool {
	if rb.buf == nil {
		p := getFrameBox()
		buf := *p
		if cap(buf) < c.hdrRoom {
			buf = make([]byte, c.hdrRoom, c.hdrRoom+512)
		}
		rb.box, rb.buf = p, buf[:c.hdrRoom]
	}
	rb.buf = append(rb.buf, row...)
	rb.count++
	return rb.count >= c.batchSize
}

// seal turns a pending buffer into a ready wire frame by stamping the count
// varint into the reserved header room.
func (c *Collector) seal(rb *rowBatch) []byte {
	var hdr [10]byte
	hl := binary.PutUvarint(hdr[:], uint64(rb.count))
	start := c.hdrRoom - hl
	copy(rb.buf[start:], hdr[:hl])
	return rb.buf[start:]
}

// flushRow ships the pending frame of one (edge, target) buffer: the buffer
// is handed to the consumer as-is — the frame was effectively "encoded" by
// the row appends themselves. On edges into a recovery-protected component
// the send happens inside the gate, carries the next (producer,
// target) sequence number, and the frame is retained in the replay buffer.
func (c *Collector) flushRow(ei, target int) error {
	rb := &c.out[ei][target]
	if rb.count == 0 {
		return nil
	}
	e := c.node.outputs[ei]
	tracked := c.recTracked != nil && c.recTracked[ei]
	if tracked {
		if !c.gateEnter() {
			return c.ex.abortErr()
		}
		defer c.gateExit()
	}
	frame := c.seal(rb)
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

// flushEdge drains every pending frame of one edge. An adaptive edge, or a
// recovery-tracked edge with a replicated row pending, drains inside a
// single gate session, so the gate never splits a replication group and an
// adaptive edge flushes only rows routed under the published shape. An edge
// with nothing pending returns at once, without a gate session: a task
// about to park flushes every edge, most of them empty.
func (c *Collector) flushEdge(ei int) error {
	if !slices.ContainsFunc(c.out[ei], func(rb rowBatch) bool { return rb.count > 0 }) {
		return nil
	}
	live := c.liveRel != nil && c.liveRel[ei] >= 0
	if live || (c.recTracked != nil && c.recTracked[ei] && c.recShared[ei]) {
		if !c.gateEnter() {
			return c.ex.abortErr()
		}
		defer c.gateExit()
	}
	for target := range c.out[ei] {
		if err := c.flushRow(ei, target); err != nil {
			return err
		}
	}
	if c.recShared != nil {
		c.recShared[ei] = false
	}
	return nil
}

// flushAll drains every pending frame, preserving per-target FIFO order.
func (c *Collector) flushAll() error {
	for ei := range c.node.outputs {
		if err := c.flushEdge(ei); err != nil {
			return err
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
	for ei := range c.out {
		for t := range c.out[ei] {
			rb := &c.out[ei][t]
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
		if e.to == c.ex.ctl {
			// EOS into the controlled component goes through the gate, so it
			// cannot interleave with a reshape barrier or a recovery round.
			if !c.gatedEOS(ei) {
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

// gatedEOS broadcasts a producer task's EOS on an edge into the controlled
// component from inside one gate session, and retires the producer from the
// gate's live count before the session ends: a round reads live right after
// its pause, and a retired producer counted late would let it open a
// barrier that joiner tasks, their EOS set already complete, never read.
func (c *Collector) gatedEOS(ei int) bool {
	if !c.gateEnter() {
		return false
	}
	defer c.gateExit()
	defer c.ex.gate.live.Add(-1) // runs before gateExit
	e := c.node.outputs[ei]
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
	// ctl is the controlled component — the adaptive joiner, the
	// recovery-protected bolt, or both at once — and gate the one producer
	// gate on every edge into it; both are nil when neither policy is set.
	// ctlQuit/ctlDone bracket the control loop (see control).
	ctl     *node
	gate    *gate
	ctlQuit chan struct{}
	ctlDone chan struct{}
	// acks carries each controlled task's end-of-round ack, buffered for
	// one per task so an ack never blocks; moveWG counts the sources still
	// shipping moves (moves.go).
	acks   chan loadReport
	moveWG sync.WaitGroup
}

// gate is the producer gate into the controlled component. Producers enter
// it around every route-and-send on an edge into that component and around
// their EOS there; a control round closes it with pause, which returns once
// no producer is inside — every frame routed before it is then enqueued —
// and reopens it with resume. It also publishes the controlled component's
// hypercube: the live shape adaptive edges route under, and the geometry
// recovery peers come from (nil when the run has neither).
type gate struct {
	abort    <-chan struct{}
	mu       sync.Mutex
	hc       *core.Hypercube
	paused   bool
	active   int           // producers inside the gate
	resumeCh chan struct{} // closed when the gate reopens
	idleCh   chan struct{} // closed when active hits 0 while paused
	// live counts the locally hosted producer tasks on edges into the
	// controlled component that have not sent EOS; decremented inside the
	// gate, so after a pause a round reads an exact value: if 0 (with every
	// remote worker's count), every controlled task may already have
	// exited and a barrier could never be acked.
	live atomic.Int64
}

// enter joins the gate, blocking while a round holds it closed. It returns
// the published shape; ok is false when the run aborted.
func (g *gate) enter() (hc *core.Hypercube, ok bool) {
	g.mu.Lock()
	for g.paused {
		ch := g.resumeCh
		g.mu.Unlock()
		select {
		case <-ch:
		case <-g.abort:
			return nil, false
		}
		g.mu.Lock()
	}
	g.active++
	hc = g.hc
	g.mu.Unlock()
	return hc, true
}

// exit leaves the gate, waking a pausing round once it drains.
func (g *gate) exit() {
	g.mu.Lock()
	g.active--
	if g.active == 0 && g.paused && g.idleCh != nil {
		close(g.idleCh)
		g.idleCh = nil
	}
	g.mu.Unlock()
}

// pause closes the gate and waits until no producer is inside it; false
// means the run aborted first.
func (g *gate) pause() bool {
	g.mu.Lock()
	g.paused = true
	g.resumeCh = make(chan struct{})
	if g.active == 0 {
		g.mu.Unlock()
		return true
	}
	idle := make(chan struct{})
	g.idleCh = idle
	g.mu.Unlock()
	select {
	case <-idle:
		return true
	case <-g.abort:
		return false
	}
}

// resume publishes next and reopens the gate. Recovery rounds pass the
// current shape back; producers re-route pending rows only when it changes.
func (g *gate) resume(next *core.Hypercube) {
	g.mu.Lock()
	g.hc = next
	g.paused = false
	ch := g.resumeCh
	g.mu.Unlock()
	close(ch)
}

// shape returns the published hypercube.
func (g *gate) shape() *core.Hypercube {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.hc
}

// initControl installs the control planes the options ask for. Both act on
// one controlled component, through one gate and one control loop.
func (ex *execution) initControl() error {
	ad, rc := ex.opts.Adaptive, ex.opts.Recovery
	if ad == nil && rc == nil {
		return nil
	}
	if ad != nil && rc != nil && ad.Component != rc.Component {
		return fmt.Errorf("dataflow: adaptive component %q and recovery component %q differ: a run controls one component", ad.Component, rc.Component)
	}
	ex.gate = &gate{abort: ex.abort, resumeCh: make(chan struct{})}
	ex.ctlQuit, ex.ctlDone = make(chan struct{}), make(chan struct{})
	if rc != nil {
		ex.gate.hc = rc.Shape // an adaptive run publishes its live shape instead
		if err := ex.initRecovery(rc); err != nil {
			return err
		}
	}
	if ad != nil {
		if err := ex.initAdaptive(ad); err != nil {
			return err
		}
	}
	ex.acks = make(chan loadReport, ex.ctl.par)
	// In a cluster run, live counts the producers hosted here; a round adds
	// the remote workers' counts from their pause acks.
	for _, e := range ex.ctl.inputs {
		if ex.net == nil || ex.net.owns(e.from) {
			ex.gate.live.Add(int64(e.from.par))
		}
	}
	return nil
}

// control is the execution's one control loop: it folds adaptive load
// reports and fault notes and runs each round to completion before taking
// the next message, so rounds are serial by construction — a task is never
// asked to migrate state and rebuild it at once. It runs on the worker
// hosting the controlled component, which keeps every control envelope
// process-local.
func (ex *execution) control() {
	defer close(ex.ctlDone)
	var reports chan loadReport
	var faults chan faultNote
	if ex.adapt != nil {
		reports = ex.adapt.reports
	}
	if ex.rec != nil {
		faults = ex.rec.faults
	}
	for ok := true; ok; {
		select {
		case rep := <-reports:
			ok = ex.adapt.observe(rep)
		case f := <-faults:
			ok = ex.rec.handleFault(f)
		case <-ex.abort:
			return
		case <-ex.ctlQuit:
			return
		}
	}
}

// round runs one control round — a reshape or a recovery. It closes the gate
// here and on every remote producer worker, whose pause acks report how many
// of their producers into the controlled component are still live. tasks,
// given that remote count, names the controlled tasks the round touches;
// nil means the stream is over, and the round reopens at once. Otherwise
// round flushes the remote producers' in-flight data to those tasks with
// quiesce tokens and calls act with the published shape. Invariant, from
// then until act returns: no producer is inside the gate anywhere in the
// cluster, and every data frame routed to those tasks before the pause is
// either in their inboxes, ahead of any control marker act enqueues, or,
// from a remote producer, already handled by the task (its flush token came
// back through the task's remote channel behind it). act
// returns the shape to reopen under (the same one unless it reshaped).
// round reports false when the run is aborting or over; the gate then stays
// closed, which no task still needs.
func (ex *execution) round(tasks func(remoteLive int64) []int, act func(cur *core.Hypercube) (*core.Hypercube, bool)) bool {
	if !ex.gate.pause() {
		return false
	}
	var remoteLive int64
	if ex.net != nil {
		var ok bool
		if remoteLive, ok = ex.net.pauseRemote(ex.ctl); !ok {
			return false
		}
	}
	next := ex.gate.shape()
	if ts := tasks(remoteLive); ts != nil {
		if ex.net != nil && !ex.net.quiesce(ex.ctl, ts) {
			return false
		}
		var ok bool
		if next, ok = act(next); !ok {
			return false
		}
	}
	if ex.net != nil && !ex.net.resumeRemote(ex.ctl, next) {
		return false
	}
	ex.gate.resume(next)
	return true
}

// sendCtrl enqueues a control envelope into one controlled task's inbox.
func (ex *execution) sendCtrl(task int, env envelope) bool {
	select {
	case ex.inboxes[ex.ctl][task] <- env:
		return true
	case <-ex.abort:
		return false
	case <-ex.ctlQuit:
		return false
	}
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

// newExecution resolves the option defaults and prepares one Run's inboxes,
// metrics and control planes, without starting anything.
func newExecution(t *Topology, opts Options) (*execution, error) {
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
		// Set before initControl: the adaptive plane sizes its live count to
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
	if err := ex.initControl(); err != nil {
		return nil, err
	}
	return ex, nil
}

// Run executes the topology to completion: spouts drain, EOS propagates
// through every bolt (triggering Finish), and per-task metrics are returned.
// On error (bolt failure, memory overflow) the run aborts and the partial
// metrics are still returned alongside the error, which is how the paper
// extrapolates runtimes for configurations that die of memory overflow.
func Run(t *Topology, opts Options) (*RunMetrics, error) {
	ex, err := newExecution(t, opts)
	if err != nil {
		return nil, err
	}
	opts = ex.opts
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
	// tasks, and the control loop only where the controlled component is
	// hosted.
	local := func(n *node) bool { return ex.net == nil || ex.net.owns(n) }
	start := time.Now()
	var wg sync.WaitGroup
	runCtl := ex.ctl != nil && local(ex.ctl)
	if runCtl {
		go ex.control()
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
	if runCtl {
		close(ex.ctlQuit)
		<-ex.ctlDone
	}
	ex.moveWG.Wait()
	ex.metrics.Elapsed = time.Since(start)
	return ex.metrics, ex.err
}

func (ex *execution) collector(n *node, task int) *Collector {
	out := make([][]rowBatch, len(n.outputs))
	group := make([]Grouping, len(n.outputs))
	for i, e := range n.outputs {
		out[i] = make([]rowBatch, e.to.par)
		group[i] = e.grouping
	}
	hdrRoom := 1
	for v := uint64(ex.opts.BatchSize); v >= 0x80; v >>= 7 {
		hdrRoom++
	}
	var liveRel []int
	if ex.adapt != nil {
		liveRel = ex.adapt.liveRels(n)
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
		group:      group,
		hdrRoom:    hdrRoom,
		liveRel:    liveRel,
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
	// A panic — in the spout, or in a grouping routing its rows — fails the
	// run with the stack attached, as a bolt's does, before eos and close.
	defer func() {
		if r := recover(); r != nil {
			ex.fail(fmt.Errorf("dataflow: spout %s[%d]: %w", n.name, task, &panicFault{val: r, stack: debug.Stack()}))
		}
	}()
	// The source hands the executor wire-encoded rows: one encode at the
	// source, then routing, transport and state inserts all work on the
	// bytes. The abort poll is amortized to once per batch; flushes inside
	// the emit observe aborts anyway, so a stuck downstream never wedges the
	// spout. A yield ships the partial frames before the spout may block.
	sp := n.spout(task, n.par)
	for i := 0; ; i++ {
		if i%col.batchSize == 0 {
			select {
			case <-ex.abort:
				return
			default:
			}
			ex.spoutThrottle()
		}
		row, ok := sp.NextRow()
		if !ok {
			return
		}
		var err error
		if row == nil {
			err = col.flushAll()
		} else {
			err = col.EmitRow(row)
		}
		if err != nil {
			ex.fail(fmt.Errorf("dataflow: spout %s[%d]: %w", n.name, task, err))
			return
		}
	}
}

func (ex *execution) checkMem(n *node, task int, tm *TaskMetrics, mem MemReporter) {
	sz := int64(mem.MemSize())
	if sz > tm.MaxMem.Load() {
		tm.MaxMem.Store(sz)
	}
	if ex.opts.MemObserver != nil {
		var spilled int64
		if sr, ok := mem.(slab.SpillReporter); ok {
			spilled = int64(sr.SpilledBytes())
		}
		ex.opts.MemObserver(n.name, task, sz, spilled)
	}
	if ex.opts.MemLimitPerTask > 0 && sz > int64(ex.opts.MemLimitPerTask) {
		ex.fail(fmt.Errorf("dataflow: bolt %s[%d] state %dB exceeds budget %dB: %w",
			n.name, task, sz, ex.opts.MemLimitPerTask, ErrMemoryOverflow))
	}
}
