// Package serve is the multi-query serving machinery under the root-package
// Engine (PR 9): shared sources that encode each input row once and fan the
// packed frames out to every registered query (scan sharing over the PR 5/6
// frame path), per-tenant admission and memory budgets over the slab's
// real-bytes accounting, and a result-subscription hub with slow-consumer
// policies. Everything here is query-shape agnostic — the root package owns
// plan building and wires these pieces to it.
package serve

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"squall/internal/dataflow"
	"squall/internal/wire"
)

// ErrQueryStalled marks a query detached from a shared source because it
// fell a full credit window behind and stayed there past the stall timeout.
// The query is cut loose (its tap sees end-of-stream) so siblings keep
// streaming; it is an isolation verdict, not a source failure.
var ErrQueryStalled = errors.New("serve: query stalled behind shared source")

// ErrSourceClosed is returned by Attach once a shared source has finished
// or been closed: late queries cannot join a drained stream.
var ErrSourceClosed = errors.New("serve: shared source closed")

// SourceOptions tunes one shared source's fan-out.
type SourceOptions struct {
	// Window is the per-tap credit window in frames (the fan-out edge's
	// backpressure depth, mirroring the executor's ChannelBuf). Default 8.
	Window int
	// FrameRows caps how many source rows are packed into one shared frame.
	// Default 256. A source publishes a frame only when it fills or at
	// EOS, while every task downstream ships its partial frames as soon as
	// it would wait: a paced source's frame fill time is the latency floor
	// of the queries on it (256 rows at 40k rows/s is 6.4 ms).
	FrameRows int
	// StallTimeout is how long the source waits on a tap whose window is
	// exhausted before detaching that query with ErrQueryStalled. Default 2s.
	StallTimeout time.Duration
}

func (o *SourceOptions) defaults() {
	if o.Window <= 0 {
		o.Window = 8
	}
	if o.FrameRows <= 0 {
		o.FrameRows = 256
	}
	if o.StallTimeout <= 0 {
		o.StallTimeout = 2 * time.Second
	}
}

// SourceStats is one shared source's published counters.
type SourceStats struct {
	Name string `json:"name"`
	// Rows and Encodes count source tuples read and wire-encodes performed —
	// Encodes stays ~Rows no matter how many queries share the scan, the
	// number the serving bench gates on.
	Rows    int64 `json:"rows"`
	Encodes int64 `json:"encodes"`
	Frames  int64 `json:"frames"`
	// Stalls counts taps detached by ErrQueryStalled.
	Stalls int64 `json:"stalls"`
	Taps   int   `json:"taps"`
}

// SharedSource owns one physical spout and fans its packed frames out to
// every attached Tap. Rows are wire-encoded exactly once; each frame is a
// fresh allocation published read-only, so taps may retain and walk it
// concurrently without copies. One goroutine (Start) drives the spout;
// publication never blocks longer than StallTimeout on any single tap.
type SharedSource struct {
	name string
	mk   dataflow.SpoutFactory
	opt  SourceOptions

	mu      sync.Mutex
	taps    []*Tap
	started bool
	closed  bool // no further Attach; set at EOS or Close

	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}

	rows, frames, encodes, stalls atomic.Int64
}

// NewSharedSource wraps a spout factory as a shareable scan. The factory is
// instantiated once (task 0 of 1) when Start runs.
func NewSharedSource(name string, mk dataflow.SpoutFactory, opt SourceOptions) *SharedSource {
	opt.defaults()
	return &SharedSource{
		name: name,
		mk:   mk,
		opt:  opt,
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
}

// Name returns the source's registry name.
func (s *SharedSource) Name() string { return s.name }

// Attach adds one fan-out tap (one registered query). Taps attached before
// Start observe the full stream; the source must not have finished.
func (s *SharedSource) Attach() (*Tap, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("serve: source %s: %w", s.name, ErrSourceClosed)
	}
	t := &Tap{
		src:  s,
		ch:   make(chan []byte, s.opt.Window),
		gone: make(chan struct{}),
	}
	s.taps = append(s.taps, t)
	return t, nil
}

// Start launches the reader goroutine. Idempotent.
func (s *SharedSource) Start() {
	s.mu.Lock()
	if s.started || s.closed {
		s.mu.Unlock()
		return
	}
	s.started = true
	s.mu.Unlock()
	go s.run()
}

// Close stops the reader (if running) and delivers end-of-stream to every
// tap. Attached queries finish with whatever they received.
func (s *SharedSource) Close() {
	s.mu.Lock()
	started := s.started
	s.mu.Unlock()
	if started {
		s.stopOnce.Do(func() { close(s.stop) })
		<-s.done
		return
	}
	// Never started: there is no reader to deliver EOS, do it here.
	s.finish()
	close(s.done)
}

// Stats snapshots the source's counters.
func (s *SharedSource) Stats() SourceStats {
	s.mu.Lock()
	live := 0
	for _, t := range s.taps {
		if !t.isGone() {
			live++
		}
	}
	s.mu.Unlock()
	return SourceStats{
		Name:    s.name,
		Rows:    s.rows.Load(),
		Encodes: s.encodes.Load(),
		Frames:  s.frames.Load(),
		Stalls:  s.stalls.Load(),
		Taps:    live,
	}
}

// run drives the spout to exhaustion, packing rows into shared frames.
func (s *SharedSource) run() {
	defer close(s.done)
	defer s.finish()
	sp := s.mk(0, 1)
	var body []byte
	count := 0
	flush := func() {
		if count == 0 {
			return
		}
		// The frame is a fresh allocation: taps retain it read-only while
		// the body buffer is reused for the next frame.
		frame := binary.AppendUvarint(make([]byte, 0, binary.MaxVarintLen64+len(body)), uint64(count))
		frame = append(frame, body...)
		s.publish(frame)
		body = body[:0]
		count = 0
	}
	for {
		select {
		case <-s.stop:
			return
		default:
		}
		t, ok := sp.Next()
		if !ok {
			flush()
			return
		}
		body = wire.Encode(body, t)
		s.rows.Add(1)
		s.encodes.Add(1)
		count++
		if count >= s.opt.FrameRows {
			flush()
		}
	}
}

// publish delivers one frame to every live tap: a non-blocking fast pass,
// then a bounded wait on each tap whose window was full. A tap still full
// after StallTimeout is detached with ErrQueryStalled — the slow query is
// cut loose rather than allowed to wedge the scan for its siblings.
func (s *SharedSource) publish(frame []byte) {
	s.mu.Lock()
	taps := append([]*Tap(nil), s.taps...)
	s.mu.Unlock()
	s.frames.Add(1)
	var slow []*Tap
	for _, t := range taps {
		if t.isGone() {
			continue
		}
		select {
		case t.ch <- frame:
		default:
			slow = append(slow, t)
		}
	}
	for _, t := range slow {
		timer := time.NewTimer(s.opt.StallTimeout)
		select {
		case t.ch <- frame:
		case <-t.gone:
		case <-timer.C:
			s.stalls.Add(1)
			t.fail(fmt.Errorf("serve: source %s: %w", s.name, ErrQueryStalled))
		}
		timer.Stop()
	}
}

// finish marks the source drained and closes every tap channel (EOS). The
// reader goroutine is the only sender, so the close is safe; failed taps
// already stopped reading via their gone channel.
func (s *SharedSource) finish() {
	s.mu.Lock()
	s.closed = true
	taps := s.taps
	s.mu.Unlock()
	for _, t := range taps {
		close(t.ch)
	}
}

// Tap is one query's subscription to a shared source: a credit-windowed
// frame channel. The consumer side is the per-query tap spout (spout.go).
type Tap struct {
	src      *SharedSource
	ch       chan []byte
	gone     chan struct{}
	goneOnce sync.Once
	err      atomic.Pointer[error]
}

// NextFrame blocks for the next shared frame; ok=false on end-of-stream or
// after the tap was detached (check Err to distinguish).
func (t *Tap) NextFrame() ([]byte, bool) {
	select {
	case f, ok := <-t.ch:
		if !ok {
			return nil, false
		}
		return f, true
	case <-t.gone:
		return nil, false
	}
}

// Detach disconnects the tap (query finished or unregistered). The source
// skips detached taps, so an abandoned query never throttles the scan.
func (t *Tap) Detach() {
	t.goneOnce.Do(func() { close(t.gone) })
}

// Err reports why the tap was detached (ErrQueryStalled), nil for a clean
// end-of-stream or consumer-side detach.
func (t *Tap) Err() error {
	if p := t.err.Load(); p != nil {
		return *p
	}
	return nil
}

func (t *Tap) fail(err error) {
	t.err.CompareAndSwap(nil, &err)
	t.Detach()
}

func (t *Tap) isGone() bool {
	select {
	case <-t.gone:
		return true
	default:
		return false
	}
}
