// Multi-process execution: the network edge plane.
//
// A NetPlane extends one in-process execution into a slice of a cluster run.
// Placement is component-granular — every task of a component lives on the
// same worker — which keeps all control envelope traffic (adaptive barriers
// and migrations, recovery kills and restores) process-local: the control
// loop runs on the worker hosting the controlled component, peers exchange
// state through ordinary inboxes, and only *data* envelopes (frames, EOS)
// ever cross a socket. What a control round needs from remote workers is a
// small RPC set carried on the same connections: pause/resume of the one
// producer gate, quiesce tokens that flush in-flight data ahead of control
// markers, replay requests against remote producers' replay buffers, trim
// commits, and abort propagation.
//
// Flow control replaces channel blocking with per-(destination task) credit
// windows: a producer acquires one credit per envelope before writing, the
// receiving plane grants credits back as envelopes drain out of its staging
// queues into task inboxes. Readers never block on inboxes — each link has a
// single read loop that stages inbound envelopes and returns immediately, so
// credit grants and control RPCs can never deadlock behind a slow consumer.
package dataflow

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"

	"squall/internal/core"
	"squall/internal/recovery"
	"squall/internal/transport"
	"squall/internal/wire"
)

// ErrLink marks a run failure caused by cluster infrastructure — a lost or
// corrupted link, a peer-loss declaration, or an abort relayed from a worker
// that itself failed on infrastructure — rather than by the job. The cluster
// layer retries or recovers failures carrying this sentinel; anything else
// (an operator error, a bad plan) is permanent and escalates as-is.
var ErrLink = errors.New("cluster infrastructure failure")

// IsInfra reports whether err is a cluster infrastructure failure rather
// than a job error: ErrLink, a declared-dead peer, or a raw socket error —
// a closed or reset connection, a broken pipe, a refused dial, EOF
// mid-message. A worker's failure report, the abort it broadcasts to its
// peers and the coordinator's retry decision all classify through it, so a
// worker whose own write hit a closed connection is retried like one whose
// peer vanished.
func IsInfra(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, ErrLink) || errors.Is(err, transport.ErrPeerLost) {
		return true
	}
	var ne net.Error // includes net.ErrClosed
	if errors.As(err, &ne) {
		return true
	}
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, syscall.ECONNRESET) || errors.Is(err, syscall.ECONNREFUSED) ||
		errors.Is(err, syscall.EPIPE)
}

// Dataflow-plane message kinds (all below transport.KindUser; kind 1 is the
// transport handshake). Kinds 3 and 4 stay unassigned so that a peer
// speaking an older protocol, which shipped tuple batches (3) and lone
// tuples (4) under them, fails the run as an unknown kind instead of being
// misread.
const (
	mkFrame      byte = 2  // packed batch frame        A=node B=task C=from D=seq
	mkEOS        byte = 5  // end of stream             A=node B=task C=from
	mkCredit     byte = 6  // flow-control grant        A=node B=task C=count
	mkAbort      byte = 7  // run failed here           Payload=error text
	mkGatePause  byte = 8  // close the producer gate
	mkGatePaused byte = 9  // gate closed ack           C=local live count
	mkGateResume byte = 10 // reopen the producer gate  B=rows C=cols of the live shape
	mkSendToken  byte = 11 // flush your sends to A/B   A=node B=task C=token id
	mkToken      byte = 12 // flush token (data path)   A=node B=task C=token id
	mkReplayReq  byte = 13 // replay retained input     Payload=replayReq JSON
	mkTrim       byte = 14 // checkpoint trim commit    Payload=trimMsg JSON
)

// replayReq asks a worker to re-deliver the retained input of its hosted
// producers to a recovering task, filtered past the checkpoint cursors, then
// emit the flush token on the data path.
type replayReq struct {
	Node    string             // protected component
	Victim  int                // recovering task
	Token   int64              // flush token id
	Streams map[string][]int64 // producer component -> per-task checkpoint cursor
}

// trimMsg carries a checkpoint commit to remote producers so their replay
// buffers can drop everything the checkpoint already covers.
type trimMsg struct {
	Task    int
	Cursors map[string][]int64
}

// NetConfig describes one process's slice of a cluster run.
type NetConfig struct {
	Self    int            // this process's worker index
	Workers int            // total processes
	Place   map[string]int // component name -> hosting worker (missing = 0)
	// Links[w] is the connection to worker w (nil at Self). The plane owns
	// reading from every link from construction on; writes stay shared with
	// the session layer (transport.Conn serializes them).
	Links []*transport.Conn
	// OnPeerMsg receives session-layer messages (Kind >= transport.KindUser)
	// on the link's read goroutine. The payload is copied.
	OnPeerMsg func(from int, m transport.Msg)
}

// gateOp is one ordered pause/resume request against the local gate. A
// resume on an adaptive run carries the live shape's two dim sizes.
type gateOp struct {
	pause      bool
	rows, cols int
}

type stageKey struct {
	node int
	task int
}

// stagedEnv is one inbound envelope parked between the link read loop and the
// destination inbox. credited entries consumed a sender credit that the pump
// grants back once the envelope moves on.
type stagedEnv struct {
	env      envelope
	lk       *netLink
	flow     int64
	credited bool
}

// staging is the per-(node, task) queue the read loops append to and one pump
// goroutine drains into the task inbox. The queue is unbounded but its depth
// is capped by the credit windows: at most window entries per producing flow
// are un-granted at any moment.
type staging struct {
	node *node
	task int
	mu   sync.Mutex
	q    []stagedEnv
	wake chan struct{}
}

// netLink is the plane's per-connection state.
type netLink struct {
	worker  int
	conn    *transport.Conn
	credMu  sync.Mutex
	creds   map[int64]*transport.Credit // sender-side windows, keyed by flow
	gateOps chan gateOp
}

func flowKey(node, task int) int64 { return int64(node)<<32 | int64(task) }

// credit returns the sender-side window for one (destination node, task)
// flow on this link, creating it on first use.
func (lk *netLink) credit(flow int64, window int) *transport.Credit {
	lk.credMu.Lock()
	c := lk.creds[flow]
	if c == nil {
		c = transport.NewCredit(window)
		lk.creds[flow] = c
	}
	lk.credMu.Unlock()
	return c
}

// NetPlane is the network edge transport of one process in a cluster run.
// Create it with NewNetPlane once the links are established, pass it in
// Options.Net, and Shut it down after the session's completion exchange.
type NetPlane struct {
	cfg   NetConfig
	links []*netLink // indexed by worker, nil at Self

	mu sync.Mutex
	ex *execution
	// bound publishes ex to fail, which must not take mu: bind drains the
	// parked backlog while holding it, and a parked message may fail the run.
	bound    atomic.Pointer[execution]
	preErr   error
	pending  []pendMsg
	nodeIdx  map[string]int
	nodes    []*node
	stagings map[stageKey]*staging
	window   int // credit window, = Options.ChannelBuf
	quantum  int // batched grant threshold

	tokMu   sync.Mutex
	tokNext int64
	tokWait map[int64]chan struct{}

	gateAcks chan int64

	closed    chan struct{}
	closeOnce sync.Once
}

type pendMsg struct {
	lk *netLink
	m  transport.Msg
}

// NewNetPlane starts the read loops over cfg.Links. Envelope delivery begins
// when a Run binds the plane (messages arriving earlier are parked).
func NewNetPlane(cfg NetConfig) *NetPlane {
	p := &NetPlane{
		cfg:      cfg,
		links:    make([]*netLink, len(cfg.Links)),
		tokWait:  make(map[int64]chan struct{}),
		gateAcks: make(chan int64, cfg.Workers),
		closed:   make(chan struct{}),
	}
	for w, c := range cfg.Links {
		if c == nil {
			continue
		}
		lk := &netLink{worker: w, conn: c, creds: make(map[int64]*transport.Credit), gateOps: make(chan gateOp, 8)}
		p.links[w] = lk
		go p.readLoop(lk)
	}
	return p
}

// Shutdown marks the session complete: subsequent link EOFs are a clean
// teardown, not a worker failure. It does not close the connections — the
// session layer owns those.
func (p *NetPlane) Shutdown() {
	p.closeOnce.Do(func() { close(p.closed) })
}

func (p *NetPlane) workerOf(comp string) int {
	if w, ok := p.cfg.Place[comp]; ok {
		return w
	}
	return 0
}

func (p *NetPlane) owns(n *node) bool { return p.workerOf(n.name) == p.cfg.Self }

func (p *NetPlane) nodeAt(i int) *node {
	if i < 0 || i >= len(p.nodes) {
		return nil
	}
	return p.nodes[i]
}

// fail aborts the bound execution (or poisons the pending bind).
func (p *NetPlane) fail(err error) {
	if ex := p.bound.Load(); ex != nil {
		ex.fail(err)
		return
	}
	p.mu.Lock()
	ex := p.ex
	if ex == nil {
		if p.preErr == nil {
			p.preErr = err
		}
		p.mu.Unlock()
		return
	}
	p.mu.Unlock()
	ex.fail(err)
}

// broadcastAbort tells every peer the run failed here. Write errors are
// ignored: a dead link's worker learns of the failure from the EOF instead.
func (p *NetPlane) broadcastAbort(err error) {
	var infra int64
	if IsInfra(err) {
		infra = 1
	}
	m := transport.Msg{Kind: mkAbort, A: infra, Payload: []byte(err.Error())}
	for _, lk := range p.links {
		if lk != nil {
			_ = lk.conn.WriteMsg(&m)
		}
	}
}

// bind attaches an execution to the plane: builds the node index, spins up
// staging pumps for locally hosted tasks and the gate workers, then drains
// messages that arrived before the run started.
func (p *NetPlane) bind(ex *execution) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.ex != nil {
		return fmt.Errorf("dataflow: NetPlane already bound to a run")
	}
	if p.preErr != nil {
		return p.preErr
	}
	p.ex = ex
	p.bound.Store(ex)
	p.window = ex.opts.ChannelBuf
	p.quantum = p.window / 4
	if p.quantum < 1 {
		p.quantum = 1
	}
	p.nodes = ex.topo.nodes
	p.nodeIdx = make(map[string]int, len(p.nodes))
	for i, n := range p.nodes {
		p.nodeIdx[n.name] = i
	}
	p.stagings = make(map[stageKey]*staging)
	for i, n := range p.nodes {
		if !p.owns(n) {
			continue
		}
		for t := 0; t < n.par; t++ {
			s := &staging{node: n, task: t, wake: make(chan struct{}, 1)}
			p.stagings[stageKey{i, t}] = s
			go p.pump(s)
		}
	}
	for _, lk := range p.links {
		if lk == nil {
			continue
		}
		go p.gateWorker(lk)
	}
	// Drain parked messages under the lock: a read loop observing ex != nil
	// is thereby guaranteed the backlog has already been handled, preserving
	// per-link arrival order.
	for i := range p.pending {
		p.handle(p.pending[i].lk, &p.pending[i].m)
	}
	p.pending = nil
	return nil
}

func (p *NetPlane) readLoop(lk *netLink) {
	var m transport.Msg
	for {
		if err := lk.conn.ReadMsg(&m); err != nil {
			select {
			case <-p.closed:
			default:
				p.fail(fmt.Errorf("dataflow: link to worker %d lost: %w (%w)", lk.worker, err, ErrLink))
			}
			return
		}
		p.mu.Lock()
		if p.ex == nil {
			c := m
			c.Payload = append([]byte(nil), m.Payload...)
			p.pending = append(p.pending, pendMsg{lk, c})
			p.mu.Unlock()
			continue
		}
		p.mu.Unlock()
		p.handle(lk, &m)
	}
}

// handle dispatches one inbound message on the link's read goroutine. It must
// never block on a task inbox — data lands in staging queues, RPCs complete
// inline or hand off to dedicated goroutines.
func (p *NetPlane) handle(lk *netLink, m *transport.Msg) {
	if m.Kind >= transport.KindUser {
		if p.cfg.OnPeerMsg != nil {
			c := *m
			c.Payload = append([]byte(nil), m.Payload...)
			p.cfg.OnPeerMsg(lk.worker, c)
		}
		return
	}
	switch m.Kind {
	case mkCredit:
		lk.credit(flowKey(int(m.A), int(m.B)), p.window).Grant(int(m.C))
	case mkFrame, mkEOS:
		p.recvData(lk, m)
	case mkToken:
		// A flush token rides the data path: staged behind every data message
		// this link delivered to (A, B), seen by the task as ctrlNetFlush.
		n := p.nodeAt(int(m.A))
		if n == nil || !p.owns(n) {
			p.fail(fmt.Errorf("dataflow: worker %d sent a flush token for a component not hosted here", lk.worker))
			return
		}
		p.stage(lk, int(m.A), int(m.B), envelope{ctrl: ctrlNetFlush, seq: m.C}, 0, false)
	case mkSendToken:
		// The owner of (A, B) asks us to flush: reply with a token on the same
		// connection, ordered after every data message already written to it.
		// Producer gates are paused at this point, so no write races the token.
		if err := lk.conn.WriteMsg(&transport.Msg{Kind: mkToken, A: m.A, B: m.B, C: m.C}); err != nil {
			p.fail(fmt.Errorf("dataflow: flush token to worker %d: %w", lk.worker, err))
		}
	case mkGatePause:
		p.gateRequest(lk, gateOp{pause: true})
	case mkGateResume:
		p.gateRequest(lk, gateOp{rows: int(m.B), cols: int(m.C)})
	case mkGatePaused:
		p.gateAcks <- m.C // cap = Workers: never blocks the read loop
	case mkReplayReq:
		var req replayReq
		if err := json.Unmarshal(m.Payload, &req); err != nil {
			p.fail(fmt.Errorf("dataflow: worker %d sent a bad replay request: %w", lk.worker, err))
			return
		}
		go p.serveReplay(lk, req)
	case mkTrim:
		var tr trimMsg
		if err := json.Unmarshal(m.Payload, &tr); err != nil {
			p.fail(fmt.Errorf("dataflow: worker %d sent a bad trim commit: %w", lk.worker, err))
			return
		}
		if p.ex.rec != nil {
			p.ex.rec.commitTrims(tr.Task, tr.Cursors)
		}
	case mkAbort:
		err := fmt.Errorf("dataflow: run aborted by worker %d: %s", lk.worker, m.Payload)
		if m.A == 1 {
			// The worker failed on infrastructure, not on the job: keep the
			// classification so the coordinator's policy can act on it.
			err = fmt.Errorf("%w (%w)", err, ErrLink)
		}
		p.fail(err)
	default:
		p.fail(fmt.Errorf("dataflow: worker %d sent unknown message kind %d", lk.worker, m.Kind))
	}
}

func (p *NetPlane) gateRequest(lk *netLink, op gateOp) {
	select {
	case lk.gateOps <- op:
	case <-p.closed:
	}
}

// recvData admits one data message into the local staging queues. Frames get
// the full untrusted-bytes admission check; frames on recovery-tracked edges
// (seq > 0) are copied into unpooled buffers because the consumer's stash or
// dedup may retain them, everything else recycles pool boxes exactly like
// the in-process transport.
func (p *NetPlane) recvData(lk *netLink, m *transport.Msg) {
	ni, task := int(m.A), int(m.B)
	n := p.nodeAt(ni)
	if n == nil || task < 0 || task >= n.par || !p.owns(n) {
		p.fail(fmt.Errorf("dataflow: worker %d sent data for a task not hosted here (node %d task %d)", lk.worker, ni, task))
		return
	}
	env := envelope{stream: m.Stream, from: int(m.C), seq: m.D}
	switch m.Kind {
	case mkEOS:
		env.eos = true
	case mkFrame:
		cnt, err := wire.ValidateBatchFrame(m.Payload)
		if err != nil {
			p.fail(fmt.Errorf("dataflow: worker %d sent a malformed frame for %s[%d]: %w", lk.worker, n.name, task, err))
			return
		}
		env.count = cnt
		if env.seq > 0 {
			env.frame = append([]byte(nil), m.Payload...)
		} else {
			box := getFrameBox()
			*box = append((*box)[:0], m.Payload...)
			env.frame, env.pframe = *box, box
		}
	}
	// Every data message (EOS included) consumed one sender credit.
	p.stage(lk, ni, task, env, flowKey(ni, task), true)
}

// stage parks one envelope for the (node, task) pump.
func (p *NetPlane) stage(lk *netLink, ni, task int, env envelope, flow int64, credited bool) {
	s := p.stagings[stageKey{ni, task}]
	if s == nil {
		p.fail(fmt.Errorf("dataflow: no staging for node %d task %d", ni, task))
		return
	}
	s.mu.Lock()
	s.q = append(s.q, stagedEnv{env: env, lk: lk, flow: flow, credited: credited})
	s.mu.Unlock()
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// pump moves one staging queue into its task inbox, granting credits back in
// batches: a grant goes out once a flow accumulates quantum deliveries, and
// every owed grant is flushed whenever the queue runs dry, so a sender can
// never starve waiting on a withheld grant.
func (p *NetPlane) pump(s *staging) {
	type gk struct {
		lk   *netLink
		flow int64
	}
	owed := make(map[gk]int)
	flush := func() {
		for k, cnt := range owed {
			p.sendCredit(k.lk, k.flow, cnt)
		}
		clear(owed)
	}
	for {
		s.mu.Lock()
		if len(s.q) == 0 {
			s.mu.Unlock()
			flush()
			select {
			case <-s.wake:
				continue
			case <-p.closed:
				return
			case <-p.ex.abort:
				return
			}
		}
		e := s.q[0]
		s.q[0] = stagedEnv{}
		s.q = s.q[1:]
		s.mu.Unlock()
		if !p.ex.send(s.node, s.task, e.env) {
			return // aborted
		}
		if e.credited {
			k := gk{e.lk, e.flow}
			owed[k]++
			if owed[k] >= p.quantum {
				p.sendCredit(e.lk, e.flow, owed[k])
				delete(owed, k)
			}
		}
	}
}

func (p *NetPlane) sendCredit(lk *netLink, flow int64, n int) {
	m := transport.Msg{Kind: mkCredit, A: flow >> 32, B: flow & (1<<32 - 1), C: int64(n)}
	if err := lk.conn.WriteMsg(&m); err != nil {
		p.fail(fmt.Errorf("dataflow: credit grant to worker %d: %w", lk.worker, err))
	}
}

// sendRemote ships one data envelope to the worker hosting its destination.
// It blocks on the flow's credit window (the cross-process equivalent of a
// full inbox), writes the frame as-is, and recycles the envelope's pool box
// once the bytes are on the wire.
func (p *NetPlane) sendRemote(to *node, task int, env envelope) bool {
	if env.ctrl != ctrlNone || env.rec != nil || env.mig != nil || env.cmd != nil {
		p.fail(fmt.Errorf("dataflow: control envelope for %s[%d] would cross a process boundary (placement bug)", to.name, task))
		return false
	}
	ni := p.nodeIdx[to.name]
	lk := p.links[p.workerOf(to.name)]
	if lk == nil {
		p.fail(fmt.Errorf("dataflow: no link to worker %d hosting %s", p.workerOf(to.name), to.name))
		return false
	}
	if !lk.credit(flowKey(ni, task), p.window).Acquire(p.ex.abort) {
		return false
	}
	m := transport.Msg{Stream: env.stream, A: int64(ni), B: int64(task), C: int64(env.from), D: env.seq}
	m.Kind, m.Payload = mkFrame, env.frame
	if env.eos {
		m.Kind = mkEOS
	}
	if err := lk.conn.WriteMsg(&m); err != nil {
		p.fail(fmt.Errorf("dataflow: send to %s[%d] on worker %d: %w", to.name, task, lk.worker, err))
		return false
	}
	// The frame is on the wire; recycle the box the local consumer would
	// have returned.
	releaseEnv(&env)
	return true
}

// gateWorker applies one link's pause/resume requests against the local
// gate in arrival order, acking pauses with the gate's local live count (the
// controller sums these into its cluster-wide early-out check).
func (p *NetPlane) gateWorker(lk *netLink) {
	for {
		var op gateOp
		select {
		case op = <-lk.gateOps:
		case <-p.closed:
			return
		}
		g := p.ex.gate
		switch {
		case g == nil:
			p.fail(fmt.Errorf("dataflow: worker %d drove a gate this run does not have", lk.worker))
			return
		case op.pause:
			if !g.pause() {
				return
			}
			if err := lk.conn.WriteMsg(&transport.Msg{Kind: mkGatePaused, C: g.live.Load()}); err != nil {
				p.fail(fmt.Errorf("dataflow: gate ack to worker %d: %w", lk.worker, err))
				return
			}
		default:
			next := g.shape()
			if a := p.ex.adapt; a != nil {
				var err error
				if next, err = a.matrix(op.rows, op.cols); err != nil {
					p.fail(fmt.Errorf("dataflow: gate resume from worker %d: %w", lk.worker, err))
					return
				}
			}
			g.resume(next)
		}
	}
}

// remoteProducerWorkers lists the workers (other than self) hosting producers
// into prot, deduplicated and sorted for deterministic RPC order.
func (p *NetPlane) remoteProducerWorkers(prot *node) []int {
	seen := make(map[int]bool)
	for _, e := range prot.inputs {
		if w := p.workerOf(e.from.name); w != p.cfg.Self {
			seen[w] = true
		}
	}
	ws := make([]int, 0, len(seen))
	for w := range seen {
		ws = append(ws, w)
	}
	sort.Ints(ws)
	return ws
}

// pauseRemote closes the gate on every remote worker feeding prot and waits
// for the acks, returning the sum of the remote live producer counts. Rounds
// are serial on the control loop, so at most one pauseRemote is ever
// outstanding.
func (p *NetPlane) pauseRemote(prot *node) (int64, bool) {
	ws := p.remoteProducerWorkers(prot)
	for _, w := range ws {
		if err := p.links[w].conn.WriteMsg(&transport.Msg{Kind: mkGatePause}); err != nil {
			p.fail(fmt.Errorf("dataflow: gate pause to worker %d: %w", w, err))
			return 0, false
		}
	}
	var live int64
	for range ws {
		select {
		case v := <-p.gateAcks:
			live += v
		case <-p.ex.abort:
			return 0, false
		}
	}
	return live, true
}

// resumeRemote reopens the gate on every remote producer worker. On an
// adaptive run the live shape's dim sizes ride along, so remote producers
// re-route against a post-reshape placement.
func (p *NetPlane) resumeRemote(prot *node, hc *core.Hypercube) bool {
	var rows, cols int
	if p.ex.adapt != nil {
		rows, cols = hc.Matrix()
	}
	for _, w := range p.remoteProducerWorkers(prot) {
		msg := transport.Msg{Kind: mkGateResume, B: int64(rows), C: int64(cols)}
		if err := p.links[w].conn.WriteMsg(&msg); err != nil {
			p.fail(fmt.Errorf("dataflow: gate resume to worker %d: %w", w, err))
			return false
		}
	}
	return true
}

func (p *NetPlane) newToken() (int64, chan struct{}) {
	p.tokMu.Lock()
	p.tokNext++
	id := p.tokNext
	ch := make(chan struct{})
	p.tokWait[id] = ch
	p.tokMu.Unlock()
	return id, ch
}

// tokenSeen is called by a task draining a ctrlNetFlush envelope: the token's
// round-trip through the staging queue proves every data message the issuing
// link wrote before it has been delivered to (and processed by) the task.
func (p *NetPlane) tokenSeen(id int64) {
	p.tokMu.Lock()
	ch := p.tokWait[id]
	delete(p.tokWait, id)
	p.tokMu.Unlock()
	if ch != nil {
		close(ch)
	}
}

func (p *NetPlane) waitTokens(chs []chan struct{}) bool {
	for _, ch := range chs {
		select {
		case <-ch:
		case <-p.ex.abort:
			return false
		}
	}
	return true
}

// quiesce flushes every remote producer's in-flight data to the given tasks
// of prot: one token per (remote worker, task), each delivered through the
// data path and therefore ordered behind everything that worker had already
// sent. Every round calls this after closing the gates and before
// enqueueing any control marker — the cluster equivalent of the in-process
// invariant that a paused gate leaves nothing between a producer and the
// inbox.
func (p *NetPlane) quiesce(prot *node, tasks []int) bool {
	ni := p.nodeIdx[prot.name]
	var waits []chan struct{}
	for _, w := range p.remoteProducerWorkers(prot) {
		for _, t := range tasks {
			id, ch := p.newToken()
			if err := p.links[w].conn.WriteMsg(&transport.Msg{Kind: mkSendToken, A: int64(ni), B: int64(t), C: id}); err != nil {
				p.fail(fmt.Errorf("dataflow: quiesce token to worker %d: %w", w, err))
				return false
			}
			waits = append(waits, ch)
		}
	}
	return p.waitTokens(waits)
}

// allTasks returns [0, n.par).
func allTasks(n *node) []int {
	ts := make([]int, n.par)
	for i := range ts {
		ts[i] = i
	}
	return ts
}

// replayRemote asks every remote worker hosting checkpoint-routed producers
// to re-deliver its retained input to the recovering task, past the
// checkpoint cursors in manifest (nil when no checkpoint exists). It returns
// once every worker's flush token has come back through the victim's inbox,
// so the caller may enqueue ctrlRecDone knowing it cannot overtake replayed
// input.
func (p *NetPlane) replayRemote(prot *node, victim int, routes []int, relOfEdge []int, manifest *recovery.Manifest) bool {
	byWorker := make(map[int]*replayReq)
	for i, e := range prot.inputs {
		if routes[relOfEdge[i]] >= 0 {
			continue // peer-routed relation: no replay
		}
		w := p.workerOf(e.from.name)
		if w == p.cfg.Self {
			continue // the local replay loop already delivered these
		}
		r := byWorker[w]
		if r == nil {
			r = &replayReq{Node: prot.name, Victim: victim, Streams: make(map[string][]int64)}
			byWorker[w] = r
		}
		curs := make([]int64, e.from.par)
		if manifest != nil {
			for t := range curs {
				curs[t] = manifest.CursorFor(e.from.name, t)
			}
		}
		r.Streams[e.from.name] = curs
	}
	workers := make([]int, 0, len(byWorker))
	for w := range byWorker {
		workers = append(workers, w)
	}
	sort.Ints(workers)
	var waits []chan struct{}
	for _, w := range workers {
		r := byWorker[w]
		id, ch := p.newToken()
		r.Token = id
		body, err := json.Marshal(r)
		if err != nil {
			p.fail(fmt.Errorf("dataflow: encoding replay request: %w", err))
			return false
		}
		if err := p.links[w].conn.WriteMsg(&transport.Msg{Kind: mkReplayReq, Payload: body}); err != nil {
			p.fail(fmt.Errorf("dataflow: replay request to worker %d: %w", w, err))
			return false
		}
		waits = append(waits, ch)
	}
	return p.waitTokens(waits)
}

// serveReplay re-delivers this worker's retained input to a recovering remote
// task: for each hosted producer of the protected component, every replay
// buffer entry past the checkpoint cursor goes out as an ordinary seq-tagged
// data message (the victim dedups, so over-replay is harmless), then the
// flush token closes the stream. Runs on its own goroutine; replay data
// flows under the normal credit windows.
func (p *NetPlane) serveReplay(lk *netLink, req replayReq) {
	ex := p.ex
	if ex.rec == nil {
		p.fail(fmt.Errorf("dataflow: replay request without a recovery plane"))
		return
	}
	prot := ex.topo.byN[req.Node]
	if prot == nil {
		p.fail(fmt.Errorf("dataflow: replay request for unknown component %q", req.Node))
		return
	}
	ni := p.nodeIdx[req.Node]
	rm := &ex.metrics.Recovery
	for _, e := range prot.inputs {
		curs, ok := req.Streams[e.from.name]
		if !ok || !p.owns(e.from) {
			continue
		}
		base := ex.rec.pidBase[e.from]
		for t := 0; t < e.from.par; t++ {
			var ckptCur int64
			if t < len(curs) {
				ckptCur = curs[t]
			}
			for _, ent := range ex.rec.snapshotBuf(base+t, req.Victim) {
				if ent.seq <= ckptCur {
					continue
				}
				m := transport.Msg{Kind: mkFrame, Stream: e.from.name, A: int64(ni), B: int64(req.Victim), C: int64(t), D: ent.seq, Payload: ent.frame}
				if !lk.credit(flowKey(ni, req.Victim), p.window).Acquire(ex.abort) {
					return
				}
				if err := lk.conn.WriteMsg(&m); err != nil {
					p.fail(fmt.Errorf("dataflow: replaying to worker %d: %w", lk.worker, err))
					return
				}
				rm.ReplayedEnvelopes.Add(1)
				rm.ReplayedTuples.Add(int64(ent.count))
			}
		}
	}
	if err := lk.conn.WriteMsg(&transport.Msg{Kind: mkToken, A: int64(ni), B: int64(req.Victim), C: req.Token}); err != nil {
		p.fail(fmt.Errorf("dataflow: replay token to worker %d: %w", lk.worker, err))
	}
}

// trimBroadcast forwards a checkpoint commit to every remote producer worker
// so their replay buffers drop what the checkpoint covers.
func (p *NetPlane) trimBroadcast(prot *node, task int, cursors map[string][]int64) {
	ws := p.remoteProducerWorkers(prot)
	if len(ws) == 0 {
		return
	}
	body, err := json.Marshal(trimMsg{Task: task, Cursors: cursors})
	if err != nil {
		return
	}
	for _, w := range ws {
		// Best effort: a lost trim only delays buffer pruning; the next
		// commit (or the link failure handling) catches up.
		_ = p.links[w].conn.WriteMsg(&transport.Msg{Kind: mkTrim, Payload: body})
	}
}

// TaskCounters is one task's metrics flattened for the completion exchange.
type TaskCounters struct {
	Received, Emitted, Sent, Batches, BytesOut, MaxMem int64
}

// MetricsSnapshot is one worker's contribution to the run metrics, shipped
// to the coordinator in the session's completion message. Component counters
// are authoritative for the components the worker hosts; control-plane
// counters are additive across workers except the final-matrix shape, which
// only the adaptive component's host reports.
type MetricsSnapshot struct {
	Worker                                                        int
	Components                                                    map[string][]TaskCounters
	AdaptOwner                                                    bool
	Reshapes, MigratedTuples, MigratedBytes, FinalRows, FinalCols int64
	RecOwner                                                      bool
	Faults, Kills, Panics, PeerRels, CheckpointRels               int64
	RestoredTuples, PeerBytes, StoreReads, StoreBytes             int64
	ReplayedEnvelopes, ReplayedTuples                             int64
	Checkpoints, CheckpointBytes                                  int64
	RecoveryNS, LastRecoveryNS                                    int64
}

// LocalSnapshot captures this worker's slice of the run metrics after Run
// returns.
func (p *NetPlane) LocalSnapshot(m *RunMetrics) *MetricsSnapshot {
	s := &MetricsSnapshot{Worker: p.cfg.Self, Components: make(map[string][]TaskCounters)}
	for _, n := range p.nodes {
		if !p.owns(n) {
			continue
		}
		cm := m.Components[n.name]
		tcs := make([]TaskCounters, len(cm.Tasks))
		for i, t := range cm.Tasks {
			tcs[i] = TaskCounters{
				Received: t.Received.Load(), Emitted: t.Emitted.Load(), Sent: t.Sent.Load(),
				Batches: t.Batches.Load(), BytesOut: t.BytesOut.Load(), MaxMem: t.MaxMem.Load(),
			}
		}
		s.Components[n.name] = tcs
	}
	s.AdaptOwner = p.ex.adapt != nil && p.owns(p.ex.adapt.node)
	s.Reshapes = m.Adapt.Reshapes.Load()
	s.MigratedTuples = m.Adapt.MigratedTuples.Load()
	s.MigratedBytes = m.Adapt.MigratedBytes.Load()
	s.FinalRows = m.Adapt.FinalRows.Load()
	s.FinalCols = m.Adapt.FinalCols.Load()
	s.RecOwner = p.ex.rec != nil && p.owns(p.ex.rec.node)
	r := &m.Recovery
	s.Faults, s.Kills, s.Panics = r.Faults.Load(), r.Kills.Load(), r.Panics.Load()
	s.PeerRels, s.CheckpointRels = r.PeerRels.Load(), r.CheckpointRels.Load()
	s.RestoredTuples, s.PeerBytes = r.RestoredTuples.Load(), r.PeerBytes.Load()
	s.StoreReads, s.StoreBytes = r.StoreReads.Load(), r.StoreBytes.Load()
	s.ReplayedEnvelopes, s.ReplayedTuples = r.ReplayedEnvelopes.Load(), r.ReplayedTuples.Load()
	s.Checkpoints, s.CheckpointBytes = r.Checkpoints.Load(), r.CheckpointBytes.Load()
	s.RecoveryNS, s.LastRecoveryNS = r.RecoveryNS.Load(), r.LastRecoveryNS.Load()
	return s
}

// ApplySnapshot merges a remote worker's snapshot into the coordinator's run
// metrics: hosted-component counters overwrite (the coordinator's local
// values for those components are zero), control-plane counters add.
func (p *NetPlane) ApplySnapshot(m *RunMetrics, s *MetricsSnapshot) {
	for name, tcs := range s.Components {
		cm := m.Components[name]
		if cm == nil {
			continue
		}
		for i, tc := range tcs {
			if i >= len(cm.Tasks) {
				break
			}
			t := cm.Tasks[i]
			t.Received.Store(tc.Received)
			t.Emitted.Store(tc.Emitted)
			t.Sent.Store(tc.Sent)
			t.Batches.Store(tc.Batches)
			t.BytesOut.Store(tc.BytesOut)
			t.MaxMem.Store(tc.MaxMem)
		}
	}
	m.Adapt.Reshapes.Add(s.Reshapes)
	m.Adapt.MigratedTuples.Add(s.MigratedTuples)
	m.Adapt.MigratedBytes.Add(s.MigratedBytes)
	if s.AdaptOwner {
		m.Adapt.FinalRows.Store(s.FinalRows)
		m.Adapt.FinalCols.Store(s.FinalCols)
	}
	r := &m.Recovery
	r.Faults.Add(s.Faults)
	r.Kills.Add(s.Kills)
	r.Panics.Add(s.Panics)
	r.PeerRels.Add(s.PeerRels)
	r.CheckpointRels.Add(s.CheckpointRels)
	r.RestoredTuples.Add(s.RestoredTuples)
	r.PeerBytes.Add(s.PeerBytes)
	r.StoreReads.Add(s.StoreReads)
	r.StoreBytes.Add(s.StoreBytes)
	r.ReplayedEnvelopes.Add(s.ReplayedEnvelopes)
	r.ReplayedTuples.Add(s.ReplayedTuples)
	r.Checkpoints.Add(s.Checkpoints)
	r.CheckpointBytes.Add(s.CheckpointBytes)
	r.RecoveryNS.Add(s.RecoveryNS)
	if s.RecOwner {
		r.LastRecoveryNS.Store(s.LastRecoveryNS)
	}
}
