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
// windows: a producer acquires one credit per envelope before writing, and
// the destination task grants credits back as it takes envelopes. Each hosted
// bolt task has one remote channel next to its inbox, deep enough for every
// feeding link's full window plus one flush token. A link's single read loop
// hands each data envelope and token to that channel without blocking — a
// full channel means the peer sent past its credits and fails the run — so
// credit grants and control RPCs never wait behind a slow consumer. The read
// loops start when a Run binds the plane; until then inbound messages wait
// in the connection.
package dataflow

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"

	"squall/internal/core"
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
	// reading from every link once a Run binds it; writes stay shared with
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

	// Set by bind, before the read loops start.
	ex      *execution
	nodeIdx map[string]int
	nodes   []*node
	// remotes[i][t] is the remote channel of task t of node i, a bolt hosted
	// here; fedBy[i] lists the other workers hosting its producers. Both are
	// nil for a node no remote worker feeds.
	remotes [][]chan envelope
	fedBy   [][]int
	window  int // credit window, = Options.ChannelBuf
	quantum int // batched grant threshold

	tokMu   sync.Mutex
	tokNext int64
	tokWait map[int64]chan struct{}

	gateAcks chan int64

	closed    chan struct{}
	closeOnce sync.Once
}

// NewNetPlane wraps cfg.Links. Nothing is read from them until a Run binds
// the plane.
func NewNetPlane(cfg NetConfig) *NetPlane {
	p := &NetPlane{
		cfg:      cfg,
		links:    make([]*netLink, len(cfg.Links)),
		tokWait:  make(map[int64]chan struct{}),
		gateAcks: make(chan int64, cfg.Workers),
		closed:   make(chan struct{}),
	}
	for w, c := range cfg.Links {
		if c != nil {
			p.links[w] = &netLink{worker: w, conn: c, creds: make(map[int64]*transport.Credit), gateOps: make(chan gateOp, 8)}
		}
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

// bind attaches an execution to the plane: it builds the node index and the
// remote channels of the locally hosted bolt tasks that remote workers
// feed, then starts each link's gate worker and read loop.
func (p *NetPlane) bind(ex *execution) error {
	if p.ex != nil {
		return fmt.Errorf("dataflow: NetPlane already bound to a run")
	}
	p.ex = ex
	p.window = ex.opts.ChannelBuf
	p.quantum = max(p.window/4, 1)
	p.nodes = ex.topo.nodes
	p.nodeIdx = make(map[string]int, len(p.nodes))
	p.remotes = make([][]chan envelope, len(p.nodes))
	p.fedBy = make([][]int, len(p.nodes))
	for i, n := range p.nodes {
		p.nodeIdx[n.name] = i
		if !p.owns(n) {
			continue
		}
		ws := p.remoteProducerWorkers(n)
		if len(ws) == 0 {
			continue
		}
		// Each feeding link holds at most its window of un-granted data
		// envelopes and one flush token: rounds are serial, so a link never
		// has two tokens outstanding.
		p.fedBy[i] = ws
		p.remotes[i] = make([]chan envelope, n.par)
		for t := range p.remotes[i] {
			p.remotes[i][t] = make(chan envelope, len(ws)*(p.window+1))
		}
	}
	for _, lk := range p.links {
		if lk != nil {
			go p.gateWorker(lk)
			go p.readLoop(lk)
		}
	}
	return nil
}

func (p *NetPlane) readLoop(lk *netLink) {
	var m transport.Msg
	for {
		if err := lk.conn.ReadMsg(&m); err != nil {
			select {
			case <-p.closed:
			default:
				p.ex.fail(fmt.Errorf("dataflow: link to worker %d lost: %w (%w)", lk.worker, err, ErrLink))
			}
			return
		}
		p.handle(lk, &m)
	}
}

// handle dispatches one inbound message on the link's read goroutine. It
// never blocks on a task: data and flush tokens go to remote channels
// without blocking, RPCs complete inline or hand off to dedicated goroutines.
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
		// A flush token rides the data path: queued behind every data message
		// this link delivered to (A, B), seen by the task as ctrlNetFlush.
		if n, task, ch := p.dest(lk, m); ch != nil {
			p.deliver(lk, n, task, ch, envelope{ctrl: ctrlNetFlush, seq: m.C})
		}
	case mkSendToken:
		// The owner of (A, B) asks us to flush: reply with a token on the same
		// connection, ordered after every data message already written to it.
		// Producer gates are paused at this point, so no write races the token.
		if err := lk.conn.WriteMsg(&transport.Msg{Kind: mkToken, A: m.A, B: m.B, C: m.C}); err != nil {
			p.ex.fail(fmt.Errorf("dataflow: flush token to worker %d: %w", lk.worker, err))
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
			p.ex.fail(fmt.Errorf("dataflow: worker %d sent a bad replay request: %w", lk.worker, err))
			return
		}
		go p.serveReplay(lk, req)
	case mkTrim:
		var tr trimMsg
		if err := json.Unmarshal(m.Payload, &tr); err != nil {
			p.ex.fail(fmt.Errorf("dataflow: worker %d sent a bad trim commit: %w", lk.worker, err))
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
		p.ex.fail(err)
	default:
		p.ex.fail(fmt.Errorf("dataflow: worker %d sent unknown message kind %d", lk.worker, m.Kind))
	}
}

func (p *NetPlane) gateRequest(lk *netLink, op gateOp) {
	select {
	case lk.gateOps <- op:
	case <-p.closed:
	}
}

// dest resolves the destination (A, B) of an inbound data message or flush
// token to its task's remote channel. The task must be a bolt task hosted
// here that the sending worker feeds; otherwise the run fails and ch is nil.
func (p *NetPlane) dest(lk *netLink, m *transport.Msg) (n *node, task int, ch chan envelope) {
	ni, task := int(m.A), int(m.B)
	if ni < 0 || ni >= len(p.nodes) || !slices.Contains(p.fedBy[ni], lk.worker) || task < 0 || task >= p.nodes[ni].par {
		p.ex.fail(fmt.Errorf("dataflow: worker %d sent kind %d for a task it does not feed here (node %d task %d)", lk.worker, m.Kind, ni, task))
		return nil, 0, nil
	}
	return p.nodes[ni], task, p.remotes[ni][task]
}

// recvData admits one data message into its task's remote channel. The
// stream must name an input of the task hosted on the sending worker and C
// one of that producer's tasks: the recovery cursors are indexed by both,
// and an EOS counts against the task's expected set. Frames get the full
// untrusted-bytes admission check; frames on recovery-tracked edges (seq >
// 0) are copied into unpooled buffers because the consumer's stash or dedup
// may retain them, everything else recycles pool boxes exactly like the
// in-process transport.
func (p *NetPlane) recvData(lk *netLink, m *transport.Msg) {
	n, task, ch := p.dest(lk, m)
	if ch == nil {
		return
	}
	var from *node
	for _, e := range n.inputs {
		if e.from.name == m.Stream && p.workerOf(e.from.name) == lk.worker {
			from = e.from
			break
		}
	}
	if from == nil || m.C < 0 || m.C >= int64(from.par) {
		p.ex.fail(fmt.Errorf("dataflow: worker %d sent data for %s[%d] from %q task %d, not a producer task it hosts", lk.worker, n.name, task, m.Stream, m.C))
		return
	}
	env := envelope{stream: from.name, from: int(m.C), seq: m.D}
	switch m.Kind {
	case mkEOS:
		env.eos = true
	case mkFrame:
		cnt, err := wire.ValidateBatchFrame(m.Payload)
		if err != nil {
			p.ex.fail(fmt.Errorf("dataflow: worker %d sent a malformed frame for %s[%d]: %w", lk.worker, n.name, task, err))
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
	p.deliver(lk, n, task, ch, env)
}

// deliver hands one inbound envelope to its task's remote channel without
// blocking.
func (p *NetPlane) deliver(lk *netLink, n *node, task int, ch chan envelope, env envelope) {
	select {
	case ch <- env:
	default:
		p.ex.fail(fmt.Errorf("dataflow: worker %d overran the credit window of %s[%d]", lk.worker, n.name, task))
	}
}

// took settles the credit of one envelope task t took from its remote
// channel. A data or EOS envelope owes its producer's link one credit; a
// link's owed credits go back once they reach quantum, and all of them
// whenever the channel runs dry, so a sender never starves on a withheld
// grant.
func (p *NetPlane) took(t *boltTask, env *envelope) {
	if env.ctrl == ctrlNone {
		w := p.workerOf(env.stream)
		if t.owed[w]++; t.owed[w] >= p.quantum {
			p.grant(t, w)
		}
	}
	if len(t.remote) == 0 {
		for w, n := range t.owed {
			if n > 0 {
				p.grant(t, w)
			}
		}
	}
}

// grant sends the credits task t owes worker w's link.
func (p *NetPlane) grant(t *boltTask, w int) {
	m := transport.Msg{Kind: mkCredit, A: int64(p.nodeIdx[t.n.name]), B: int64(t.task), C: int64(t.owed[w])}
	t.owed[w] = 0
	if err := p.links[w].conn.WriteMsg(&m); err != nil {
		p.ex.fail(fmt.Errorf("dataflow: credit grant to worker %d: %w", w, err))
	}
}

// sendRemote ships one data envelope to the worker hosting its destination.
// It blocks on the flow's credit window (the cross-process equivalent of a
// full inbox), writes the frame as-is, and recycles the envelope's pool box
// once the bytes are on the wire.
func (p *NetPlane) sendRemote(to *node, task int, env envelope) bool {
	if env.ctrl != ctrlNone || env.cmd != nil || env.mv != nil {
		p.ex.fail(fmt.Errorf("dataflow: control envelope for %s[%d] would cross a process boundary (placement bug)", to.name, task))
		return false
	}
	ni := p.nodeIdx[to.name]
	lk := p.links[p.workerOf(to.name)]
	if lk == nil {
		p.ex.fail(fmt.Errorf("dataflow: no link to worker %d hosting %s", p.workerOf(to.name), to.name))
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
		p.ex.fail(fmt.Errorf("dataflow: send to %s[%d] on worker %d: %w", to.name, task, lk.worker, err))
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
			p.ex.fail(fmt.Errorf("dataflow: worker %d drove a gate this run does not have", lk.worker))
			return
		case op.pause:
			if !g.pause() {
				return
			}
			if err := lk.conn.WriteMsg(&transport.Msg{Kind: mkGatePaused, C: g.live.Load()}); err != nil {
				p.ex.fail(fmt.Errorf("dataflow: gate ack to worker %d: %w", lk.worker, err))
				return
			}
		default:
			next := g.shape()
			if a := p.ex.adapt; a != nil {
				var err error
				if next, err = a.matrix(op.rows, op.cols); err != nil {
					p.ex.fail(fmt.Errorf("dataflow: gate resume from worker %d: %w", lk.worker, err))
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
			p.ex.fail(fmt.Errorf("dataflow: gate pause to worker %d: %w", w, err))
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
			p.ex.fail(fmt.Errorf("dataflow: gate resume to worker %d: %w", w, err))
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

// tokenSeen is called by a task handling a ctrlNetFlush envelope: the token
// follows the issuing link's data through the task's remote channel, so every
// data message that link wrote before it has been processed by the task.
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
				p.ex.fail(fmt.Errorf("dataflow: quiesce token to worker %d: %w", w, err))
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

// replayRemote asks every remote worker hosting producers that streams
// names to re-deliver its retained input to the recovering task, past the
// per-producer-task cursors streams gives. It returns once every worker's
// flush token has come back through the victim's inbox, so the caller may
// enqueue ctrlMoveDone knowing it cannot overtake replayed input.
func (p *NetPlane) replayRemote(prot *node, victim int, streams map[string][]int64) bool {
	byWorker := make(map[int]*replayReq)
	for _, e := range prot.inputs {
		curs, ok := streams[e.from.name]
		w := p.workerOf(e.from.name)
		if !ok || w == p.cfg.Self {
			continue // not replayed, or replayed by the local loop
		}
		r := byWorker[w]
		if r == nil {
			r = &replayReq{Node: prot.name, Victim: victim, Streams: make(map[string][]int64)}
			byWorker[w] = r
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
			p.ex.fail(fmt.Errorf("dataflow: encoding replay request: %w", err))
			return false
		}
		if err := p.links[w].conn.WriteMsg(&transport.Msg{Kind: mkReplayReq, Payload: body}); err != nil {
			p.ex.fail(fmt.Errorf("dataflow: replay request to worker %d: %w", w, err))
			return false
		}
		waits = append(waits, ch)
	}
	return p.waitTokens(waits)
}

// serveReplay answers a recovering remote task's replay request: the
// recovery plane's replay loop re-delivers this worker's retained input
// through ordinary sends, which reach the requesting worker on the same
// link under the normal credit windows, then the flush token closes the
// stream behind it. Runs on its own goroutine.
func (p *NetPlane) serveReplay(lk *netLink, req replayReq) {
	rec := p.ex.rec
	if rec == nil || rec.node.name != req.Node {
		p.ex.fail(fmt.Errorf("dataflow: replay request for %q, which this run does not protect", req.Node))
		return
	}
	if !rec.replay(req.Victim, req.Streams) {
		return
	}
	ni := p.nodeIdx[req.Node]
	if err := lk.conn.WriteMsg(&transport.Msg{Kind: mkToken, A: int64(ni), B: int64(req.Victim), C: req.Token}); err != nil {
		p.ex.fail(fmt.Errorf("dataflow: replay token to worker %d: %w", lk.worker, err))
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

// MetricsSnapshot is one worker's contribution to the run metrics, shipped
// to the coordinator in the session's completion message. Every counter
// list is in the order its struct's counters method gives. Component
// counters are authoritative for the components the worker hosts;
// control-plane counters add across workers, except the owned ones (the
// final-matrix shape, the last recovery's duration), which only the
// controlled component's host reports.
type MetricsSnapshot struct {
	Worker int
	// Components holds, per hosted component, each task's TaskMetrics.
	Components           map[string][][]int64
	AdaptOwner, RecOwner bool
	// Adapt and Recovery hold AdaptMetrics and RecoveryMetrics: the summed
	// counters, then the owned ones.
	Adapt, Recovery []int64
}

// LocalSnapshot captures this worker's slice of the run metrics after Run
// returns.
func (p *NetPlane) LocalSnapshot(m *RunMetrics) *MetricsSnapshot {
	s := &MetricsSnapshot{Worker: p.cfg.Self, Components: make(map[string][][]int64)}
	for _, n := range p.nodes {
		if !p.owns(n) {
			continue
		}
		tasks := m.Components[n.name].Tasks
		vs := make([][]int64, len(tasks))
		for i, t := range tasks {
			vs[i] = loadCounters(t.counters())
		}
		s.Components[n.name] = vs
	}
	s.AdaptOwner = p.ex.adapt != nil && p.owns(p.ex.adapt.node)
	s.RecOwner = p.ex.rec != nil && p.owns(p.ex.rec.node)
	summed, owned := m.Adapt.counters()
	s.Adapt = loadCounters(append(summed, owned...))
	summed, owned = m.Recovery.counters()
	s.Recovery = loadCounters(append(summed, owned...))
	return s
}

// ApplySnapshot merges a remote worker's snapshot into the coordinator's run
// metrics: hosted-component counters overwrite (the coordinator's local
// values for those components are zero), control-plane counters add, and
// owned ones are stored from their owner.
func (p *NetPlane) ApplySnapshot(m *RunMetrics, s *MetricsSnapshot) {
	for name, tasks := range s.Components {
		cm := m.Components[name]
		if cm == nil {
			continue
		}
		for i, vs := range tasks {
			if i >= len(cm.Tasks) {
				break
			}
			for j, c := range cm.Tasks[i].counters() {
				if j < len(vs) {
					c.Store(vs[j])
				}
			}
		}
	}
	summed, owned := m.Adapt.counters()
	mergeCounters(summed, owned, s.Adapt, s.AdaptOwner)
	summed, owned = m.Recovery.counters()
	mergeCounters(summed, owned, s.Recovery, s.RecOwner)
}

func loadCounters(cs []*atomic.Int64) []int64 {
	vs := make([]int64, len(cs))
	for i, c := range cs {
		vs[i] = c.Load()
	}
	return vs
}

// mergeCounters adds the summed prefix of vs into summed and, when the
// snapshot comes from the owner, stores the rest into owned.
func mergeCounters(summed, owned []*atomic.Int64, vs []int64, owner bool) {
	for i, v := range vs {
		switch j := i - len(summed); {
		case j < 0:
			summed[i].Add(v)
		case owner && j < len(owned):
			owned[j].Store(v)
		}
	}
}
