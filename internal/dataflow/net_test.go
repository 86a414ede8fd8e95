// Cluster execution tests (PR 7 tentpole): several NetPlanes wired over real
// loopback TCP inside one test process, each driving its own dataflow.Run
// over the identical topology with a placement that splits components across
// "workers". This exercises every network-plane path — packed-frame data,
// credit backpressure, EOS, gate pause/resume RPCs, quiesce tokens, remote
// checkpoint replay, trim broadcast and abort propagation — without the
// process-management scaffolding (cmd/squalld owns that; enginetest covers
// the true multi-process dimension).

package dataflow

import (
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"squall/internal/recovery"
	"squall/internal/transport"
	"squall/internal/types"
	"squall/internal/wire"
)

// dialMesh opens a full loopback-TCP mesh between n in-process workers.
// mesh[i][j] is worker i's connection to worker j (nil on the diagonal).
func dialMesh(t *testing.T, n int) [][]*transport.Conn {
	t.Helper()
	mesh := make([][]*transport.Conn, n)
	for i := range mesh {
		mesh[i] = make([]*transport.Conn, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatalf("listen: %v", err)
			}
			acc := make(chan net.Conn, 1)
			go func() {
				c, err := ln.Accept()
				if err != nil {
					close(acc)
					return
				}
				acc <- c
			}()
			dialed, err := net.DialTimeout("tcp", ln.Addr().String(), 5*time.Second)
			if err != nil {
				t.Fatalf("dial: %v", err)
			}
			accepted, ok := <-acc
			if !ok {
				t.Fatal("accept failed")
			}
			ln.Close()
			mesh[i][j] = transport.NewConn(dialed)
			mesh[j][i] = transport.NewConn(accepted)
		}
	}
	return mesh
}

type workerResult struct {
	m   *RunMetrics
	err error
}

// runNetCluster executes the topology produced by build on every worker of an
// in-process cluster. Each worker gets its own NetPlane over the mesh and its
// own copy of the topology (so spout/bolt state is never shared); gathers[w]
// is worker w's sink collector — only the sink owner's fills. The planes are
// shut down and the mesh closed before returning.
func runNetCluster(t *testing.T, workers int, place map[string]int, opts Options,
	build func() (*Topology, *Gather)) ([]workerResult, []*Gather, []*NetPlane) {
	t.Helper()
	mesh := dialMesh(t, workers)
	planes := make([]*NetPlane, workers)
	for w := 0; w < workers; w++ {
		planes[w] = NewNetPlane(NetConfig{
			Self: w, Workers: workers, Place: place, Links: mesh[w],
		})
	}
	results := make([]workerResult, workers)
	gathers := make([]*Gather, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		topo, g := build()
		gathers[w] = g
		o := opts
		o.Net = planes[w]
		wg.Add(1)
		go func(w int, topo *Topology, o Options) {
			defer wg.Done()
			m, err := Run(topo, o)
			results[w] = workerResult{m, err}
		}(w, topo, o)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(120 * time.Second):
		t.Fatal("cluster run wedged")
	}
	for _, p := range planes {
		p.Shutdown()
	}
	for _, row := range mesh {
		for _, c := range row {
			if c != nil {
				c.Close()
			}
		}
	}
	return results, gathers, planes
}

func requireAllOK(t *testing.T, results []workerResult) {
	t.Helper()
	for w, r := range results {
		if r.err != nil {
			t.Fatalf("worker %d: %v", w, r.err)
		}
	}
}

func rowBag(rows []types.Tuple) map[string]int {
	bag := make(map[string]int, len(rows))
	for _, r := range rows {
		bag[r.Key()]++
	}
	return bag
}

// TestNetLinearPipeline splits src -> double -> sink across two and three
// workers and asserts bag equality with the single-process run, with full,
// one-row and small frames.
func TestNetLinearPipeline(t *testing.T) {
	const rows = 2000
	build := func() (*Topology, *Gather) {
		g := NewGather()
		topo, err := NewBuilder().
			Spout("src", 3, SliceSpout(intRows(rows))).
			Bolt("double", 4, func(int, int) Bolt {
				return FuncBolt{OnTuple: func(in Input, out *Collector) error {
					return out.Emit(append(types.Tuple{}, in.Tuple...))
				}}
			}).
			Bolt("sink", 1, g.Factory()).
			Input("double", "src", Shuffle()).
			Input("sink", "double", Global()).
			Build()
		if err != nil {
			t.Fatal(err)
		}
		return topo, g
	}

	ref, refG := build()
	if _, err := Run(ref, Options{Seed: 1}); err != nil {
		t.Fatalf("reference run: %v", err)
	}
	want := rowBag(refG.Rows())

	cases := []struct {
		name    string
		workers int
		place   map[string]int
		opts    Options
	}{
		{"two-workers", 2, map[string]int{"src": 0, "double": 1, "sink": 0}, Options{Seed: 1}},
		{"three-workers-chain", 3, map[string]int{"src": 0, "double": 1, "sink": 2}, Options{Seed: 1}},
		{"per-tuple", 2, map[string]int{"src": 1, "double": 0, "sink": 1}, Options{Seed: 1, BatchSize: 1}},
		{"tiny-window", 2, map[string]int{"src": 0, "double": 1, "sink": 0}, Options{Seed: 1, ChannelBuf: 2, BatchSize: 8}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			results, gathers, _ := runNetCluster(t, tc.workers, tc.place, tc.opts, build)
			requireAllOK(t, results)
			sinkW := tc.place["sink"]
			got := rowBag(gathers[sinkW].Rows())
			diffBags(t, want, got)
			for w, g := range gathers {
				if w != sinkW && len(g.Rows()) != 0 {
					t.Errorf("worker %d gathered %d rows but does not host the sink", w, len(g.Rows()))
				}
			}
		})
	}
}

// buildNetRecTopo is the recover_test workload (R broadcast = peer
// recoverable, S hash-partitioned = checkpoint route) shaped for cluster
// placement tests.
func buildNetRecTopo(t *testing.T, nR, nS, par int) func() (*Topology, *Gather) {
	t.Helper()
	rRows, sRows := recWorkload(nR, nS)
	return func() (*Topology, *Gather) {
		b := NewBuilder()
		b.Spout("R", 1, SliceSpout(rRows))
		b.Spout("S", 1, SliceSpout(sRows))
		b.Bolt("join", par, func(int, int) Bolt { return &crossJoin{} })
		g := NewGather()
		b.Bolt("sink", 1, g.Factory())
		b.Input("join", "R", All())
		b.Input("join", "S", Fields(0))
		b.Input("sink", "join", Global())
		topo, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return topo, g
	}
}

// TestNetRecoveryRemoteKill kills a joiner task whose producers live on a
// different worker: the recovery round must pause the remote producer gates,
// quiesce in-flight TCP data with flush tokens, replay the missed suffix over
// the wire from the producers' snapshot buffers, and still produce the exact
// no-fault bag. Both recovery routes are exercised: peer refetch (R) stays
// local by construction; the checkpoint route (S) replays remotely.
func TestNetRecoveryRemoteKill(t *testing.T) {
	const nR, nS, par = 40, 300, 3
	build := buildNetRecTopo(t, nR, nS, par)

	ref, refG := build()
	if _, err := Run(ref, Options{Seed: 7}); err != nil {
		t.Fatalf("reference run: %v", err)
	}
	want := rowBag(refG.Rows())

	for _, disablePeer := range []bool{false, true} {
		t.Run(fmt.Sprintf("disablePeer=%v", disablePeer), func(t *testing.T) {
			place := map[string]int{"R": 0, "S": 0, "join": 1, "sink": 0}
			// Small envelopes keep the stream in flight when the fault
			// fires. The checkpoint-only case uses a commit interval larger
			// than the victim's whole input: no commit ever lands, so the
			// restore starts from nothing and the entire prefix must replay
			// over the wire — a deterministic non-empty remote replay (any
			// committed checkpoint covers every drained tuple, since commits
			// fire inside the quiesced drain itself).
			every := 48
			if disablePeer {
				every = 1 << 20
			}
			opts := Options{Seed: 7, BatchSize: 4, ChannelBuf: 2}
			opts.Recovery = recPolicy(par, &FaultPlan{Task: 1, AfterTuples: 40},
				recovery.NewMemStore(), disablePeer, every)
			results, gathers, planes := runNetCluster(t, 2, place, opts, build)
			requireAllOK(t, results)
			diffBags(t, want, rowBag(gathers[0].Rows()))

			// The recovery manager ran on worker 1 (join's host); merging the
			// workers' snapshots must surface its kill count on worker 0's
			// metrics, and the snapshot marked RecOwner must be worker 1's.
			merged := results[0].m
			snap := planes[1].LocalSnapshot(results[1].m)
			if !snap.RecOwner {
				t.Fatal("worker 1 hosts the protected component but its snapshot is not RecOwner")
			}
			planes[0].ApplySnapshot(merged, snap)
			if got := merged.Recovery.Kills.Load(); got != 1 {
				t.Fatalf("merged kills = %d, want 1", got)
			}
			if disablePeer && results[0].m.Recovery.ReplayedEnvelopes.Load() == 0 {
				t.Fatal("checkpoint route recovered a remote kill without replaying over the wire")
			}
		})
	}
}

// TestNetRecoveryRemotePanic: the panic flavor quiesces only the victim (its
// peers may already have exited) and restarts it in place.
func TestNetRecoveryRemotePanic(t *testing.T) {
	const nR, nS, par = 40, 300, 3
	build := buildNetRecTopo(t, nR, nS, par)

	ref, refG := build()
	if _, err := Run(ref, Options{Seed: 7}); err != nil {
		t.Fatalf("reference run: %v", err)
	}
	want := rowBag(refG.Rows())

	armed := &atomic.Bool{}
	armed.Store(true)
	buildPanic := func() (*Topology, *Gather) {
		rRows, sRows := recWorkload(nR, nS)
		b := NewBuilder()
		b.Spout("R", 1, SliceSpout(rRows))
		b.Spout("S", 1, SliceSpout(sRows))
		b.Bolt("join", par, func(task, _ int) Bolt {
			if task == 2 {
				return &panicJoin{task: task, armed: armed, after: 40}
			}
			return &crossJoin{}
		})
		g := NewGather()
		b.Bolt("sink", 1, g.Factory())
		b.Input("join", "R", All())
		b.Input("join", "S", Fields(0))
		b.Input("sink", "join", Global())
		topo, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return topo, g
	}

	place := map[string]int{"R": 0, "S": 0, "join": 1, "sink": 0}
	opts := Options{Seed: 7, BatchSize: 4, ChannelBuf: 2}
	opts.Recovery = recPolicy(par, nil, recovery.NewMemStore(), false, 48)
	results, gathers, _ := runNetCluster(t, 2, place, opts, buildPanic)
	requireAllOK(t, results)
	diffBags(t, want, rowBag(gathers[0].Rows()))
	if got := results[1].m.Recovery.Panics.Load(); got != 1 {
		t.Fatalf("panics = %d, want 1", got)
	}
}

// TestNetAdaptiveReshape runs the live 1-Bucket operator with its joiner on a
// different worker than both spouts: reshape rounds must pause the remote
// producers, quiesce the wire, migrate state locally and resume the remote
// gates with the new matrix. The cross product must come out exactly once.
func TestNetAdaptiveReshape(t *testing.T) {
	const nR, nS, par = 4000, 30, 8
	build := func() (*Topology, *Gather) {
		return buildAdaptiveTopo(t, nR, nS, par, func() Bolt { return &pairBolt{} })
	}
	// Deliver S before R floods (see TestAdaptiveReshapePreservesPairs) and
	// throttle the wire — small credit windows keep the spouts alive long
	// enough for the controller to observe the drift; the default window
	// would let all 4000 tuples cross the socket before any report lands.
	rHoldoff = 20 * time.Millisecond
	defer func() { rHoldoff = 0 }()
	place := map[string]int{"R": 0, "S": 0, "join": 1, "sink": 0}

	reshaped := false
	for _, seed := range []int64{7, 8, 9} {
		opts := Options{Seed: seed, BatchSize: 16, ChannelBuf: 4}
		opts.Adaptive = &AdaptivePolicy{
			Component: "join", RStream: "R", SStream: "S",
			InitialRows: 1, InitialCols: par,
			ReportEvery: 16, MinObserved: 64, MinGain: 0.05,
		}
		results, gathers, _ := runNetCluster(t, 2, place, opts, build)
		requireAllOK(t, results)
		bag := rowBag(gathers[0].Rows())
		if len(bag) != nR*nS {
			t.Fatalf("seed %d: distinct pairs = %d, want %d", seed, len(bag), nR*nS)
		}
		for k, c := range bag {
			if c != 1 {
				t.Fatalf("seed %d: pair %s produced %d times", seed, k, c)
			}
		}
		am := &results[1].m.Adapt
		t.Logf("seed %d: reshapes=%d migrated=%d final=%dx%d", seed,
			am.Reshapes.Load(), am.MigratedTuples.Load(), am.FinalRows.Load(), am.FinalCols.Load())
		if am.Reshapes.Load() > 0 {
			reshaped = true
			break
		}
	}
	if !reshaped {
		t.Fatal("no seed produced a reshape: the remote gate protocol was never exercised")
	}
}

// TestNetWorkerLoss: when a worker's links drop mid-stream (the process
// died), every surviving worker's Run must fail promptly with a link error —
// fate-sharing, not a hang. The stream is throttled so the cut lands while
// data is in flight.
func TestNetWorkerLoss(t *testing.T) {
	const workers = 2
	mesh := dialMesh(t, workers)
	place := map[string]int{"src": 0, "double": 1, "sink": 0}
	planes := make([]*NetPlane, workers)
	for w := 0; w < workers; w++ {
		planes[w] = NewNetPlane(NetConfig{
			Self: w, Workers: workers, Place: place, Links: mesh[w],
		})
	}
	results := make([]workerResult, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		g := NewGather()
		topo, err := NewBuilder().
			Spout("src", 2, GenSpout(100_000, func(i int) types.Tuple {
				if i < 200 {
					time.Sleep(time.Millisecond)
				}
				return types.Tuple{types.Int(int64(i))}
			})).
			Bolt("double", 2, passBolt).
			Bolt("sink", 1, g.Factory()).
			Input("double", "src", Shuffle()).
			Input("sink", "double", Global()).
			Build()
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(w int, topo *Topology) {
			defer wg.Done()
			_, err := Run(topo, Options{Seed: 1, Net: planes[w]})
			results[w] = workerResult{nil, err}
		}(w, topo)
	}
	// Cut worker 1's link while the throttled prefix is still streaming:
	// worker 0 must notice and abort.
	time.Sleep(50 * time.Millisecond)
	mesh[0][1].Close()
	mesh[1][0].Close()

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("runs did not fail after losing a worker link")
	}
	for w, r := range results {
		if r.err == nil {
			t.Errorf("worker %d: run succeeded after its peer link dropped", w)
		} else if !strings.Contains(r.err.Error(), "link to worker") {
			t.Logf("worker %d failed with: %v", w, r.err) // any abort is acceptable; link error is typical
		}
	}
	for _, p := range planes {
		p.Shutdown()
	}
}

// TestNetRetiredSingleKindFails: message kinds 3 and 4 once carried an
// encoded tuple batch and one encoded tuple. Every data edge now crosses the
// socket as frame messages, so a peer that still sends either kind must fail
// the run with the unknown-kind error — not hang, and not deliver the
// tuples — whether the message lands before the run binds the plane
// (parked, then drained by bind) or mid-run.
func TestNetRetiredSingleKindFails(t *testing.T) {
	retired := []struct {
		kind    byte
		payload []byte
	}{
		{3, wire.EncodeBatch(nil, []types.Tuple{{types.Int(-1)}})},
		{4, wire.Encode(nil, types.Tuple{types.Int(-1)})},
	}
	for _, rk := range retired {
		for _, preBind := range []bool{true, false} {
			t.Run(fmt.Sprintf("kind=%d/prebind=%v", rk.kind, preBind), func(t *testing.T) {
				mesh := dialMesh(t, 2)
				defer func() {
					for _, row := range mesh {
						for _, c := range row {
							if c != nil {
								c.Close()
							}
						}
					}
				}()
				// Worker 1 hosts nothing: its end of the link is the stale peer.
				place := map[string]int{"src": 0, "sink": 0}
				plane := NewNetPlane(NetConfig{Self: 0, Workers: 2, Place: place, Links: mesh[0]})
				defer plane.Shutdown()
				g := NewGather()
				topo, err := NewBuilder().
					Spout("src", 1, GenSpout(5000, func(i int) types.Tuple {
						time.Sleep(time.Millisecond) // keep the run open for the peer
						return types.Tuple{types.Int(int64(i))}
					})).
					Bolt("sink", 1, g.Factory()).
					Input("sink", "src", Global()).
					Build()
				if err != nil {
					t.Fatal(err)
				}
				sinkIdx := -1
				for i, n := range topo.nodes {
					if n.name == "sink" {
						sinkIdx = i
					}
				}
				send := func() {
					stale := transport.Msg{Kind: rk.kind, Stream: "src", A: int64(sinkIdx), B: 0, C: 0, Payload: rk.payload}
					if err := mesh[1][0].WriteMsg(&stale); err != nil {
						t.Error(err)
					}
				}
				if preBind {
					send()
					// Biases the message onto the parked path; either arrival
					// order must fail the run the same way.
					time.Sleep(20 * time.Millisecond)
				} else {
					time.AfterFunc(50*time.Millisecond, send)
				}
				_, err = runWithWatchdog(t, topo, Options{Seed: 1, Net: plane})
				want := fmt.Sprintf("unknown message kind %d", rk.kind)
				if err == nil || !strings.Contains(err.Error(), want) {
					t.Fatalf("run with a kind-%d peer message returned %v, want the unknown-kind error", rk.kind, err)
				}
				for _, r := range g.Rows() {
					if r[0].I == -1 {
						t.Fatal("the retired kind's tuple was delivered")
					}
				}
			})
		}
	}
}

// TestNetAdaptiveKill runs both control planes on one run across a socket:
// the adaptive joiner lives on worker 1, its producers on worker 0, and one
// joiner task is killed mid-stream. Reshape and recovery rounds share the one
// gate on each side of the wire; the result must be bag-equal to the
// in-process static-matrix reference, every pair exactly once, with at least
// one reshape and exactly one recovered kill.
func TestNetAdaptiveKill(t *testing.T) {
	const nR, nS, par = 4000, 30, 8
	build := func() (*Topology, *Gather) {
		return buildAdaptiveTopo(t, nR, nS, par, func() Bolt { return &pairBolt{} })
	}
	pol := func(static bool) *AdaptivePolicy {
		return &AdaptivePolicy{
			Component: "join", RStream: "R", SStream: "S",
			InitialRows: 1, InitialCols: par, Static: static,
			ReportEvery: 16, MinObserved: 64, MinGain: 0.05,
		}
	}
	ref, refG := build()
	if _, err := Run(ref, Options{Seed: 7, Adaptive: pol(true)}); err != nil {
		t.Fatalf("reference run: %v", err)
	}
	want := rowBag(refG.Rows())
	if len(want) != nR*nS {
		t.Fatalf("reference holds %d distinct pairs, want %d", len(want), nR*nS)
	}

	// See TestNetAdaptiveReshape: S lands first and small credit windows
	// keep the spouts alive while the controller observes the drift.
	rHoldoff = 20 * time.Millisecond
	defer func() { rHoldoff = 0 }()
	place := map[string]int{"R": 0, "S": 0, "join": 1, "sink": 0}
	reshaped := false
	for _, seed := range []int64{7, 8, 9} {
		opts := Options{Seed: seed, BatchSize: 16, ChannelBuf: 4, Adaptive: pol(false)}
		opts.Recovery = &RecoveryPolicy{
			Component: "join", RelOf: map[string]int{"R": 0, "S": 1}, NumRels: 2,
			Store: recovery.NewMemStore(), CheckpointEvery: 256,
			Fault: &FaultPlan{Task: 1, AfterTuples: 200},
		}
		results, gathers, _ := runNetCluster(t, 2, place, opts, build)
		requireAllOK(t, results)
		diffBags(t, want, rowBag(gathers[0].Rows()))
		if got := len(gathers[0].Rows()); got != nR*nS {
			t.Fatalf("seed %d: %d result rows, want %d", seed, got, nR*nS)
		}
		am, rm := &results[1].m.Adapt, &results[1].m.Recovery
		t.Logf("seed %d: reshapes=%d kills=%d final=%dx%d", seed,
			am.Reshapes.Load(), rm.Kills.Load(), am.FinalRows.Load(), am.FinalCols.Load())
		if got := rm.Kills.Load(); got != 1 {
			t.Fatalf("seed %d: recovered kills = %d, want 1", seed, got)
		}
		if am.Reshapes.Load() > 0 {
			reshaped = true
			break
		}
	}
	if !reshaped {
		t.Fatal("no seed produced a reshape: the shared gate was never driven by both rounds")
	}
}

// TestNetAbortClassifiesSocketErrors: a worker whose own write hits a closed
// connection fails with a raw socket error, not ErrLink. Its abort must still
// reach the coordinating worker classified as infrastructure — otherwise a
// Recover policy would give up on what is a lost link.
func TestNetAbortClassifiesSocketErrors(t *testing.T) {
	closed := fmt.Errorf("dataflow: send to sink[0] on worker 0: %w",
		&net.OpError{Op: "write", Net: "tcp", Err: net.ErrClosed})
	build := func() (*Topology, *Gather) {
		g := NewGather()
		topo, err := NewBuilder().
			Spout("src", 1, GenSpout(100, func(i int) types.Tuple { return types.Tuple{types.Int(int64(i))} })).
			Bolt("mid", 1, func(int, int) Bolt { return &pairBolt{fail: closed} }).
			Bolt("sink", 1, g.Factory()).
			Input("mid", "src", Shuffle()).
			Input("sink", "mid", Global()).
			Build()
		if err != nil {
			t.Fatal(err)
		}
		return topo, g
	}
	place := map[string]int{"src": 0, "mid": 1, "sink": 0}
	results, _, _ := runNetCluster(t, 2, place, Options{Seed: 1}, build)
	if err := results[1].err; !errors.Is(err, net.ErrClosed) || !IsInfra(err) {
		t.Fatalf("failing worker: %v, want its own socket error classified as infrastructure", err)
	}
	if err := results[0].err; err == nil || !errors.Is(err, ErrLink) {
		t.Fatalf("coordinating worker: %v, want the relayed abort marked ErrLink", err)
	}
}

func TestIsInfra(t *testing.T) {
	for _, tc := range []struct {
		err  error
		want bool
	}{
		{nil, false},
		{errors.New("bolt failed"), false},
		{fmt.Errorf("wrapped: %w", ErrMemoryOverflow), false},
		{fmt.Errorf("link: %w", ErrLink), true},
		{fmt.Errorf("peer: %w", transport.ErrPeerLost), true},
		{fmt.Errorf("send: %w", &net.OpError{Op: "write", Net: "tcp", Err: net.ErrClosed}), true},
		{fmt.Errorf("close: %w", net.ErrClosed), true},
		{fmt.Errorf("read: %w", io.ErrUnexpectedEOF), true},
		{fmt.Errorf("write: %w", syscall.EPIPE), true},
		{fmt.Errorf("read: %w", syscall.ECONNRESET), true},
	} {
		if got := IsInfra(tc.err); got != tc.want {
			t.Errorf("IsInfra(%v) = %v, want %v", tc.err, got, tc.want)
		}
	}
}
