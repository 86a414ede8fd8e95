package squall_test

import (
	"encoding/json"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"squall"
	"squall/internal/clusterjobs"
	"squall/internal/dataflow"
	"squall/internal/enginetest"
	"squall/internal/transport"
	"squall/internal/types"
)

// paramsJSON encodes workload params for ClusterSpec.Params.
func paramsJSON(p clusterjobs.WorkloadParams) []byte {
	b, err := json.Marshal(p)
	if err != nil {
		panic(err)
	}
	return b
}

// startWorkers brings up n in-process WorkerServers on loopback listeners and
// returns their addresses. In-process keeps these tests fast and debuggable;
// the true multi-process dimension lives in internal/enginetest.
func startWorkers(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		t.Cleanup(func() { ln.Close() })
		go squall.ServeWorker(ln)
		addrs[i] = ln.Addr().String()
	}
	return addrs
}

// clusterParams is a representative workload: 3 relations, productive keys,
// batched packed transport.
func clusterParams(cfg enginetest.EngineConfig) clusterjobs.WorkloadParams {
	return clusterjobs.WorkloadParams{
		Seed: 42, NumRels: 3, RowsPerRel: 90, KeyDomain: 12, Config: cfg,
	}
}

func runClusterCase(t *testing.T, workers int, cfg enginetest.EngineConfig, place map[string]int) *squall.Result {
	t.Helper()
	params := clusterParams(cfg)
	q, opts, err := params.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	opts.Cluster = &squall.ClusterSpec{
		Workers: startWorkers(t, workers),
		Job:     clusterjobs.WorkloadJob,
		Params:  paramsJSON(params),
		Place:   place,
	}
	res, err := q.Run(opts)
	if err != nil {
		t.Fatalf("cluster run: %v", err)
	}

	w := enginetest.RandomWorkload(params.Seed, params.NumRels, params.RowsPerRel, params.KeyDomain, params.WithTheta)
	got := make(map[string]int, len(res.Rows))
	for _, r := range res.Rows {
		got[r.Key()]++
	}
	if diff := enginetest.DiffBags(w.ReferenceBag(), got); diff != "" {
		t.Fatalf("cluster run diverges from oracle:\n%s", diff)
	}
	return res
}

func TestClusterTwoWorkers(t *testing.T) {
	cfg := enginetest.EngineConfig{
		Scheme: squall.HashHypercube, Local: squall.Traditional,
		BatchSize: 16, Machines: 6, Seed: 42,
	}
	res := runClusterCase(t, 2, cfg, nil)
	// Merged metrics must read like a single-process run: the joiner lives on
	// worker 1, so its counters only exist if the snapshot merge worked.
	joiner := res.Metrics.Components[res.JoinerComponent]
	if joiner == nil || joiner.ReceivedTotal() == 0 {
		t.Fatalf("merged metrics missing the remote joiner's counters: %+v", res.Metrics.Components)
	}
}

func TestClusterExplicitPlacement(t *testing.T) {
	cfg := enginetest.EngineConfig{
		Scheme: squall.HashHypercube, Local: squall.Traditional,
		BatchSize: 8, Machines: 4, Seed: 42,
	}
	// Everything remote except the sink: sources split across both workers,
	// joiner on worker 2.
	runClusterCase(t, 2, cfg, map[string]int{
		"rel0": 1, "rel1": 2, "rel2": 1, "joiner": 2, "sink": 0,
	})
}

func TestClusterRemoteKillRecovery(t *testing.T) {
	cfg := enginetest.EngineConfig{
		Scheme: squall.HashHypercube, Local: squall.Traditional,
		BatchSize: 4, Machines: 6, Seed: 42, Kill: true,
	}
	// Default placement puts the joiner on worker 1, so the injected kill
	// lands in a remote process and recovery runs over TCP.
	res := runClusterCase(t, 2, cfg, nil)
	if res.Metrics.Recovery.Kills.Load() != 1 {
		t.Fatalf("expected 1 recovered kill in merged metrics, got %d", res.Metrics.Recovery.Kills.Load())
	}
}

func TestClusterRejectsBadSpecs(t *testing.T) {
	cfg := enginetest.EngineConfig{
		Scheme: squall.HashHypercube, Local: squall.Traditional,
		BatchSize: 16, Machines: 4, Seed: 42,
	}
	params := clusterParams(cfg)
	addrs := startWorkers(t, 1)

	cases := []struct {
		name    string
		mutate  func(o *squall.Options)
		wantErr string
	}{
		{"no workers", func(o *squall.Options) { o.Cluster.Workers = nil }, "at least one worker"},
		{"no job", func(o *squall.Options) { o.Cluster.Job = "" }, "job name"},
		{"unregistered job", func(o *squall.Options) { o.Cluster.Job = "no-such-job" }, "not registered"},
		{"sink off coordinator", func(o *squall.Options) {
			o.Cluster.Place = map[string]int{"rel0": 0, "rel1": 1, "rel2": 0, "joiner": 1, "sink": 1}
		}, "sink"},
		{"missing component", func(o *squall.Options) {
			o.Cluster.Place = map[string]int{"rel0": 0, "sink": 0}
		}, "placement misses"},
		{"out of range worker", func(o *squall.Options) {
			o.Cluster.Place = map[string]int{"rel0": 0, "rel1": 5, "rel2": 0, "joiner": 1, "sink": 0}
		}, "have 2 workers"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			q, opts, err := params.Build()
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			opts.Cluster = &squall.ClusterSpec{
				Workers: addrs, Job: clusterjobs.WorkloadJob, Params: paramsJSON(params),
			}
			c.mutate(&opts)
			_, err = q.Run(opts)
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("want error containing %q, got %v", c.wantErr, err)
			}
		})
	}
}

// startWorkerHandles is startWorkers with the server handles exposed, so a
// test can kill one mid-run the way SIGKILL kills a squalld.
func startWorkerHandles(t *testing.T, n int) ([]string, []*squall.WorkerServer) {
	t.Helper()
	addrs := make([]string, n)
	srvs := make([]*squall.WorkerServer, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		srv := squall.NewWorkerServer(ln)
		t.Cleanup(func() { srv.Close() })
		go srv.Serve()
		addrs[i] = ln.Addr().String()
		srvs[i] = srv
	}
	return addrs, srvs
}

// trickledParams is clusterParams slowed down so a mid-run fault reliably
// lands while data is in flight.
func trickledParams(cfg enginetest.EngineConfig) clusterjobs.WorkloadParams {
	p := clusterParams(cfg)
	p.RowsPerRel = 420
	p.KeyDomain = 40
	p.TrickleRows = 400
	p.TrickleEveryUS = 500
	return p
}

// chaosSpec is the survivability configuration the chaos tests share: fast
// detection, a small dial budget, bounded attempts.
func chaosSpec(addrs []string, params clusterjobs.WorkloadParams, policy squall.ClusterPolicy) *squall.ClusterSpec {
	return &squall.ClusterSpec{
		Workers: addrs, Job: clusterjobs.WorkloadJob, Params: paramsJSON(params),
		Policy: policy, MaxAttempts: 3,
		Heartbeat: 100 * time.Millisecond, HeartbeatMiss: 3,
		Retry: transport.RetryPolicy{Attempts: 2, BaseDelay: 20 * time.Millisecond, DialTimeout: 5 * time.Second},
	}
}

// killAfterRows returns a query edit that kills srv once the coordinator's
// first source has handed the engine killRows rows. The coordinator hosts
// that source under the default placement, and a trickled source still has
// most of its rows to go then, so the kill lands mid-run however fast or
// loaded the machine is — no sleep decides it. Later attempts rebuild the
// same source; the kill fires once.
func killAfterRows(srv *squall.WorkerServer) func(*squall.JoinQuery) {
	const killRows = 100
	return func(q *squall.JoinQuery) {
		src := q.Sources[0].Spout
		var rows atomic.Int64
		var once sync.Once
		q.Sources[0].Spout = func(task, ntasks int) dataflow.Spout {
			sp := src(task, ntasks)
			return spoutFunc(func() (types.Tuple, bool) {
				t, ok := sp.Next()
				if ok && rows.Add(1) == killRows {
					once.Do(func() { go srv.Close() })
				}
				return t, ok
			})
		}
	}
}

// spoutFunc adapts a function to dataflow.Spout.
type spoutFunc func() (types.Tuple, bool)

func (f spoutFunc) Next() (types.Tuple, bool) { return f() }

// runChaosCase runs params under spec, after edit (when non-nil) adjusts the
// coordinator's query, and checks the result against the oracle.
func runChaosCase(t *testing.T, params clusterjobs.WorkloadParams, spec *squall.ClusterSpec, edit func(*squall.JoinQuery)) *squall.Result {
	t.Helper()
	q, opts, err := params.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	if edit != nil {
		edit(q)
	}
	opts.Cluster = spec
	res, err := q.Run(opts)
	if err != nil {
		t.Fatalf("cluster run: %v", err)
	}
	w := enginetest.RandomWorkload(params.Seed, params.NumRels, params.RowsPerRel, params.KeyDomain, params.WithTheta)
	got := make(map[string]int, len(res.Rows))
	for _, r := range res.Rows {
		got[r.Key()]++
	}
	if diff := enginetest.DiffBags(w.ReferenceBag(), got); diff != "" {
		t.Fatalf("recovered run diverges from oracle:\n%s", diff)
	}
	return res
}

// Under Recover, killing a worker (here: the one hosting the joiner) mid-run
// must yield a result bag-equal to the oracle, with the dead worker's
// components reassigned to survivors.
func TestClusterPolicyRecoverWorkerLoss(t *testing.T) {
	cfg := enginetest.EngineConfig{
		Scheme: squall.HashHypercube, Local: squall.Traditional,
		BatchSize: 8, Machines: 4, Seed: 42,
	}
	params := trickledParams(cfg)
	addrs, srvs := startWorkerHandles(t, 2)
	// Worker 1 hosts the joiner under the default placement.
	res := runChaosCase(t, params, chaosSpec(addrs, params, squall.Recover), killAfterRows(srvs[0]))
	cm := res.Metrics.Cluster
	if cm.Attempts < 2 || cm.WorkersLost < 1 || cm.Reassigned < 1 {
		t.Fatalf("recovery not exercised: %+v", cm)
	}
	if cm.RecoveryNS <= 0 {
		t.Fatalf("recovery time not recorded: %+v", cm)
	}
}

// Under Recover with every worker dead, the coordinator absorbs the whole
// topology and finishes alone.
func TestClusterPolicyRecoverTotalLoss(t *testing.T) {
	cfg := enginetest.EngineConfig{
		Scheme: squall.HashHypercube, Local: squall.Traditional,
		BatchSize: 8, Machines: 4, Seed: 42,
	}
	params := trickledParams(cfg)
	addrs, srvs := startWorkerHandles(t, 1)
	res := runChaosCase(t, params, chaosSpec(addrs, params, squall.Recover), killAfterRows(srvs[0]))
	cm := res.Metrics.Cluster
	if cm.WorkersLost != 1 || cm.Attempts < 2 {
		t.Fatalf("total-loss recovery not exercised: %+v", cm)
	}
}

// Under Retry, a one-way partition (writes vanish, reads flow — only
// heartbeats can see it) must fail the first attempt in bounded time and
// succeed on a re-dispatch over fresh connections.
func TestClusterPolicyRetryPartition(t *testing.T) {
	cfg := enginetest.EngineConfig{
		Scheme: squall.HashHypercube, Local: squall.Traditional,
		BatchSize: 8, Machines: 4, Seed: 42,
	}
	params := trickledParams(cfg)
	addrs, _ := startWorkerHandles(t, 1)
	spec := chaosSpec(addrs, params, squall.Retry)
	// Fault only the first coordinator-dialed connection: attempt 0 starves
	// behind the partition, attempt 1 runs clean.
	spec.Fault = &transport.FaultSpec{Seed: 3, PartitionAfter: 30, MaxConns: 1}
	res := runChaosCase(t, params, spec, nil)
	cm := res.Metrics.Cluster
	if cm.Attempts != 2 || cm.WorkersLost != 0 {
		t.Fatalf("partition retry not exercised: %+v", cm)
	}
}

// Under FateShare the same mid-run worker loss still fails loudly — the
// differential baseline.
func TestClusterPolicyFateShareStillFails(t *testing.T) {
	deadWorkerFails(t, squall.FateShare)
}

// Under Retry a dead worker is not a transient fault: re-dispatching onto it
// must fail the run, not report success.
func TestClusterPolicyRetryDeadWorkerFails(t *testing.T) {
	deadWorkerFails(t, squall.Retry)
}

// deadWorkerFails kills the joiner's worker mid-run under policy and expects
// the run to fail promptly.
func deadWorkerFails(t *testing.T, policy squall.ClusterPolicy) {
	cfg := enginetest.EngineConfig{
		Scheme: squall.HashHypercube, Local: squall.Traditional,
		BatchSize: 8, Machines: 4, Seed: 42,
	}
	params := trickledParams(cfg)
	addrs, srvs := startWorkerHandles(t, 2)
	q, opts, err := params.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	killAfterRows(srvs[0])(q)
	opts.Cluster = chaosSpec(addrs, params, policy)
	done := make(chan error, 1)
	go func() {
		_, err := q.Run(opts)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatalf("%v run succeeded despite a dead worker", policy)
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("%v run hung after worker death", policy)
	}
}

// A connection carrying a stale link epoch must be rejected at the
// handshake: it belongs to a dead attempt and may not join a newer one.
func TestClusterStaleEpochRejected(t *testing.T) {
	addrs, _ := startWorkerHandles(t, 1)
	fresh, err := transport.DialRetry(addrs[0],
		transport.Hello{RunID: "epochtest.1", From: 0, Purpose: transport.PurposeJob, Epoch: 1}, transport.RetryPolicy{DialTimeout: 5 * time.Second}, nil)
	if err != nil {
		t.Fatalf("dial epoch 1: %v", err)
	}
	defer fresh.Close()
	// DialRetry returns once the hello is flushed, not once the worker admitted
	// it; force a round-trip (bogus frame -> failure reply) so epoch 1 is
	// recorded before the stale dial races in.
	if err := fresh.WriteMsg(&transport.Msg{Kind: 99}); err != nil {
		t.Fatalf("writing sync frame: %v", err)
	}
	fresh.SetReadDeadline(time.Now().Add(10 * time.Second))
	var ack transport.Msg
	if err := fresh.ReadMsg(&ack); err != nil {
		t.Fatalf("reading sync reply: %v", err)
	}
	stale, err := transport.DialRetry(addrs[0],
		transport.Hello{RunID: "epochtest.0", From: 0, Purpose: transport.PurposeJob, Epoch: 0}, transport.RetryPolicy{DialTimeout: 5 * time.Second}, nil)
	if err != nil {
		t.Fatalf("dial epoch 0: %v", err)
	}
	defer stale.Close()
	stale.SetReadDeadline(time.Now().Add(10 * time.Second))
	var m transport.Msg
	if err := stale.ReadMsg(&m); err != nil {
		t.Fatalf("reading stale-epoch verdict: %v", err)
	}
	if !strings.Contains(string(m.Payload), "stale link epoch") {
		t.Fatalf("stale epoch not rejected: kind %d payload %q", m.Kind, m.Payload)
	}
}

// With ClusterSpec.Store set, a remote chaos kill recovers through the
// coordinator-served shared store: the worker's checkpoints must land in it.
func TestClusterSharedStoreKillRecovery(t *testing.T) {
	cfg := enginetest.EngineConfig{
		Scheme: squall.HashHypercube, Local: squall.Traditional,
		BatchSize: 4, Machines: 6, Seed: 42, Kill: true,
	}
	params := clusterParams(cfg)
	q, opts, err := params.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	store := squall.NewMemCheckpointStore()
	opts.Cluster = &squall.ClusterSpec{
		Workers: startWorkers(t, 2),
		Job:     clusterjobs.WorkloadJob,
		Params:  paramsJSON(params),
		Store:   store,
	}
	res, err := q.Run(opts)
	if err != nil {
		t.Fatalf("cluster run: %v", err)
	}
	if res.Metrics.Recovery.Kills.Load() != 1 {
		t.Fatalf("expected 1 recovered kill, got %d", res.Metrics.Recovery.Kills.Load())
	}
	sized, ok := store.(interface{ Bytes() int })
	if !ok {
		t.Fatalf("mem store lost its Bytes accessor")
	}
	if sized.Bytes() == 0 {
		t.Fatalf("remote kill recovered without a single checkpoint reaching the shared store")
	}
}
