// Multi-process dimension of the differential harness (PR 7): the same
// randomized workloads run as real cluster sessions — this test binary
// re-executed as squalld-style worker processes, joined to a coordinator over
// loopback TCP — and must stay bag-identical to the in-process oracle,
// including while a remote joiner task is chaos-killed mid-run and while the
// adaptive controller reshapes across the socket.
package enginetest_test

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"squall"
	"squall/internal/clusterjobs"
	"squall/internal/dataflow"
	"squall/internal/enginetest"
	"squall/internal/expr"
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

const (
	workerEnv  = "SQUALL_TEST_WORKER"
	addrPrefix = "SQUALL_WORKER_ADDR "
)

// TestClusterWorkerHelper is not a test: it is the body of the re-executed
// worker processes. Guarded by an env var so normal runs skip it instantly.
func TestClusterWorkerHelper(t *testing.T) {
	if os.Getenv(workerEnv) != "1" {
		t.Skip("worker-process helper; only runs re-executed")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Printf("SQUALL_WORKER_ERR %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("%s%s\n", addrPrefix, ln.Addr())
	// Serves sessions until the parent kills this process.
	squall.ServeWorker(ln)
}

// startWorkerProc re-executes the test binary as one worker process and
// returns its listen address plus the process handle (for chaos kills).
func startWorkerProc(t *testing.T) (string, *exec.Cmd) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^TestClusterWorkerHelper$", "-test.v")
	cmd.Env = append(os.Environ(), workerEnv+"=1")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatalf("worker stdout: %v", err)
	}
	cmd.Stderr = io.Discard
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting worker process: %v", err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})

	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if line, ok := strings.CutPrefix(sc.Text(), addrPrefix); ok {
				addrCh <- line
				break
			}
		}
		// Keep draining so the child never blocks on a full pipe.
		io.Copy(io.Discard, stdout)
	}()
	select {
	case addr := <-addrCh:
		return addr, cmd
	case <-time.After(30 * time.Second):
		t.Fatalf("worker process never reported its address")
		return "", nil
	}
}

// runWorkloadCluster runs one WorkloadParams config against the given worker
// addresses and bag-compares the result with the oracle.
func runWorkloadCluster(t *testing.T, addrs []string, params clusterjobs.WorkloadParams, ref map[string]int) *squall.Result {
	t.Helper()
	q, opts, err := params.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	opts.Cluster = &squall.ClusterSpec{
		Workers: addrs,
		Job:     clusterjobs.WorkloadJob,
		Params:  paramsJSON(params),
	}
	res, err := q.Run(opts)
	if err != nil {
		t.Fatalf("cluster run: %v", err)
	}
	got := make(map[string]int, len(res.Rows))
	for _, r := range res.Rows {
		got[r.Key()]++
	}
	if diff := enginetest.DiffBags(ref, got); diff != "" {
		t.Fatalf("multi-process run diverges from oracle:\n%s", diff)
	}
	return res
}

// TestClusterMultiProcessDifferential is the multi-process differential: a
// coordinator plus two re-executed worker processes over loopback TCP, across
// schemes, locals, batch sizes, two producer tasks per relation, the
// adaptive reshape path and a chaos kill of the (remote) joiner.
func TestClusterMultiProcessDifferential(t *testing.T) {
	addr1, _ := startWorkerProc(t)
	addr2, _ := startWorkerProc(t)
	addrs := []string{addr1, addr2}

	base := clusterjobs.WorkloadParams{Seed: 11, NumRels: 3, RowsPerRel: 120, KeyDomain: 14}
	w3 := enginetest.RandomWorkload(base.Seed, base.NumRels, base.RowsPerRel, base.KeyDomain, base.WithTheta)
	ref3 := w3.ReferenceBag()
	if len(ref3) == 0 {
		t.Fatalf("degenerate workload: oracle produced no rows")
	}

	configs := []enginetest.EngineConfig{
		{Scheme: squall.HashHypercube, Local: squall.Traditional, BatchSize: 16},
		{Scheme: squall.HashHypercube, Local: squall.Traditional, BatchSize: 1},
		{Scheme: squall.HashHypercube, Local: squall.DBToaster, BatchSize: 16},
		{Scheme: squall.RandomHypercube, Local: squall.Traditional, BatchSize: 8},
		{Scheme: squall.HybridHypercube, Local: squall.Traditional, BatchSize: 16},
		{Scheme: squall.HashHypercube, Local: squall.Traditional, BatchSize: 16, SourcePar: 2},
		{Scheme: squall.HashHypercube, Local: squall.Traditional, BatchSize: 4, Kill: true},
	}
	for _, cfg := range configs {
		cfg.Machines = 6
		cfg.Seed = base.Seed
		params := base
		params.Config = cfg
		t.Run(cfg.String(), func(t *testing.T) {
			res := runWorkloadCluster(t, addrs, params, ref3)
			if cfg.Kill {
				// Default placement puts the joiner on worker 1: the kill and
				// its recovery happened in a separate OS process.
				if res.Metrics.Recovery.Kills.Load() != 1 {
					t.Fatalf("expected 1 recovered kill in merged metrics, got %d",
						res.Metrics.Recovery.Kills.Load())
				}
			}
		})
	}

	// The adaptive 1-Bucket operator is 2-way: its own workload. At batch
	// 16 multi-row packed coordinate frames cross TCP.
	t.Run("adaptive-2way", func(t *testing.T) {
		params := clusterjobs.WorkloadParams{Seed: 12, NumRels: 2, RowsPerRel: 200, KeyDomain: 20}
		w2 := enginetest.RandomWorkload(params.Seed, params.NumRels, params.RowsPerRel, params.KeyDomain, false)
		ref2 := w2.ReferenceBag()
		for _, batch := range []int{3, 16} {
			params.Config = enginetest.EngineConfig{
				Scheme: squall.HashHypercube, Local: squall.Traditional,
				BatchSize: batch, Adaptive: true, Machines: 6, Seed: params.Seed,
			}
			t.Run(params.Config.String(), func(t *testing.T) {
				runWorkloadCluster(t, addrs, params, ref2)
			})
		}
	})

	// The view-less DBToaster rule across the socket: on a 2-relation graph
	// both processes must plan the same base-relation core, and its state
	// must survive a remote kill (at batch 1 too), tiering and adaptive
	// reshaping.
	t.Run("viewless-dbtoaster-2way", func(t *testing.T) {
		params := clusterjobs.WorkloadParams{Seed: 13, NumRels: 2, RowsPerRel: 400, KeyDomain: 30, WithTheta: true}
		w2 := enginetest.RandomWorkload(params.Seed, params.NumRels, params.RowsPerRel, params.KeyDomain, params.WithTheta)
		ref2 := w2.ReferenceBag()
		for _, cfg := range []enginetest.EngineConfig{
			{BatchSize: 16},
			{BatchSize: 4, Kill: true},
			{BatchSize: 16, Spill: true, Kill: true},
			{BatchSize: 3, Adaptive: true},
			// Both control planes on one run across the socket: reshape and
			// recovery rounds share the one producer gate on each worker.
			{BatchSize: 3, Adaptive: true, Kill: true},
			// One-row frames and their replay cross TCP as ordinary frame
			// messages.
			{BatchSize: 1, Kill: true},
		} {
			cfg.Scheme, cfg.Local, cfg.Machines, cfg.Seed = squall.HashHypercube, squall.DBToaster, 4, params.Seed
			params.Config = cfg
			t.Run(cfg.String(), func(t *testing.T) {
				res := runWorkloadCluster(t, addrs, params, ref2)
				if res.Plan.Joiner.Operator != "localjoin.Traditional" {
					t.Fatalf("joiner ran %q, want the base-relation core", res.Plan.Joiner.Operator)
				}
				if cfg.Kill && res.Metrics.Recovery.Kills.Load() != 1 {
					t.Fatalf("expected 1 recovered kill in merged metrics, got %d", res.Metrics.Recovery.Kills.Load())
				}
			})
		}
	})

	// Aggregate views across the socket: the joiner's partial rows leave the
	// worker process for a parallel merge.
	t.Run("aggviews-3way", func(t *testing.T) {
		agg := &enginetest.AggConfig{GroupBy: []enginetest.AggCol{{Rel: 0, Col: 1}, {Rel: 2, Col: 1}}, Sum: &enginetest.AggCol{Rel: 1, Col: 2}}
		params := clusterjobs.WorkloadParams{Seed: 14, NumRels: 3, RowsPerRel: 150, KeyDomain: 12, Zipf: true}
		params.Config = enginetest.EngineConfig{
			Scheme: squall.HashHypercube, Local: squall.DBToaster, BatchSize: 16,
			Agg: agg, FinalPar: 2, Machines: 4, Seed: params.Seed,
		}
		w := enginetest.ZipfWorkload(params.Seed, params.NumRels, params.RowsPerRel, params.KeyDomain)
		res := runWorkloadCluster(t, addrs, params, w.ReferenceAggBag(agg))
		if res.Plan.Joiner.Operator != "dbtoaster.AggJoin" {
			t.Fatalf("joiner ran %q (%s), want aggregate views", res.Plan.Joiner.Operator, res.Plan.Joiner.Reason)
		}
	})
}

// slowJob is a cluster job whose sources trickle their first rows, holding
// the run open long enough for the worker-loss test to kill a worker process
// mid-stream deterministically.
const slowJob = "enginetest-slow"

func init() { squall.RegisterClusterJob(slowJob, buildSlowJob) }

var buildSlowJob squall.ClusterJob = func([]byte) (*squall.JoinQuery, squall.Options, error) {
	const n = 4000
	mk := func(rel int) dataflow.SpoutFactory {
		return dataflow.GenSpout(n, func(i int) types.Tuple {
			if i < 800 {
				time.Sleep(time.Millisecond)
			}
			return types.Tuple{
				types.Int(int64(i % 97)),
				types.Int(int64(i % 50)),
				types.Int(int64(rel*1_000_000 + i)),
			}
		})
	}
	q := &squall.JoinQuery{
		Graph:    expr.MustJoinGraph(2, expr.EquiCol(0, 0, 1, 0)),
		Scheme:   squall.HashHypercube,
		Machines: 4,
		Local:    squall.Traditional,
		Sources: []squall.Source{
			{Name: "rel0", Spout: mk(0), Size: n},
			{Name: "rel1", Spout: mk(1), Size: n},
		},
	}
	return q, squall.Options{BatchSize: 8, ChannelBuf: 8}, nil
}

// TestClusterWorkerProcessLoss kills one worker process mid-run: the
// coordinator must fail the run promptly — no hang, no partial result
// presented as success.
func TestClusterWorkerProcessLoss(t *testing.T) {
	addr1, _ := startWorkerProc(t)
	addr2, victim := startWorkerProc(t)

	q, opts, err := buildSlowJob(nil)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	opts.Cluster = &squall.ClusterSpec{Workers: []string{addr1, addr2}, Job: slowJob}

	go func() {
		time.Sleep(150 * time.Millisecond)
		victim.Process.Kill()
	}()
	done := make(chan error, 1)
	go func() {
		_, err := q.Run(opts)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatalf("run succeeded despite a dead worker process")
		}
		t.Logf("coordinator failed as expected: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatalf("coordinator hung after worker process death")
	}
}

// chaosParams is a trickled workload: tuples identical to the untrickled
// oracle, but paced so a chaos fault reliably lands mid-run.
func chaosParams() clusterjobs.WorkloadParams {
	return clusterjobs.WorkloadParams{
		Seed: 11, NumRels: 3, RowsPerRel: 420, KeyDomain: 40,
		TrickleRows: 400, TrickleEveryUS: 500,
		Config: enginetest.EngineConfig{
			Scheme: squall.HashHypercube, Local: squall.Traditional,
			BatchSize: 8, Machines: 4, Seed: 11,
		},
	}
}

func chaosRef(t *testing.T, params clusterjobs.WorkloadParams) map[string]int {
	t.Helper()
	w := enginetest.RandomWorkload(params.Seed, params.NumRels, params.RowsPerRel, params.KeyDomain, params.WithTheta)
	ref := w.ReferenceBag()
	if len(ref) == 0 {
		t.Fatalf("degenerate workload: oracle produced no rows")
	}
	return ref
}

// TestClusterChaosRecoverProcessKill SIGKILLs the worker process hosting the
// joiner mid-run. Under the Recover policy the coordinator must detect the
// loss, reassign the dead worker's components to the survivor and finish
// bag-identical to the oracle — exactly once, no duplicates from the aborted
// attempt.
func TestClusterChaosRecoverProcessKill(t *testing.T) {
	addr1, victim := startWorkerProc(t) // worker 1: joiner host under default placement
	addr2, _ := startWorkerProc(t)

	params := chaosParams()
	ref := chaosRef(t, params)

	go func() {
		time.Sleep(150 * time.Millisecond)
		victim.Process.Kill()
	}()
	q, opts, err := params.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	opts.Cluster = &squall.ClusterSpec{
		Workers: []string{addr1, addr2}, Job: clusterjobs.WorkloadJob, Params: paramsJSON(params),
		Policy: squall.Recover, MaxAttempts: 3,
		Heartbeat: 200 * time.Millisecond, HeartbeatMiss: 5,
		Retry: transport.RetryPolicy{Attempts: 3, BaseDelay: 50 * time.Millisecond, DialTimeout: 5 * time.Second},
	}
	res, err := q.Run(opts)
	if err != nil {
		t.Fatalf("recover run: %v", err)
	}
	got := make(map[string]int, len(res.Rows))
	for _, r := range res.Rows {
		got[r.Key()]++
	}
	if diff := enginetest.DiffBags(ref, got); diff != "" {
		t.Fatalf("recovered run diverges from oracle:\n%s", diff)
	}
	cm := res.Metrics.Cluster
	if cm.Attempts < 2 || cm.WorkersLost < 1 {
		t.Fatalf("process kill not recovered through the cluster ladder: %+v", cm)
	}
}

// TestClusterChaosRecoverLinkPartition injects a one-way partition on the
// first coordinator->worker connection: writes vanish silently while reads
// still flow, so only missed heartbeats can expose it. The worker process
// stays healthy, so recovery re-dispatches onto the same worker over fresh
// connections and must converge bag-identical to the oracle.
func TestClusterChaosRecoverLinkPartition(t *testing.T) {
	addr, _ := startWorkerProc(t)

	params := chaosParams()
	ref := chaosRef(t, params)

	q, opts, err := params.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	opts.Cluster = &squall.ClusterSpec{
		Workers: []string{addr}, Job: clusterjobs.WorkloadJob, Params: paramsJSON(params),
		Policy: squall.Recover, MaxAttempts: 3,
		Heartbeat: 100 * time.Millisecond, HeartbeatMiss: 3,
		Retry: transport.RetryPolicy{Attempts: 3, BaseDelay: 20 * time.Millisecond, DialTimeout: 5 * time.Second},
		Fault: &transport.FaultSpec{Seed: 7, PartitionAfter: 30, MaxConns: 1},
	}
	res, err := q.Run(opts)
	if err != nil {
		t.Fatalf("partition run: %v", err)
	}
	got := make(map[string]int, len(res.Rows))
	for _, r := range res.Rows {
		got[r.Key()]++
	}
	if diff := enginetest.DiffBags(ref, got); diff != "" {
		t.Fatalf("partitioned run diverges from oracle:\n%s", diff)
	}
	cm := res.Metrics.Cluster
	if cm.Attempts != 2 || cm.WorkersLost != 0 {
		t.Fatalf("partition not recovered through re-dispatch: %+v", cm)
	}
}
