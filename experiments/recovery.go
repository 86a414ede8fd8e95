package experiments

import (
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"time"

	"squall"
	"squall/internal/dataflow"
	"squall/internal/expr"
	"squall/internal/recovery"
	"squall/internal/types"
)

// Disk model for the recovery baseline, mirroring the engine's CPU-for-
// network substitution: the paper's blades (§7) pair a 1 Gbit network with
// contended local spinning disks, so checkpoint reads pay a seek plus
// ~120 MB/s sequential bandwidth instead of this machine's page cache.
// netBytes is the 1 Gbit link's bandwidth, the price of a peer fetch.
const (
	diskSeek      = 2 * time.Millisecond
	diskReadBytes = 120 << 20
	netBytes      = 1e9 / 8
)

// RecoveryConfig sizes the §5 fault-tolerance experiment.
type RecoveryConfig struct {
	RTuples, STuples int
	Machines         int
	// Reps runs each configuration this many times (0 means 1), interleaved
	// (fault-free, peer, disk, fault-free, ...); timings are the best rep's,
	// prices the costliest rep's.
	Reps int
}

// RecoveryRun is one configuration of the recovery experiment.
type RecoveryRun struct {
	Name    string
	Elapsed time.Duration
	Rows    int64
	// Recovery is the fault's gate-to-ack recovery time (0 without a fault).
	Recovery time.Duration
	// PeerRels and CheckpointRels count the per-relation routes the
	// recovery took.
	PeerRels, CheckpointRels int64
	// Price is what the recovery fetched, from the engine's counters, priced
	// by the substitution model: bytes peers served cross the paper's 1 Gbit
	// link, and every checkpoint-store read pays the modeled disk's seek
	// plus its bytes at 120 MB/s. Unlike the wall-clock Recovery time it
	// counts only fetches, so a loaded machine cannot reorder the routes.
	Price time.Duration
}

// RecoveryResult is the §5 experiment: the same join fault-free, then with
// one joiner killed mid-run and recovered from a peer, then from disk.
type RecoveryResult struct {
	FaultFree, Peer, Disk RecoveryRun
	// BagEqual reports that every rep of every run produced the fault-free
	// run's result bag.
	BagEqual bool
}

// Overhead is the peer-recovered run's elapsed time over the fault-free
// run's: what the fault itself costs end to end.
func (r RecoveryResult) Overhead() float64 {
	return float64(r.Peer.Elapsed) / float64(r.FaultFree.Elapsed)
}

// Section5Recovery reproduces the §5 fault-tolerance claim live: "network
// accesses are several times faster than disk accesses", so a replicated
// scheme recovers a failed machine from peers rather than from checkpoints.
// A Random-Hypercube 2-way join (every relation replicated, so every
// relation is peer-recoverable) runs with checkpoints on a modeled disk,
// fault-free; then with joiner task 0 killed after 1/Machines of R has
// arrived and recovered from a peer; then with the same kill recovered from
// the disk checkpoint (peer routes disabled).
func Section5Recovery(cfg RecoveryConfig) (RecoveryResult, error) {
	domain := int64(cfg.RTuples / 4)
	pad := types.Str("recover-bench-payload-0123456789")
	r := make([]types.Tuple, cfg.RTuples)
	for i := range r {
		r[i] = types.Tuple{types.Int(int64(i) % domain), types.Int(int64(i)), pad}
	}
	s := make([]types.Tuple, cfg.STuples)
	for i := range s {
		s[i] = types.Tuple{types.Int(int64(i*7) % domain), types.Int(int64(i)), pad}
	}
	killAfter := cfg.RTuples / cfg.Machines

	dir, err := os.MkdirTemp("", "squall-ckpt-*")
	if err != nil {
		return RecoveryResult{}, err
	}
	defer os.RemoveAll(dir)
	runs := 0
	runOnce := func(name string, kill, disablePeer bool) (RecoveryRun, map[string]int, error) {
		// A fresh directory per run: each run models a fresh cluster, and a
		// stale manifest must never stand in for this run's history.
		runs++
		store, err := recovery.NewModeledDiskStore(filepath.Join(dir, fmt.Sprint(runs)), diskSeek, diskReadBytes)
		if err != nil {
			return RecoveryRun{}, nil, err
		}
		q := &squall.JoinQuery{
			Graph:    expr.MustJoinGraph(2, expr.EquiCol(0, 0, 1, 0)),
			Scheme:   squall.RandomHypercube,
			Machines: cfg.Machines,
			Local:    squall.Traditional,
			Sources: []squall.Source{
				{Name: "R", Spout: dataflow.SliceSpout(r), Size: int64(cfg.RTuples)},
				{Name: "S", Spout: dataflow.SliceSpout(s), Size: int64(cfg.STuples)},
			},
		}
		opts := squall.Options{
			Seed: 11,
			// Shallow inboxes backpressure the sources, so the kill lands
			// mid-stream and later arrivals join against restored state.
			ChannelBuf: 4,
			// A couple of checkpoints precede the kill, so the disk route
			// restores from the medium plus a bounded replay.
			Recovery: &squall.RecoveryOptions{CheckpointEvery: killAfter * 3 / 4, Store: store, DisablePeer: disablePeer},
		}
		if kill {
			opts.FaultPlan = &squall.FaultPlan{Task: 0, AfterTuples: killAfter}
		}
		res, err := q.Run(opts)
		if err != nil {
			return RecoveryRun{}, nil, fmt.Errorf("%s: %w", name, err)
		}
		rm := &res.Metrics.Recovery
		if kill && rm.Faults.Load() != 1 {
			return RecoveryRun{}, nil, fmt.Errorf("%s: %d faults recovered, want 1", name, rm.Faults.Load())
		}
		price := float64(rm.PeerBytes.Load())/netBytes +
			float64(rm.StoreReads.Load())*diskSeek.Seconds() + float64(rm.StoreBytes.Load())/diskReadBytes
		bag := make(map[string]int, len(res.Rows))
		for _, row := range res.Rows {
			bag[row.Key()]++
		}
		return RecoveryRun{
			Name:           name,
			Elapsed:        res.Metrics.Elapsed,
			Rows:           res.RowCount,
			Recovery:       time.Duration(rm.LastRecoveryNS.Load()),
			PeerRels:       rm.PeerRels.Load(),
			CheckpointRels: rm.CheckpointRels.Load(),
			Price:          time.Duration(price * float64(time.Second)),
		}, bag, nil
	}

	res := RecoveryResult{BagEqual: true}
	var ref map[string]int
	configs := []struct {
		out               *RecoveryRun
		name              string
		kill, disablePeer bool
	}{
		{&res.FaultFree, "fault-free", false, false},
		{&res.Peer, "kill+peer", true, false},
		{&res.Disk, "kill+disk", true, true},
	}
	// The reps interleave the configurations, so a load burst on the
	// machine lands on every route instead of on one.
	for rep := 0; rep < max(cfg.Reps, 1); rep++ {
		for _, c := range configs {
			run, bag, err := runOnce(c.name, c.kill, c.disablePeer)
			if err != nil {
				return res, err
			}
			if ref == nil {
				ref = bag
			} else if !maps.Equal(ref, bag) {
				res.BagEqual = false
			}
			// Elapsed and recovery time are minimized independently: a noisy
			// neighbour should not decide the comparison. The price is the
			// costliest rep's.
			if rep == 0 {
				*c.out = run
				continue
			}
			c.out.Elapsed = min(c.out.Elapsed, run.Elapsed)
			c.out.Recovery = min(c.out.Recovery, run.Recovery)
			c.out.Price = max(c.out.Price, run.Price)
		}
	}
	return res, nil
}
