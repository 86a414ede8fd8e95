package enginetest

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"squall"
	"squall/internal/dataflow"
	"squall/internal/expr"
	"squall/internal/recovery"
	"squall/internal/slab"
	"squall/internal/types"
)

// The tiered-state gates below share one workload: a 2-way hash-hypercube
// join of 14k+14k padded rows over 4 joiners (each key matches 16 ways), with
// 256-row sealed segments.
const (
	spillRows     = 14_000
	spillMachines = 4
	spillSegRows  = 256
)

// spillRun executes the workload under opts and returns the result bag.
func spillRun(t *testing.T, opts squall.Options) (map[string]int, *squall.Result) {
	t.Helper()
	domain := int64(spillRows / 4)
	pad := types.Str("spill-payload-0123456789abcdefghijklmnopqrstuvwxyz-0123456789")
	r := make([]types.Tuple, spillRows)
	s := make([]types.Tuple, spillRows)
	for i := range r {
		r[i] = types.Tuple{types.Int(int64(i) % domain), types.Int(int64(i)), pad}
		s[i] = types.Tuple{types.Int(int64(i*7) % domain), types.Int(int64(i)), pad}
	}
	q := &squall.JoinQuery{
		Graph:    expr.MustJoinGraph(2, expr.EquiCol(0, 0, 1, 0)),
		Scheme:   squall.HashHypercube,
		Machines: spillMachines,
		Local:    squall.Traditional,
		Sources: []squall.Source{
			{Name: "R", Spout: dataflow.SliceSpout(r), Size: spillRows},
			{Name: "S", Spout: dataflow.SliceSpout(s), Size: spillRows},
		},
	}
	// Shallow inboxes keep the sources backpressured behind the joiners, so
	// a cap's throttle stage reaches them.
	opts.Seed, opts.ChannelBuf = 17, 8
	res, err := q.Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	bag := make(map[string]int, len(res.Rows))
	for _, row := range res.Rows {
		bag[row.Key()]++
	}
	return bag, res
}

// TestSpillCapBoundsResidency: with the resident cap at half the uncapped
// run's peak, the run spills, peaks under the cap and stays bag-equal to the
// untiered run.
func TestSpillCapBoundsResidency(t *testing.T) {
	ref, _ := spillRun(t, squall.Options{})
	_, uncapped := spillRun(t, squall.Options{Tier: &squall.TierOptions{SegmentRows: spillSegRows, MemCapBytes: 1 << 40}})
	limit := uncapped.Pressure.PeakResident / 2
	got, capped := spillRun(t, squall.Options{Tier: &squall.TierOptions{
		SegmentRows: spillSegRows, MemCapBytes: limit, SpillDir: t.TempDir(),
	}})
	if diff := DiffBags(ref, got); diff != "" {
		t.Fatalf("capped run diverges from the untiered run:\n%s", diff)
	}
	p := capped.Pressure
	t.Logf("cap %d B (half of %d B): peak %d B, %d spills, %d fault-ins", limit, uncapped.Pressure.PeakResident, p.PeakResident, p.Spills, p.SegmentFaults)
	if p.Spills == 0 || p.PeakSpilled == 0 {
		t.Fatalf("capped run never spilled: the cap was not exercised")
	}
	if p.PeakResident > limit {
		t.Fatalf("capped run peaked at %d B resident, over the %d B cap", p.PeakResident, limit)
	}
}

// TestIncrementalCheckpointsWriteLess: at the same cadence, a tiered joiner's
// checkpoints reference its sealed segments instead of re-exporting them, so
// they write at least 4x fewer bytes than full checkpoints of the same run.
func TestIncrementalCheckpointsWriteLess(t *testing.T) {
	every := spillRows / 8
	fullBag, full := spillRun(t, squall.Options{Recovery: &squall.RecoveryOptions{CheckpointEvery: every}})
	incrBag, incr := spillRun(t, squall.Options{
		Recovery: &squall.RecoveryOptions{CheckpointEvery: every},
		Tier:     &squall.TierOptions{SegmentRows: spillSegRows, CacheSegments: 4},
	})
	if diff := DiffBags(fullBag, incrBag); diff != "" {
		t.Fatalf("tiered run diverges from the untiered run:\n%s", diff)
	}
	fm, im := &full.Metrics.Recovery, &incr.Metrics.Recovery
	if fm.Checkpoints.Load() == 0 || im.Checkpoints.Load() == 0 {
		t.Fatalf("checkpoints taken: full %d, incremental %d; want both > 0", fm.Checkpoints.Load(), im.Checkpoints.Load())
	}
	fb, ib := fm.CheckpointBytes.Load(), im.CheckpointBytes.Load()
	t.Logf("checkpoint bytes: full %d over %d, incremental %d over %d (%.1fx)", fb, fm.Checkpoints.Load(), ib, im.Checkpoints.Load(), float64(fb)/float64(ib))
	if ib*4 > fb {
		t.Fatalf("incremental checkpoints wrote %d B, full %d B: want at least 4x fewer", ib, fb)
	}
}

// corruptingStore flips one byte in the target'th spill ("sp-") put; the
// checkpoint ("ck-") copies stay clean, as when the spill device corrupts a
// block while the durable copy survives. It records the victim key and
// whether the tier deleted (quarantined) it.
type corruptingStore struct {
	inner slab.SegmentStore

	mu          sync.Mutex
	target      int
	puts        int
	victim      string
	quarantined bool
}

func (c *corruptingStore) PutSegment(key string, blob []byte) error {
	if strings.HasPrefix(key, "sp-") {
		c.mu.Lock()
		c.puts++
		if c.puts == c.target {
			c.victim = key
			blob = append([]byte(nil), blob...)
			blob[len(blob)/2] ^= 0x40
		}
		c.mu.Unlock()
	}
	return c.inner.PutSegment(key, blob)
}

func (c *corruptingStore) GetSegment(key string, dst []byte) ([]byte, bool, error) {
	return c.inner.GetSegment(key, dst)
}

func (c *corruptingStore) DeleteSegment(key string) error {
	c.mu.Lock()
	if key == c.victim {
		c.quarantined = true
	}
	c.mu.Unlock()
	return c.inner.DeleteSegment(key)
}

// TestCorruptSpillSegmentRecovered: a spilled segment corrupted mid-run fails
// its CRC on the next fault-in; the tier quarantines it and the task restores
// through the recovery plane from its clean incremental checkpoint, reading
// sealed segments back, and the run ends bag-equal to the untiered run. The
// spill store is the in-process MemStore once and a DiskStore log once,
// where the bad blob lands in a recycled fault-in buffer.
func TestCorruptSpillSegmentRecovered(t *testing.T) {
	ref, _ := spillRun(t, squall.Options{})
	for _, tc := range []struct {
		name  string
		inner func(t *testing.T) slab.SegmentStore
	}{
		{"mem", func(*testing.T) slab.SegmentStore { return recovery.NewMemStore() }},
		{"disk", func(t *testing.T) slab.SegmentStore {
			ds, err := recovery.NewDiskStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { ds.Close() })
			return ds
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// A mid-run target: checkpoints with segment references precede
			// the fault, so the restore reads sealed segments instead of
			// replaying only.
			cs := &corruptingStore{inner: tc.inner(t), target: 48}
			got, res := spillRun(t, squall.Options{
				Recovery: &squall.RecoveryOptions{CheckpointEvery: spillRows / 32, DisablePeer: true},
				Tier:     &squall.TierOptions{SegmentRows: spillSegRows, CacheSegments: 4, Store: cs},
			})
			if cs.victim == "" {
				t.Fatalf("the run made fewer than %d spill writes", cs.target)
			}
			if diff := DiffBags(ref, got); diff != "" {
				t.Fatalf("recovered run diverges from the untiered run:\n%s", diff)
			}
			if !cs.quarantined {
				t.Fatalf("corrupted segment %q was never quarantined", cs.victim)
			}
			rm := &res.Metrics.Recovery
			if rm.Faults.Load() < 1 {
				t.Fatalf("%d recoveries, want >= 1", rm.Faults.Load())
			}
			if rm.SegmentBytes.Load() == 0 {
				t.Fatalf("the restore read no sealed segments back")
			}
		})
	}
}

// TestSpillDirClosedAfterRun: the segment store a run opens on
// TierOptions.SpillDir is closed when Run returns — no file descriptor of
// this process points into the spill directory afterwards, and the
// directory holds no segment log. Linux only (it reads /proc/self/fd).
func TestSpillDirClosedAfterRun(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("reads /proc/self/fd")
	}
	_, uncapped := spillRun(t, squall.Options{Tier: &squall.TierOptions{SegmentRows: spillSegRows, MemCapBytes: 1 << 40}})
	dir := t.TempDir()
	_, res := spillRun(t, squall.Options{Tier: &squall.TierOptions{
		SegmentRows: spillSegRows, MemCapBytes: uncapped.Pressure.PeakResident / 2, SpillDir: dir,
	}})
	if res.Pressure.Spills == 0 {
		t.Fatal("the run spilled nothing: the spill store was never written")
	}
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Fatal(err)
	}
	for _, fd := range fds {
		target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name()))
		if err == nil && strings.HasPrefix(target, dir) {
			t.Fatalf("fd %s still points into the spill directory: %s", fd.Name(), target)
		}
	}
	if left, _ := os.ReadDir(dir); len(left) != 0 {
		t.Fatalf("the spill directory still holds %d entries, first %s", len(left), left[0].Name())
	}
}

// failingSegmentStore is an in-memory checkpoint store whose segment writes
// fail, as when the checkpoint device fills up.
type failingSegmentStore struct{ *recovery.MemStore }

func (failingSegmentStore) PutSegment(key string, _ []byte) error {
	return fmt.Errorf("put %s: device full", key)
}

// TestCheckpointSegmentWriteFailsRun: when a tiered joiner's checkpoint
// cannot persist a sealed segment, the run fails with an error naming the
// segment. It does not quietly take full-frame checkpoints instead.
func TestCheckpointSegmentWriteFailsRun(t *testing.T) {
	w := RandomWorkload(31, 2, 400, 25, false)
	q, opts := w.Plan(EngineConfig{Scheme: squall.HashHypercube, Local: squall.Traditional, BatchSize: 8, Spill: true, Machines: 2, Seed: 31})
	opts.Recovery = &squall.RecoveryOptions{CheckpointEvery: 24, Store: failingSegmentStore{recovery.NewMemStore()}}
	res, err := q.Run(opts)
	if err == nil {
		t.Fatalf("run over a failing segment store returned %d rows and no error", res.RowCount)
	}
	t.Logf("run failed: %v", err)
	if !strings.Contains(err.Error(), "persist segment") || !strings.Contains(err.Error(), "device full") {
		t.Fatalf("run failed with %q, want the failed segment write", err)
	}
}
