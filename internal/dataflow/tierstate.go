// Tiered-state hooks (PR 10): the executor's side of the slab tier layer.
// Bolts whose state lives in tiered arenas expose three optional surfaces —
// spilled-byte reporting (accounting), state release (pressure-gauge refunds
// when a task instance is dropped), and tiered checkpoint export (sealed
// segments by store reference instead of re-encoded frames). The executor
// discovers each by type assertion, so untiered bolts cost nothing.
package dataflow

import (
	"time"

	"squall/internal/slab"
)

// StateReleaser is implemented by bolts that charge a pressure gauge or
// other externally visible accounting: ReleaseState refunds the charges.
// The executor calls it whenever a bolt instance is dropped — task exit,
// recovery rebirth — so a replaced operator never double-counts against the
// memory cap. Releasing an already-released state is a no-op.
type StateReleaser interface {
	ReleaseState()
}

// TierExporter is implemented by bolts that can export one relation's state
// as sealed-segment references plus bare hot-row frames — the incremental
// checkpoint path. Sealed segments were persisted to the checkpoint store
// when they sealed (or spilled), so a later checkpoint references them by
// key and CRC instead of re-exporting their rows. A relation that cannot
// take that path (not tiered, or no checkpoint store) exports every row as
// frames and no references.
type TierExporter interface {
	ExportStateTier(rel, batchSize int, visit func(frame []byte, count int) bool) ([]slab.SegmentCk, error)
}

// releaseState refunds a dropped bolt instance's external charges.
func releaseState(b Bolt) {
	if sr, ok := b.(StateReleaser); ok {
		sr.ReleaseState()
	}
}

// spoutThrottle is one spout-side ladder check, called at the per-batch
// abort poll. At Backpressure the spout yields briefly; at Reject (resident
// state is at the cap and spilling still hasn't relieved it) it stalls
// harder. The pauses are deliberately short: the ladder is sampled every
// batch, so sustained pressure compounds into real backpressure while a
// transient spike costs one scheduling quantum.
func (ex *execution) spoutThrottle() {
	p := ex.opts.Pressure
	if p == nil {
		return
	}
	st := p.Stage()
	if st < slab.PressureBackpressure {
		return
	}
	d := 100 * time.Microsecond
	if st >= slab.PressureReject {
		d = 500 * time.Microsecond
	}
	p.NoteThrottle()
	time.Sleep(d)
}
