package slab

import "sync/atomic"

// Memory-pressure ladder. One Pressure instance aggregates the resident
// footprint of every tiered arena in a run (or an engine) against a
// configured cap and maps the ratio onto a degradation ladder: Normal →
// Spill (seal + spill cold segments) → Backpressure (throttle source edges
// while spill I/O catches up) → Reject (refuse new serving registrations).
// Arenas charge it through PressureGauges (single-writer, delta-folded, like
// Meter/Gauge) so the totals track live state without a global sampling
// pass.

// PressureStage is one rung of the degradation ladder.
type PressureStage int32

const (
	// PressureNormal: resident state comfortably under the cap.
	PressureNormal PressureStage = iota
	// PressureSpill: resident state past the spill watermark (75% of cap);
	// tiered arenas spill their coldest sealed segments.
	PressureSpill
	// PressureBackpressure: resident state past the backpressure watermark
	// (92% of cap); sources are throttled so spill I/O can catch up.
	PressureBackpressure
	// PressureReject: resident state at or past the cap; new serving
	// registrations are refused with a BudgetError.
	PressureReject
)

func (s PressureStage) String() string {
	switch s {
	case PressureNormal:
		return "normal"
	case PressureSpill:
		return "spill"
	case PressureBackpressure:
		return "backpressure"
	case PressureReject:
		return "reject"
	}
	return "unknown"
}

// Pressure tracks tiered-state residency against a memory cap. Cap <= 0
// means no cap: the ladder stays at Normal and the instance is
// reporting-only. All methods are safe for concurrent use.
type Pressure struct {
	cap int64 // bytes; <= 0 = uncapped

	resident    atomic.Int64 // tiered bytes currently in RAM
	peak        atomic.Int64 // high-water resident bytes over the ladder's lifetime
	spilled     atomic.Int64 // tiered bytes currently on disk only
	peakSpilled atomic.Int64 // high-water spilled bytes over the ladder's lifetime
	sealed      atomic.Int64 // sealed segments currently alive
	quarantined atomic.Int64 // segments quarantined after CRC failure
	spills      atomic.Int64 // spill writes completed
	faults      atomic.Int64 // spilled segments faulted back in
	spillErrors atomic.Int64 // spill writes that failed (segment stayed resident)
	throttled   atomic.Int64 // spout batches delayed by backpressure
}

// NewPressure returns a ladder with the given resident-byte cap (<= 0 for
// reporting-only).
func NewPressure(capBytes int64) *Pressure { return &Pressure{cap: capBytes} }

// Cap returns the configured resident-byte cap (<= 0 = uncapped).
func (p *Pressure) Cap() int64 { return p.cap }

// Stage maps current residency onto the ladder.
func (p *Pressure) Stage() PressureStage {
	if p == nil || p.cap <= 0 {
		return PressureNormal
	}
	r := p.resident.Load()
	switch {
	case r >= p.cap:
		return PressureReject
	case r*100 >= p.cap*92:
		return PressureBackpressure
	case r*100 >= p.cap*75:
		return PressureSpill
	}
	return PressureNormal
}

// ResidentBytes returns tiered bytes currently in RAM.
func (p *Pressure) ResidentBytes() int64 { return p.resident.Load() }

// NoteThrottle counts one source batch delayed by backpressure.
func (p *Pressure) NoteThrottle() { p.throttled.Add(1) }

// PressureStats is the ladder's published state (healthz payload).
type PressureStats struct {
	CapBytes       int64  `json:"cap_bytes"`
	ResidentBytes  int64  `json:"resident_bytes"`
	PeakResident   int64  `json:"peak_resident_bytes"`
	SpilledBytes   int64  `json:"spilled_bytes"`
	PeakSpilled    int64  `json:"peak_spilled_bytes"`
	SealedSegments int64  `json:"sealed_segments"`
	Stage          string `json:"stage"`
	Spills         int64  `json:"spills"`
	SegmentFaults  int64  `json:"segment_faults"`
	SpillErrors    int64  `json:"spill_errors"`
	Quarantined    int64  `json:"quarantined_segments"`
	ThrottleEvents int64  `json:"throttle_events"`
}

// Stats snapshots the ladder.
func (p *Pressure) Stats() PressureStats {
	if p == nil {
		return PressureStats{Stage: PressureNormal.String()}
	}
	return PressureStats{
		CapBytes:       p.cap,
		ResidentBytes:  p.resident.Load(),
		PeakResident:   p.peak.Load(),
		SpilledBytes:   p.spilled.Load(),
		PeakSpilled:    p.peakSpilled.Load(),
		SealedSegments: p.sealed.Load(),
		Stage:          p.Stage().String(),
		Spills:         p.spills.Load(),
		SegmentFaults:  p.faults.Load(),
		SpillErrors:    p.spillErrors.Load(),
		Quarantined:    p.quarantined.Load(),
		ThrottleEvents: p.throttled.Load(),
	}
}

// PressureGauge folds one arena's absolute resident/spilled/sealed readings
// into a Pressure as deltas. Single-writer (the arena's owning task);
// distinct gauges may charge one Pressure concurrently.
type PressureGauge struct {
	p        *Pressure
	resident int64
	spilled  int64
	sealed   int64
}

// Gauge returns a new charging source for one arena. Returns nil on a nil
// Pressure (tier configured without a ladder).
func (p *Pressure) Gauge() *PressureGauge {
	if p == nil {
		return nil
	}
	return &PressureGauge{p: p}
}

// set folds absolute readings into the ladder as deltas.
func (g *PressureGauge) set(resident, spilled, sealed int64) {
	if g == nil {
		return
	}
	if d := resident - g.resident; d != 0 {
		r := g.p.resident.Add(d)
		g.resident = resident
		for {
			old := g.p.peak.Load()
			if r <= old || g.p.peak.CompareAndSwap(old, r) {
				break
			}
		}
	}
	if d := spilled - g.spilled; d != 0 {
		s := g.p.spilled.Add(d)
		g.spilled = spilled
		for {
			old := g.p.peakSpilled.Load()
			if s <= old || g.p.peakSpilled.CompareAndSwap(old, s) {
				break
			}
		}
	}
	if d := sealed - g.sealed; d != 0 {
		g.p.sealed.Add(d)
		g.sealed = sealed
	}
}

// Release refunds the gauge's current charges (arena dropped at rebirth,
// reshape or run end). Releasing twice is a no-op.
func (g *PressureGauge) Release() {
	if g == nil {
		return
	}
	g.set(0, 0, 0)
}
