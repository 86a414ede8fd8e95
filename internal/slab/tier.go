package slab

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sync/atomic"

	"squall/internal/wire"
)

// Tiered arena state (the memory-pressure survival layer). A tiered arena
// splits its rows into a mutable hot region (the classic buf/offs tail being
// appended to) and a list of sealed segments: append-frozen runs of exactly
// SegmentRows rows each. Sealing never renumbers anything — ref r lives in
// segment r/SegmentRows (or the hot region past the last seal) forever, so
// indexes keep their refs across seals and spills. Sealed segments are:
//
//	hot → sealed → spilled ──→ quarantined
//	                  ↑
//	                  └─ faulted back in (read-through cache)
//
//   - spilled to a SegmentStore in the checksummed segment encoding once
//     memory pressure demands it (or eagerly when no Pressure ladder is
//     attached), dropping the in-RAM payload;
//   - faulted back in on access through a count-capped LRU cache: the tier
//     evicts first, then reads the blob into the buffer the eviction freed
//     (a store that serves its own immutable bytes, like MemStore, is read
//     without a copy). Every read is checked against the segment's
//     seal-time identity (exact encoded length and CRC) and sliced with the
//     resident offset table — a corrupt, torn or substituted segment is
//     quarantined and the access panics with *CorruptSegmentError, which
//     the dataflow recovery plane turns into a checkpoint restore (never
//     fabricated rows).
//
// The tier is opt-in per arena (EnableTier on an empty arena); a plain
// arena is byte-for-byte the single-slab code path.

// tierGen distinguishes arena generations within one process so a reborn
// task's segments never collide with its predecessor's keys in a shared
// store.
var tierGen atomic.Uint64

// SegmentStore persists sealed segments by key. recovery.MemStore and
// recovery.DiskStore implement it structurally; slab declares the interface
// so the state layer stays import-free of the recovery plane.
//
// GetSegment either copies the blob into dst — reusing dst's capacity when
// it holds the blob, so the result aliases dst — or returns bytes the store
// keeps immutable and leaves dst alone. dst may be nil.
type SegmentStore interface {
	PutSegment(key string, blob []byte) error
	GetSegment(key string, dst []byte) (blob []byte, ok bool, err error)
	DeleteSegment(key string) error
}

// TierConfig configures one arena's tier.
type TierConfig struct {
	// SegmentRows is the seal threshold (rows per sealed segment). Default
	// 1024.
	SegmentRows int
	// Store is the spill target. Nil disables spilling: the tier still
	// seals segments but keeps everything resident.
	Store SegmentStore
	// CkStore is the checkpoint domain for incremental checkpoints: sealed
	// segments are persisted here once ("ck-" keys, written before the
	// spill copy so a checkpoint never depends on a spilled blob) and
	// referenced by key+CRC from later checkpoints instead of being
	// re-exported as frames. Nil disables incremental checkpoints.
	CkStore SegmentStore
	// CacheSegments caps how many spilled segments may be held faulted-in
	// at once (read-through LRU). Default 4. A fault evicts before it reads,
	// so a copying store reads into the buffer the eviction freed: the tier
	// never holds more than CacheSegments fault-in buffers, and MemSize
	// counts the one it holds between an eviction and the read.
	CacheSegments int
	// Pressure, when set, drives spilling: segments spill coldest-first
	// only while the ladder is at PressureSpill or above. When nil and
	// Store is set, every segment spills eagerly at seal.
	Pressure *Pressure
	// KeyPrefix namespaces this arena's segment keys in the stores.
	KeyPrefix string
}

// CorruptSegmentError is the panic payload raised when a spilled segment
// fails CRC verification (or vanished) on fault-in. The dataflow layer
// captures it like any task panic and restores the operator through the
// recovery plane; the segment itself is quarantined first so the bad bytes
// are never served.
type CorruptSegmentError struct {
	Key     string // spill-store key of the bad segment
	Segment int    // segment index within its arena
	Err     error
}

func (e *CorruptSegmentError) Error() string {
	return fmt.Sprintf("slab: segment %d (%s) corrupt: %v", e.Segment, e.Key, e.Err)
}

func (e *CorruptSegmentError) Unwrap() error { return e.Err }

// SegmentCk references one sealed segment from an incremental checkpoint:
// the blob lives in the checkpoint store under Key (written once, at seal
// persistence).
type SegmentCk struct {
	Key  string
	CRC  uint32
	Rows int
	// Deprecated: Dead is always nil and no checkpoint encodes it; it stays
	// only while bench/replay.go copies it (ROADMAP item 20 deletes both).
	Dead []uint64
}

// TierStats snapshots one tiered arena (tests, bench, debugging).
type TierStats struct {
	SealedSegments  int
	SpilledSegments int
	CachedSegments  int
	Quarantined     int
	Spills          int64
	Faults          int64
	SpillErrors     int64
	ResidentBytes   int64
	SpilledBytes    int64
}

// segment is one append-frozen run of segRows rows. offs stays resident
// always (4*(segRows+1) bytes — the ref→span map); blob is the packed row
// payload and is nil while spilled and uncached.
type segment struct {
	offs        []uint32 // segRows+1 local offsets
	blob        []byte   // row payload; nil when spilled and not faulted in
	buf         []byte   // the tier-owned fault-in buffer blob aliases, if any
	crc         uint32   // CRC of the spilled encoding (set at spill)
	encLen      int      // byte length of the spilled encoding (set at spill)
	spilled     bool     // a verified copy lives in cfg.Store under key
	key         string   // spill-store key
	persisted   bool     // a copy lives in cfg.CkStore under ckKey
	ckKey       string
	ckCRC       uint32
	quarantined bool   // failed CRC on fault-in; never served again
	tick        uint64 // last access (spill/evict pick the minimum)
}

type tier struct {
	cfg     TierConfig
	segRows int
	segs    []*segment
	gauge   *PressureGauge
	keyBase string

	residentBlobBytes int64 // payload bytes of segments currently in RAM
	spilledPayload    int64 // payload bytes of segments with a spill copy
	cached            int   // spilled segments currently faulted in
	appends           int   // amortization counter for maintenance from Append
	spills            int64
	faults            int64
	spillErrors       int64
	quarantined       int
	tick              uint64

	// spare is the fault-in buffer the last eviction freed, waiting for the
	// read that follows it (counted in MemSize). maxEnc is the largest
	// spilled encoding, so every new buffer fits every spilled segment.
	// storeServes records that the store answered with its own bytes: it
	// does not copy, so it is never offered a buffer again.
	spare       []byte
	maxEnc      int
	storeServes bool
}

// EnableTier converts an empty arena to tiered operation. Panics if the
// arena already holds rows or is already tiered.
func (a *Arena) EnableTier(cfg TierConfig) {
	if a.t != nil {
		panic("slab: tier already enabled")
	}
	if len(a.offs) != 0 {
		panic("slab: EnableTier on a non-empty arena")
	}
	if cfg.SegmentRows <= 0 {
		cfg.SegmentRows = 1024
	}
	if cfg.CacheSegments <= 0 {
		cfg.CacheSegments = 4
	}
	if cfg.KeyPrefix == "" {
		cfg.KeyPrefix = "arena"
	}
	a.t = &tier{
		cfg:     cfg,
		segRows: cfg.SegmentRows,
		gauge:   cfg.Pressure.Gauge(),
		keyBase: fmt.Sprintf("%s-g%d", cfg.KeyPrefix, tierGen.Add(1)),
	}
}

// HasCkStore reports whether the arena is tiered with a checkpoint store,
// the condition under which SealedSegmentCks can export it.
func (a *Arena) HasCkStore() bool { return a.t != nil && a.t.cfg.CkStore != nil }

// SpilledBytes reports payload bytes with a spill copy on disk (0 for a
// plain arena).
func (a *Arena) SpilledBytes() int {
	if a.t == nil {
		return 0
	}
	return int(a.t.spilledPayload)
}

// FaultSpan is the number of consecutive refs that share one fault-in —
// the tier's SegmentRows — once any sealed segment has spilled, and 0 while
// every row is resident (a plain arena, or a tier that never spilled), when
// the order rows are read in costs nothing. Refs r and r' fault together
// exactly when r/FaultSpan == r'/FaultSpan.
func (a *Arena) FaultSpan() int {
	if a.t == nil || a.t.spilledPayload == 0 {
		return 0
	}
	return a.t.segRows
}

// TierStats snapshots the tier (zero value for a plain arena).
func (a *Arena) TierStats() TierStats {
	t := a.t
	if t == nil {
		return TierStats{}
	}
	st := TierStats{
		SealedSegments: len(t.segs),
		CachedSegments: t.cached,
		Quarantined:    t.quarantined,
		Spills:         t.spills,
		Faults:         t.faults,
		SpillErrors:    t.spillErrors,
		ResidentBytes:  int64(a.MemSize()),
		SpilledBytes:   t.spilledPayload,
	}
	for _, s := range t.segs {
		if s.spilled {
			st.SpilledSegments++
		}
	}
	return st
}

// ReleaseTier refunds the arena's pressure-gauge charges (task reborn,
// reshaped or finished). No-op on a plain arena; safe to call twice.
func (a *Arena) ReleaseTier() {
	if a.t != nil {
		a.t.gauge.Release()
	}
}

// hotBase returns the first hot (unsealed) ref.
func (t *tier) hotBase() int { return len(t.segs) * t.segRows }

func (t *tier) nextTick() uint64 {
	t.tick++
	return t.tick
}

// afterAppend runs the tier's per-append bookkeeping: seal when the hot
// region fills, plus an amortized maintenance step.
func (t *tier) afterAppend(a *Arena) {
	if len(a.offs) >= t.segRows {
		t.seal(a)
	}
	t.appends++
	if t.appends&15 == 0 {
		t.maintain(a)
	}
}

// seal freezes the hot region into a new segment. The hot buf becomes the
// segment payload (ownership transfer, no copy); refs are unchanged.
func (t *tier) seal(a *Arena) {
	n := len(a.offs) // == segRows
	offs := make([]uint32, n+1)
	copy(offs, a.offs)
	offs[n] = uint32(len(a.buf))
	seg := &segment{
		offs: offs,
		blob: a.buf,
		tick: t.nextTick(),
	}
	t.segs = append(t.segs, seg)
	t.residentBlobBytes += int64(len(seg.blob))
	a.buf = nil
	a.offs = a.offs[:0]
	if t.cfg.Store != nil && t.cfg.Pressure == nil {
		// No ladder: spill eagerly so memory stays bounded by the cache.
		t.spillSeg(a, len(t.segs)-1)
	}
	t.syncGauge(a)
}

// maintain is one spill-ladder step plus a gauge sync.
func (t *tier) maintain(a *Arena) {
	t.spillStep(a)
	t.syncGauge(a)
}

// spillStep spills at most one cold segment when the ladder (or eager
// mode) asks for it.
func (t *tier) spillStep(a *Arena) {
	if t.cfg.Store == nil {
		return
	}
	if t.cfg.Pressure != nil && t.cfg.Pressure.Stage() < PressureSpill {
		return
	}
	victim := -1
	var vt uint64
	for i, s := range t.segs {
		if !s.spilled && !s.quarantined && s.blob != nil && (victim < 0 || s.tick < vt) {
			victim, vt = i, s.tick
		}
	}
	if victim >= 0 {
		t.spillSeg(a, victim)
	}
}

// spillSeg writes one sealed segment to the spill store and drops its
// resident payload. When a checkpoint store is attached the durable "ck-"
// copy is written first (once per segment), so a later checkpoint can
// reference the segment by key without ever reading the spill copy — the
// spill and checkpoint domains fail independently. A failed write leaves
// the segment resident (counted in SpillErrors); the ladder escalates to
// backpressure instead of losing state.
func (t *tier) spillSeg(a *Arena, si int) {
	seg := t.segs[si]
	enc := AppendSegment(nil, seg.offs, seg.blob)
	crc := binary.LittleEndian.Uint32(enc[len(enc)-segCRCLen:])
	if t.cfg.CkStore != nil && !seg.persisted {
		ckKey := fmt.Sprintf("ck-%s-s%d", t.keyBase, si)
		if err := t.cfg.CkStore.PutSegment(ckKey, enc); err != nil {
			t.spillErrors++
			t.cfg.Pressure.noteSpillError()
			return
		}
		seg.persisted, seg.ckKey, seg.ckCRC = true, ckKey, crc
	}
	key := fmt.Sprintf("sp-%s-s%d", t.keyBase, si)
	if err := t.cfg.Store.PutSegment(key, enc); err != nil {
		t.spillErrors++
		t.cfg.Pressure.noteSpillError()
		return
	}
	seg.spilled, seg.key, seg.crc, seg.encLen = true, key, crc, len(enc)
	t.maxEnc = max(t.maxEnc, len(enc))
	t.residentBlobBytes -= int64(len(seg.blob))
	t.spilledPayload += int64(len(seg.blob))
	seg.blob = nil
	t.spills++
	t.cfg.Pressure.noteSpill()
}

// rowBytes resolves one ref in tiered mode, faulting its segment in when
// spilled.
func (t *tier) rowBytes(a *Arena, r Ref) []byte {
	hb := t.hotBase()
	if int(r) >= hb {
		i := int(r) - hb
		if i >= len(a.offs) {
			panic(fmt.Sprintf("slab: ref %d out of range (%d rows)", r, hb+len(a.offs)))
		}
		start := int(a.offs[i])
		end := len(a.buf)
		if i+1 < len(a.offs) {
			end = int(a.offs[i+1])
		}
		return a.buf[start:end]
	}
	seg := t.ensureBlob(a, int(r)/t.segRows)
	i := int(r) % t.segRows
	return seg.blob[seg.offs[i]:seg.offs[i+1]]
}

// ensureBlob returns the segment with its payload resident, faulting it in
// from the spill store (verified against its seal-time identity) if needed.
// A corrupt, missing or mismatched blob quarantines the segment and panics
// *CorruptSegmentError.
func (t *tier) ensureBlob(a *Arena, si int) *segment {
	seg := t.segs[si]
	seg.tick = t.nextTick()
	if seg.blob != nil {
		return seg
	}
	if seg.quarantined {
		panic(&CorruptSegmentError{Key: seg.key, Segment: si,
			Err: fmt.Errorf("%w: already quarantined", ErrSegmentCorrupt)})
	}
	t.evictFor(a)
	blob, err := t.fetch(seg)
	var payload []byte
	if err == nil {
		payload, err = seg.verify(blob)
	}
	if err != nil {
		t.quarantine(a, si, err) // panics
	}
	seg.blob = payload
	t.residentBlobBytes += int64(len(payload))
	t.cached++
	t.faults++
	t.cfg.Pressure.noteFault()
	t.syncGauge(a)
	return seg
}

// fetch reads seg's spilled encoding. Unless the store has shown that it
// serves its own bytes, the read goes into the spare buffer, or into a
// fresh one sized for the largest spilled encoding; a blob that lands in
// that buffer makes it seg's to hand back at eviction.
func (t *tier) fetch(seg *segment) ([]byte, error) {
	var dst []byte
	if !t.storeServes {
		dst, t.spare = t.spare, nil
		if cap(dst) < seg.encLen {
			dst = make([]byte, 0, t.maxEnc)
		}
	}
	blob, ok, err := t.cfg.Store.GetSegment(seg.key, dst[:0])
	if err == nil && !ok {
		err = fmt.Errorf("%w: spilled segment missing from store", ErrSegmentCorrupt)
	}
	if err != nil {
		return nil, err
	}
	switch {
	case dst == nil: // a store known to serve its own bytes
	case len(blob) > 0 && &blob[0] == &dst[:1][0]:
		seg.buf = dst
	default:
		t.storeServes = true
	}
	return blob, nil
}

// verify checks a fetched spill blob against the segment's seal-time
// identity and returns its row payload, aliasing blob. The blob must have
// exactly the spilled encoding's length, a trailer CRC matching both a fresh
// CRC of the body and the CRC recorded at spill, and the codec's magic and
// version. The span header is not re-parsed: a blob of the sealed length
// and CRC is the sealed encoding, whose spans the resident offset table
// already holds, so the payload is the body's last offs[nrows] bytes.
func (seg *segment) verify(blob []byte) ([]byte, error) {
	if len(blob) != seg.encLen {
		return nil, fmt.Errorf("%w: blob is %dB, sealed encoding %dB", ErrSegmentCorrupt, len(blob), seg.encLen)
	}
	body := blob[:len(blob)-segCRCLen]
	crc := binary.LittleEndian.Uint32(blob[len(body):])
	if crc32.ChecksumIEEE(body) != crc {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrSegmentCorrupt)
	}
	if string(body[:len(segMagic)]) != segMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrSegmentCorrupt)
	}
	if body[len(segMagic)] != segVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrSegmentCorrupt, body[len(segMagic)])
	}
	if crc != seg.crc {
		return nil, fmt.Errorf("%w: checksum %08x is not the sealed %08x", ErrSegmentCorrupt, crc, seg.crc)
	}
	return body[len(body)-int(seg.offs[len(seg.offs)-1]):], nil
}

// evictFor makes room in the fault-in cache for one more segment by
// dropping the coldest cached spilled payloads (already durable on disk,
// immutable once spilled). A dropped payload's tier-owned buffer becomes the
// spare the following read fills; when one fault evicts several, the others
// are dropped. Once the ladder reaches Backpressure the cache is the only
// resident pool the tier can still shrink — probes keep faulting segments
// in regardless of throttled sources — so the budget collapses to a single
// cached segment until residency drops back under the watermark.
func (t *tier) evictFor(a *Arena) {
	limit := t.cfg.CacheSegments
	if t.cfg.Pressure != nil && t.cfg.Pressure.Stage() >= PressureBackpressure {
		limit = 1
	}
	for t.cached >= limit {
		victim := -1
		var vt uint64
		for i, s := range t.segs {
			if s.spilled && s.blob != nil && (victim < 0 || s.tick < vt) {
				victim, vt = i, s.tick
			}
		}
		if victim < 0 {
			return
		}
		s := t.segs[victim]
		t.residentBlobBytes -= int64(len(s.blob))
		if t.spare == nil {
			t.spare = s.buf
		}
		s.blob, s.buf = nil, nil
		t.cached--
	}
}

// quarantine marks a segment unreadable, deletes its (bad) spill copy
// best-effort and panics *CorruptSegmentError so the recovery plane
// restores the operator from checkpoint — corrupt bytes are never decoded
// into rows.
func (t *tier) quarantine(a *Arena, si int, cause error) {
	seg := t.segs[si]
	seg.quarantined = true
	t.quarantined++
	if seg.key != "" {
		_ = t.cfg.Store.DeleteSegment(seg.key)
	}
	t.cfg.Pressure.noteQuarantine()
	t.syncGauge(a)
	panic(&CorruptSegmentError{Key: seg.key, Segment: si, Err: cause})
}

// syncGauge folds the arena's current footprint into the pressure ladder.
func (t *tier) syncGauge(a *Arena) {
	if t.gauge == nil {
		return
	}
	t.gauge.set(int64(a.MemSize()), t.spilledPayload, int64(len(t.segs)))
}

// SealedSegmentCks persists every not-yet-persisted sealed segment to the
// tier's checkpoint store and returns one SegmentCk per sealed segment:
// the incremental-checkpoint manifest. Segments persisted by an earlier
// call (or at spill time) are referenced without being rewritten — the
// incremental property.
func (a *Arena) SealedSegmentCks() ([]SegmentCk, error) {
	t := a.t
	if t == nil {
		return nil, errors.New("slab: SealedSegmentCks on a plain arena")
	}
	if t.cfg.CkStore == nil {
		return nil, errors.New("slab: tier has no checkpoint store")
	}
	out := make([]SegmentCk, 0, len(t.segs))
	for si, seg := range t.segs {
		if !seg.persisted {
			// Unpersisted ⇒ never spilled ⇒ payload resident.
			enc := AppendSegment(nil, seg.offs, seg.blob)
			crc := binary.LittleEndian.Uint32(enc[len(enc)-segCRCLen:])
			ckKey := fmt.Sprintf("ck-%s-s%d", t.keyBase, si)
			if err := t.cfg.CkStore.PutSegment(ckKey, enc); err != nil {
				return nil, fmt.Errorf("slab: persist segment %d: %w", si, err)
			}
			seg.persisted, seg.ckKey, seg.ckCRC = true, ckKey, crc
		}
		out = append(out, SegmentCk{Key: seg.ckKey, CRC: seg.ckCRC, Rows: t.segRows})
	}
	return out, nil
}

// EachHotFrame is EachFrame restricted to the hot (unsealed) region — the
// incremental checkpoint's delta since the last seal. footer selects the
// column-offset footer variant. On a plain arena it covers every row.
func (a *Arena) EachHotFrame(batchSize int, footer bool, scratch []byte, visit func(frame []byte, count int) bool) {
	emit := visit
	if footer {
		emit = func(frame []byte, count int) bool {
			return visit(wire.AppendFooter(frame), count)
		}
	}
	hb := 0
	if a.t != nil {
		hb = a.t.hotBase()
	}
	a.framesFrom(hb, batchSize, scratch, emit)
}

// SpillReporter is implemented by operator state that can distinguish
// resident from spilled bytes (the tenant-accounting hook).
type SpillReporter interface {
	SpilledBytes() int
}

// Pressure counter hooks (nil-safe so an unladdered tier costs nothing).

func (p *Pressure) noteSpill() {
	if p != nil {
		p.spills.Add(1)
	}
}

func (p *Pressure) noteFault() {
	if p != nil {
		p.faults.Add(1)
	}
}

func (p *Pressure) noteSpillError() {
	if p != nil {
		p.spillErrors.Add(1)
	}
}

func (p *Pressure) noteQuarantine() {
	if p != nil {
		p.quarantined.Add(1)
	}
}
