package slab

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"strings"
	"testing"

	"squall/internal/recovery"
	"squall/internal/types"
	"squall/internal/wire"
)

// mapStore is a SegmentStore for tests, with optional fault injection.
type mapStore struct {
	m       map[string][]byte
	puts    int
	corrupt func(key string, blob []byte) []byte // applied at Put
	putErr  error
}

func newMapStore() *mapStore { return &mapStore{m: make(map[string][]byte)} }

func (s *mapStore) PutSegment(key string, blob []byte) error {
	if s.putErr != nil {
		return s.putErr
	}
	s.puts++
	b := append([]byte(nil), blob...)
	if s.corrupt != nil {
		b = s.corrupt(key, b)
	}
	s.m[key] = b
	return nil
}

func (s *mapStore) GetSegment(key string, _ []byte) ([]byte, bool, error) {
	b, ok := s.m[key]
	return b, ok, nil
}

func (s *mapStore) DeleteSegment(key string) error {
	delete(s.m, key)
	return nil
}

func tupleFor(i int) types.Tuple {
	return types.Tuple{
		types.Int(int64(i)),
		types.Str(fmt.Sprintf("row-%d-%s", i, string(make([]byte, 40+i%17)))),
		types.Float(float64(i) * 1.5),
	}
}

// A plain and a tiered arena fed the same rows must agree on refs, Rows and
// every row's bytes while the tiered one seals, spills eagerly and faults
// segments back in through a two-segment cache.
func TestTieredEquivalence(t *testing.T) {
	plain := New()
	tiered := New()
	tiered.EnableTier(TierConfig{SegmentRows: 64, Store: newMapStore(), CacheSegments: 2, KeyPrefix: "eq"})

	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 2000; i++ {
		tup := tupleFor(i)
		r1 := appendTuple(plain, tup)
		r2 := appendTuple(tiered, tup)
		if r1 != r2 {
			t.Fatalf("ref divergence at %d: plain %d tiered %d", i, r1, r2)
		}
		if rng.Intn(3) == 0 { // read an older row mid-stream: faults a spilled segment in
			r := Ref(rng.Intn(i + 1))
			if string(plain.RowBytes(r)) != string(tiered.RowBytes(r)) {
				t.Fatalf("row %d bytes diverge mid-stream", r)
			}
		}
	}
	if plain.Rows() != tiered.Rows() {
		t.Fatalf("rows diverge: plain %d tiered %d", plain.Rows(), tiered.Rows())
	}
	for i := 0; i < plain.Rows(); i++ {
		r := Ref(i)
		if string(plain.RowBytes(r)) != string(tiered.RowBytes(r)) {
			t.Fatalf("row %d bytes diverge", r)
		}
		if want, got := plain.Decode(r), tiered.Decode(r); got.Compare(want) != 0 {
			t.Fatalf("row %d diverges:\nplain  %v\ntiered %v", r, want, got)
		}
	}
	st := tiered.TierStats()
	if st.SealedSegments == 0 || st.SpilledSegments != st.SealedSegments || st.Faults == 0 {
		t.Fatalf("tier never sealed, spilled and faulted: %+v", st)
	}
}

// Eager spill: every sealed segment goes to the store, reads fault them
// back in, residency stays bounded by the cache, and every row survives
// the round trip bit-for-bit.
func TestTierSpillFaultIn(t *testing.T) {
	store := newMapStore()
	a := New()
	a.EnableTier(TierConfig{SegmentRows: 64, Store: store, CacheSegments: 2, KeyPrefix: "t"})

	const n = 1000
	want := make([]types.Tuple, n)
	for i := 0; i < n; i++ {
		want[i] = tupleFor(i)
		appendTuple(a, want[i])
	}
	st := a.TierStats()
	if st.SealedSegments == 0 || st.SpilledSegments != st.SealedSegments {
		t.Fatalf("eager spill incomplete: %+v", st)
	}
	// Random access pattern to exercise cache eviction.
	rng := rand.New(rand.NewSource(7))
	for k := 0; k < 5000; k++ {
		i := rng.Intn(n)
		got := a.Decode(Ref(i))
		if fmt.Sprint(got) != fmt.Sprint(want[i]) {
			t.Fatalf("row %d diverges after spill: %v != %v", i, got, want[i])
		}
	}
	st = a.TierStats()
	if st.Faults == 0 {
		t.Fatal("no segment faults recorded")
	}
	if st.CachedSegments > 2 {
		t.Fatalf("cache over cap: %d cached", st.CachedSegments)
	}
	if a.SpilledBytes() == 0 {
		t.Fatal("SpilledBytes = 0 after spilling")
	}
	// MemSize must be far below the logical state (most payload on disk).
	logical := 0
	for _, tup := range want {
		logical += len(wire.Encode(nil, tup))
	}
	if a.MemSize() >= logical {
		t.Fatalf("MemSize %d not reduced below logical %d", a.MemSize(), logical)
	}
}

// Refs must survive seal + spill + fault-in unchanged (the stable-ref
// contract that lets indexes hold refs without remapping): every ref handed
// out by Append still names its row after the state around it has been
// sealed, spilled under a pressure ladder and faulted back in.
func TestTierStableRefs(t *testing.T) {
	p := NewPressure(32 << 10)
	a := New()
	a.EnableTier(TierConfig{SegmentRows: 100, Store: newMapStore(), Pressure: p, CacheSegments: 2, KeyPrefix: "s"})
	defer a.ReleaseTier()
	var refs []Ref
	for i := 0; i < 1500; i++ {
		r := appendTuple(a, tupleFor(i))
		if int(r) != i {
			t.Fatalf("append %d got ref %d; refs must be dense", i, r)
		}
		refs = append(refs, r)
	}
	if a.Rows() != len(refs) {
		t.Fatalf("Rows = %d, want %d", a.Rows(), len(refs))
	}
	if st := a.TierStats(); st.SpilledSegments == 0 {
		t.Fatalf("nothing spilled: %+v", st)
	}
	// Newest first, then oldest first: both directions fault segments in.
	for pass := 0; pass < 2; pass++ {
		for k := range refs {
			i := k
			if pass == 0 {
				i = len(refs) - 1 - k
			}
			if got := a.Decode(refs[i]); got.Compare(tupleFor(i)) != 0 {
				t.Fatalf("pass %d: ref %d holds %v, want %v", pass, refs[i], got, tupleFor(i))
			}
		}
	}
}

// A corrupted spill blob must quarantine the segment and panic with
// *CorruptSegmentError — never decode garbage into rows.
func TestTierQuarantine(t *testing.T) {
	store := newMapStore()
	store.corrupt = func(key string, blob []byte) []byte {
		blob[len(blob)/2] ^= 0x40
		return blob
	}
	a := New()
	a.EnableTier(TierConfig{SegmentRows: 64, Store: store, KeyPrefix: "q"})
	for i := 0; i < 100; i++ {
		appendTuple(a, tupleFor(i))
	}
	if a.TierStats().SpilledSegments == 0 {
		t.Fatal("nothing spilled")
	}
	func() {
		defer func() {
			r := recover()
			var ce *CorruptSegmentError
			if err, ok := r.(error); !ok || !errors.As(err, &ce) {
				t.Fatalf("recover() = %v, want *CorruptSegmentError", r)
			}
			if !errors.Is(ce, ErrSegmentCorrupt) {
				t.Fatalf("error does not wrap ErrSegmentCorrupt: %v", ce)
			}
		}()
		a.RowBytes(0) // faults in segment 0 → CRC mismatch
		t.Fatal("corrupted read did not panic")
	}()
	st := a.TierStats()
	if st.Quarantined != 1 {
		t.Fatalf("quarantined = %d, want 1", st.Quarantined)
	}
	// The quarantined segment must stay unreadable (no second chance at
	// serving the bad bytes).
	func() {
		defer func() { _ = recover() }()
		a.RowBytes(0)
		t.Fatal("second read of quarantined segment did not panic")
	}()
}

// spilledArena returns an eagerly spilling tiered arena over store holding
// rows row(0..n-1) in segments of segRows rows.
func spilledArena(t testing.TB, store SegmentStore, segRows, cache, n int, row func(int) types.Tuple) *Arena {
	a := New()
	a.EnableTier(TierConfig{SegmentRows: segRows, Store: store, CacheSegments: cache, KeyPrefix: "v"})
	for i := 0; i < n; i++ {
		appendTuple(a, row(i))
	}
	if st := a.TierStats(); st.SpilledSegments != n/segRows {
		t.Fatalf("%d of %d segments spilled", st.SpilledSegments, n/segRows)
	}
	return a
}

// rowBytesOrCorrupt reads ref r, returning the *CorruptSegmentError it
// panics with (nil when the read succeeds). Any other panic propagates.
func rowBytesOrCorrupt(a *Arena, r Ref) (row []byte, ce *CorruptSegmentError) {
	defer func() {
		if p := recover(); p != nil {
			err, ok := p.(error)
			if !ok || !errors.As(err, &ce) {
				panic(p)
			}
		}
	}()
	return a.RowBytes(r), nil
}

// Fault-in accepts only the sealed encoding itself: a blob that differs in
// length, CRC, magic or sealed identity — even one that DecodeSegment would
// accept — quarantines the segment and panics *CorruptSegmentError, with
// the check that caught it named in the error.
func TestFaultInRejectsBlobsOffSealedIdentity(t *testing.T) {
	cases := []struct {
		name string
		mut  func(t *testing.T, sealed []byte) []byte
		want string
	}{
		{"permuted_payload_valid_crc", func(t *testing.T, b []byte) []byte {
			offs, payload, _, err := DecodeSegment(b)
			if err != nil {
				t.Fatalf("sealed blob does not decode: %v", err)
			}
			rot := append(append([]byte(nil), payload[1:]...), payload[0])
			return AppendSegment(nil, offs, rot)
		}, "not the sealed"},
		{"trailing_byte", func(_ *testing.T, b []byte) []byte { return append(append([]byte(nil), b...), 0) }, "sealed encoding"},
		{"truncated_byte", func(_ *testing.T, b []byte) []byte { return append([]byte(nil), b[:len(b)-1]...) }, "sealed encoding"},
		{"bad_magic_valid_crc", func(_ *testing.T, b []byte) []byte {
			body := append([]byte(nil), b[:len(b)-segCRCLen]...)
			body[0] = 'X'
			return binary.LittleEndian.AppendUint32(body, crc32.ChecksumIEEE(body))
		}, "bad magic"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			store := newMapStore()
			a := spilledArena(t, store, 64, 2, 200, tupleFor)
			key := a.t.segs[0].key
			sealed := store.m[key]
			mut := c.mut(t, sealed)
			if string(mut) == string(sealed) {
				t.Fatal("mutation left the sealed blob unchanged")
			}
			store.m[key] = mut
			if _, ce := rowBytesOrCorrupt(a, 0); ce == nil {
				t.Fatal("fault-in accepted a blob off the sealed identity")
			} else if !errors.Is(ce, ErrSegmentCorrupt) || ce.Segment != 0 || !strings.Contains(ce.Error(), c.want) {
				t.Fatalf("panic %v, want segment 0 wrapping ErrSegmentCorrupt from the %q check", ce, c.want)
			}
			if st := a.TierStats(); st.Quarantined != 1 {
				t.Fatalf("quarantined = %d, want 1", st.Quarantined)
			}
			if _, ok := store.m[key]; ok {
				t.Fatal("quarantine left the bad blob in the store")
			}
			// The other segments still fault in and read back intact.
			if got := a.Decode(64); got.Compare(tupleFor(64)) != 0 {
				t.Fatalf("segment 1 row 0 = %v after quarantining segment 0", got)
			}
		})
	}
}

// A steady-state fault-in from an in-memory store allocates nothing: the
// blob is verified in place, the payload aliases it and the resident offset
// table locates rows. The reads cycle through more spilled segments than
// the cache holds, so every read is a fault and an eviction.
func TestFaultInNoAllocSteadyState(t *testing.T) {
	const segRows, segs, cache = 64, 8, 2
	a := spilledArena(t, newMapStore(), segRows, cache, segRows*segs, tupleFor)
	faults := a.TierStats().Faults
	sum := 0
	allocs := testing.AllocsPerRun(50, func() {
		for s := 0; s < segs; s++ {
			sum += len(a.RowBytes(Ref(s*segRows + s)))
		}
	})
	if got := a.TierStats().Faults - faults; got != 51*segs {
		t.Fatalf("%d faults over 51 passes of %d segments; every read must fault", got, segs)
	}
	if sum == 0 {
		t.Fatal("faulted rows are empty")
	}
	if raceEnabled {
		t.Skip("race detector instruments allocations")
	}
	if allocs != 0 {
		t.Fatalf("%.1f allocs per pass of %d faults, want 0", allocs, segs)
	}
}

// newDiskStore returns a DiskStore in a test directory, closed at cleanup.
func newDiskStore(t testing.TB) *recovery.DiskStore {
	ds, err := recovery.NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ds.Close() })
	return ds
}

// parentMemSize is MemSize as it is without a spare fault-in buffer: the hot
// region, every resident segment payload and every offset table.
func parentMemSize(a *Arena) int {
	n := cap(a.buf) + 4*cap(a.offs) + 64
	for _, s := range a.t.segs {
		n += len(s.blob) + 4*(a.t.segRows+1)
	}
	return n
}

// A steady-state fault-in from a copying store (the DiskStore log) allocates
// nothing either: each fault evicts first and reads into the buffer the
// eviction freed. The reads cycle through one segment more than the cache
// holds, so every read is a fault and an eviction.
func TestFaultInDiskStoreNoAllocSteadyState(t *testing.T) {
	const segRows, cache = 64, 2
	const segs = cache + 1
	a := spilledArena(t, newDiskStore(t), segRows, cache, segRows*segs, tupleFor)
	faults := a.TierStats().Faults
	var sum uint64
	allocs := testing.AllocsPerRun(50, func() {
		for s := 0; s < segs; s++ {
			sum += uint64(crc32.ChecksumIEEE(a.RowBytes(Ref(s*segRows + s))))
		}
	})
	if got := a.TierStats().Faults - faults; got != 51*segs {
		t.Fatalf("%d faults over 51 passes of %d segments; every read must fault", got, segs)
	}
	var want uint64
	for s := 0; s < segs; s++ {
		want += uint64(crc32.ChecksumIEEE(wire.Encode(nil, tupleFor(s*segRows+s))))
	}
	if sum != 51*want {
		t.Fatal("rows faulted into recycled buffers read back wrong")
	}
	if a.t.storeServes {
		t.Fatal("the tier took the DiskStore for a store that serves its own bytes")
	}
	if raceEnabled {
		t.Skip("race detector instruments allocations")
	}
	if allocs != 0 {
		t.Fatalf("%.1f allocs per pass of %d faults, want 0", allocs, segs)
	}
}

// Between faults the tier holds no spare buffer, whatever the store: a
// MemStore's blobs are served without a copy, so MemSize after any number
// of faults is exactly the resident payloads plus offset tables; a
// DiskStore's freed buffer is read into by the fault that freed it. At
// Backpressure the cache collapses to one segment and the buffers it frees
// are dropped.
func TestFaultInKeepsNoSpareBuffer(t *testing.T) {
	for _, tc := range []struct {
		name  string
		store func(t *testing.T) SegmentStore
	}{
		{"mem", func(*testing.T) SegmentStore { return recovery.NewMemStore() }},
		{"disk", func(t *testing.T) SegmentStore { return newDiskStore(t) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const segRows, cache, segs = 64, 3, 6
			a := spilledArena(t, tc.store(t), segRows, cache, segRows*segs+10, tupleFor)
			check := func(when string) {
				t.Helper()
				if a.t.spare != nil {
					t.Fatalf("%s: the tier keeps a %dB spare buffer", when, cap(a.t.spare))
				}
				if got, want := a.MemSize(), parentMemSize(a); got != want {
					t.Fatalf("%s: MemSize %d, want %d", when, got, want)
				}
			}
			for i := 0; i < 40; i++ {
				a.RowBytes(Ref(i % segs * segRows))
				check(fmt.Sprintf("after fault %d", i))
			}
			if st := a.TierStats(); st.CachedSegments != cache {
				t.Fatalf("%d segments cached, want %d", st.CachedSegments, cache)
			}
			owned := 0
			for _, s := range a.t.segs {
				if s.buf != nil {
					owned++
				}
			}
			if want := map[string]int{"mem": 0, "disk": cache}[tc.name]; owned != want {
				t.Fatalf("%d tier-owned fault-in buffers, want %d", owned, want)
			}

			// Backpressure: another arena's gauge holds the shared ladder
			// above the watermark.
			p := NewPressure(1 << 30)
			a.t.cfg.Pressure = p
			p.Gauge().set(p.Cap()*95/100, 0, 0)
			if p.Stage() != PressureBackpressure {
				t.Fatalf("stage %v, want backpressure", p.Stage())
			}
			for i := 0; i < 12; i++ {
				a.RowBytes(Ref(i % segs * segRows))
				check(fmt.Sprintf("after backpressure fault %d", i))
				if st := a.TierStats(); st.CachedSegments != 1 {
					t.Fatalf("%d segments cached at backpressure, want 1", st.CachedSegments)
				}
			}
		})
	}
}

// FuzzFaultInVerify substitutes arbitrary bytes for a spilled segment's
// blob. Fault-in must either reject it — panicking *CorruptSegmentError
// wrapping ErrSegmentCorrupt, never anything else — or have been handed the
// sealed encoding byte for byte, in which case every row reads back intact.
// Rows are one small int each, keeping the seed blobs short enough for the
// fuzzer to minimize.
func FuzzFaultInVerify(f *testing.F) {
	const segRows, n = 8, 24
	row := func(i int) types.Tuple { return types.Tuple{types.Int(int64(i))} }
	want := make([][]byte, segRows)
	for i := range want {
		want[i] = wire.Encode(nil, row(i))
	}
	seed := newMapStore()
	for _, s := range spilledArena(f, seed, segRows, 1, n, row).t.segs {
		f.Add(seed.m[s.key])
	}
	f.Fuzz(func(t *testing.T, blob []byte) {
		store := newMapStore()
		a := spilledArena(t, store, segRows, 1, n, row)
		key := a.t.segs[0].key
		sealed := store.m[key]
		store.m[key] = blob
		for i := 0; i < segRows; i++ {
			got, ce := rowBytesOrCorrupt(a, Ref(i))
			if ce != nil {
				if !errors.Is(ce, ErrSegmentCorrupt) {
					t.Fatalf("rejection does not wrap ErrSegmentCorrupt: %v", ce)
				}
				if i != 0 {
					t.Fatalf("row 0 read fine but row %d was rejected: %v", i, ce)
				}
				return
			}
			if string(blob) != string(sealed) {
				t.Fatalf("fault-in accepted a %dB blob that is not the sealed encoding", len(blob))
			}
			if string(got) != string(want[i]) {
				t.Fatalf("row %d reads back altered", i)
			}
		}
	})
}

// Incremental checkpoints: segments persist to the ck store exactly once,
// later calls reference them by key without rewriting.
func TestSealedSegmentCks(t *testing.T) {
	ck := newMapStore()
	a := New()
	a.EnableTier(TierConfig{SegmentRows: 64, CkStore: ck, KeyPrefix: "c"})
	for i := 0; i < 200; i++ {
		appendTuple(a, tupleFor(i))
	}
	cks, err := a.SealedSegmentCks()
	if err != nil {
		t.Fatalf("SealedSegmentCks: %v", err)
	}
	if len(cks) != a.TierStats().SealedSegments {
		t.Fatalf("%d cks for %d segments", len(cks), a.TierStats().SealedSegments)
	}
	firstPuts := ck.puts
	if firstPuts != len(cks) {
		t.Fatalf("%d puts for %d new segments", firstPuts, len(cks))
	}

	for i := 200; i < 280; i++ {
		appendTuple(a, tupleFor(i))
	}
	cks2, err := a.SealedSegmentCks()
	if err != nil {
		t.Fatalf("second SealedSegmentCks: %v", err)
	}
	newSegs := a.TierStats().SealedSegments - len(cks)
	if ck.puts != firstPuts+newSegs {
		t.Fatalf("incremental violated: %d new puts for %d new segments", ck.puts-firstPuts, newSegs)
	}
	// Blobs in the store must decode and match their recorded CRC.
	for _, c := range cks2 {
		blob, ok, err := ck.GetSegment(c.Key, nil)
		if err != nil || !ok {
			t.Fatalf("ck blob %s missing (%v)", c.Key, err)
		}
		_, _, crc, err := DecodeSegment(blob)
		if err != nil || crc != c.CRC {
			t.Fatalf("ck blob %s: decode %v, crc %08x want %08x", c.Key, err, crc, c.CRC)
		}
	}
}

// EachHotFrame covers exactly the rows appended since the last seal (every
// row on a plain arena), blitted byte-identical to EncodeBatch over the same
// tuples, bare or footered. Segments hold exactly SegmentRows rows, so the
// seal count and hot tail follow SegmentRows even when it is not a multiple
// of 64.
func TestEachHotFrameCoversRowsSinceLastSeal(t *testing.T) {
	const n, batch = 250, 16
	for _, segRows := range []int{0, 1, 7, 64, 100} {
		name := fmt.Sprintf("segment_rows_%d", segRows)
		if segRows == 0 {
			name = "plain"
		}
		t.Run(name, func(t *testing.T) {
			a := New()
			if segRows > 0 {
				a.EnableTier(TierConfig{SegmentRows: segRows, KeyPrefix: "h"})
			}
			want := make([]types.Tuple, n)
			for i := range want {
				want[i] = tupleFor(i)
				appendTuple(a, want[i])
			}
			hot := want
			if segRows > 0 {
				if got := a.TierStats().SealedSegments; got != n/segRows {
					t.Fatalf("%d sealed segments, want %d", got, n/segRows)
				}
				hot = want[n/segRows*segRows:]
			}
			for _, footer := range []bool{false, true} {
				rows := 0
				a.EachHotFrame(batch, footer, nil, func(frame []byte, count int) bool {
					exp := wire.EncodeBatch(nil, hot[rows:rows+count])
					if footer {
						exp = wire.AppendFooter(exp)
					}
					if string(frame) != string(exp) {
						t.Fatalf("footer=%v: frame at hot row %d differs from EncodeBatch", footer, rows)
					}
					rows += count
					return true
				})
				if rows != len(hot) {
					t.Fatalf("footer=%v: hot frames carried %d rows, want %d", footer, rows, len(hot))
				}
			}
		})
	}
}

// Spill-store write failures must leave segments resident and counted, not
// lose state (degradation, not data loss).
func TestTierSpillErrorKeepsResident(t *testing.T) {
	store := newMapStore()
	store.putErr = errors.New("disk full")
	a := New()
	a.EnableTier(TierConfig{SegmentRows: 64, Store: store, KeyPrefix: "e"})
	for i := 0; i < 200; i++ {
		appendTuple(a, tupleFor(i))
	}
	st := a.TierStats()
	if st.SpilledSegments != 0 || st.SpillErrors == 0 {
		t.Fatalf("spill errors mishandled: %+v", st)
	}
	for i := 0; i < 200; i++ {
		if fmt.Sprint(a.Decode(Ref(i))) != fmt.Sprint(tupleFor(i)) {
			t.Fatalf("row %d lost after spill errors", i)
		}
	}
}

func TestPressureLadder(t *testing.T) {
	p := NewPressure(1000)
	g := p.Gauge()
	cases := []struct {
		resident int64
		want     PressureStage
	}{
		{0, PressureNormal}, {700, PressureNormal}, {750, PressureSpill},
		{919, PressureSpill}, {920, PressureBackpressure}, {999, PressureBackpressure},
		{1000, PressureReject}, {500, PressureNormal},
	}
	for _, c := range cases {
		g.set(c.resident, 0, 0)
		if got := p.Stage(); got != c.want {
			t.Fatalf("stage at %d/1000 = %v, want %v", c.resident, got, c.want)
		}
	}
	g.set(800, 300, 5)
	g2 := p.Gauge()
	g2.set(100, 50, 2)
	if p.ResidentBytes() != 900 || p.Stats().SpilledBytes != 350 {
		t.Fatalf("multi-gauge totals wrong: %d resident, %d spilled", p.ResidentBytes(), p.Stats().SpilledBytes)
	}
	g.Release()
	g.Release() // idempotent
	if p.ResidentBytes() != 100 || p.Stats().SpilledBytes != 50 {
		t.Fatalf("release refund wrong: %d resident, %d spilled", p.ResidentBytes(), p.Stats().SpilledBytes)
	}
	st := p.Stats()
	if st.Stage != "normal" || st.SealedSegments != 2 {
		t.Fatalf("stats wrong: %+v", st)
	}
	var nilP *Pressure
	if nilP.Stage() != PressureNormal {
		t.Fatal("nil pressure must report Normal")
	}
}

// A tiered arena under a pressure ladder spills only when the ladder says
// so, and spilling brings residency back down.
func TestTierPressureDrivenSpill(t *testing.T) {
	store := newMapStore()
	p := NewPressure(40 << 10)
	a := New()
	a.EnableTier(TierConfig{SegmentRows: 64, Store: store, Pressure: p, CacheSegments: 2, KeyPrefix: "p"})
	for i := 0; i < 4000; i++ {
		appendTuple(a, tupleFor(i))
	}
	st := a.TierStats()
	if st.SpilledSegments == 0 {
		t.Fatalf("pressure never triggered spilling: %+v (pressure %+v)", st, p.Stats())
	}
	if p.Stats().SpilledBytes == 0 {
		t.Fatal("ladder did not observe spilled bytes")
	}
	a.ReleaseTier()
	if p.ResidentBytes() != 0 {
		t.Fatalf("ReleaseTier left %dB charged", p.ResidentBytes())
	}
}
