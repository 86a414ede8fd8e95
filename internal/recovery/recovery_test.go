package recovery

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"squall/internal/slab"
	"squall/internal/types"
	"squall/internal/wire"
)

func sampleCheckpoint() *Checkpoint {
	frameR := wire.EncodeBatch(nil, []types.Tuple{
		{types.Int(1), types.Str("a")},
		{types.Int(2), types.Str("b")},
	})
	frameS := wire.EncodeBatch(nil, []types.Tuple{
		{types.Float(2.5), types.Null()},
	})
	return &Checkpoint{
		Manifest: Manifest{
			Component: "joiner",
			Task:      3,
			Rels:      2,
			Cursors: []Cursor{
				{Stream: "R", FromTask: 0, Seq: 41},
				{Stream: "S", FromTask: 1, Seq: 7},
			},
		},
		Frames: [][][]byte{{frameR}, {frameS}},
		Tuples: 3,
	}
}

func TestManifestRoundTrip(t *testing.T) {
	m := &sampleCheckpoint().Manifest
	enc := AppendManifest(nil, m)
	got, n, err := DecodeManifest(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if n != len(enc) {
		t.Fatalf("consumed %d of %d bytes", n, len(enc))
	}
	if !reflect.DeepEqual(m, got) {
		t.Fatalf("round trip: %+v -> %+v", m, got)
	}
	if got.CursorFor("R", 0) != 41 || got.CursorFor("S", 1) != 7 {
		t.Fatalf("cursor lookup broken: %+v", got.Cursors)
	}
	if got.CursorFor("R", 9) != 0 || got.CursorFor("T", 0) != 0 {
		t.Fatal("missing cursor must read as 0")
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	ck := sampleCheckpoint()
	enc := AppendCheckpoint(nil, ck)
	got, n, err := DecodeCheckpoint(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if n != len(enc) {
		t.Fatalf("consumed %d of %d bytes", n, len(enc))
	}
	if !reflect.DeepEqual(ck, got) {
		t.Fatalf("round trip:\n%+v\n->\n%+v", ck, got)
	}
	// The stored frames must still decode as wire batches.
	tuples, _, err := wire.DecodeBatch(got.Frames[0][0])
	if err != nil || len(tuples) != 2 {
		t.Fatalf("frame decode: %d tuples, %v", len(tuples), err)
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	enc := AppendCheckpoint(nil, sampleCheckpoint())
	if _, _, err := DecodeCheckpoint(enc[:len(enc)-1]); err == nil {
		t.Error("truncated checkpoint must fail")
	}
	if _, _, err := DecodeCheckpoint([]byte("SQMF")); err == nil {
		t.Error("wrong magic must fail")
	}
	bad := append([]byte(nil), enc...)
	bad[4] = 99 // version byte
	if _, _, err := DecodeCheckpoint(bad); err == nil {
		t.Error("unknown version must fail")
	}
	if _, _, err := DecodeManifest(nil); err == nil {
		t.Error("empty manifest must fail")
	}
}

func TestStores(t *testing.T) {
	disk, err := NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for name, store := range map[string]CheckpointStore{"mem": NewMemStore(), "disk": disk} {
		t.Run(name, func(t *testing.T) {
			if _, ok, err := store.Get("joiner", 3); ok || err != nil {
				t.Fatalf("empty store Get = %v, %v", ok, err)
			}
			ck := sampleCheckpoint()
			if err := store.Put("joiner", 3, ck); err != nil {
				t.Fatal(err)
			}
			got, ok, err := store.Get("joiner", 3)
			if err != nil || !ok {
				t.Fatalf("Get = %v, %v", ok, err)
			}
			if !reflect.DeepEqual(ck, got) {
				t.Fatalf("store round trip:\n%+v\n->\n%+v", ck, got)
			}
			// A newer checkpoint replaces the old one.
			ck2 := sampleCheckpoint()
			ck2.Manifest.Cursors[0].Seq = 100
			if err := store.Put("joiner", 3, ck2); err != nil {
				t.Fatal(err)
			}
			got, _, _ = store.Get("joiner", 3)
			if got.Manifest.CursorFor("R", 0) != 100 {
				t.Fatalf("Put did not replace: %+v", got.Manifest)
			}
			// Other tasks are independent keys.
			if _, ok, _ := store.Get("joiner", 0); ok {
				t.Fatal("task 0 must be absent")
			}
		})
	}
}

func sampleV2Checkpoint() *Checkpoint {
	ck := sampleCheckpoint()
	ck.Segments = [][]SegmentRef{
		{
			{Key: "ck-joiner-g1-s0", CRC: 0xdeadbeef, Rows: 64},
			{Key: "ck-joiner-g1-s1", CRC: 0x01020304, Rows: 64},
		},
		{}, // rel with no sealed segments yet
	}
	return ck
}

func TestCheckpointV2RoundTrip(t *testing.T) {
	ck := sampleV2Checkpoint()
	enc := AppendCheckpoint(nil, ck)
	got, n, err := DecodeCheckpoint(enc)
	if err != nil {
		t.Fatalf("decode v2: %v", err)
	}
	if n != len(enc) {
		t.Fatalf("consumed %d of %d bytes", n, len(enc))
	}
	if !reflect.DeepEqual(ck, got) {
		t.Fatalf("v2 round trip:\n%+v\n->\n%+v", ck, got)
	}
	// v1 blobs (no Segments) must keep decoding with nil Segments.
	v1 := sampleCheckpoint()
	got1, _, err := DecodeCheckpoint(AppendCheckpoint(nil, v1))
	if err != nil || got1.Segments != nil {
		t.Fatalf("v1 decode: %v, segments %v", err, got1.Segments)
	}
	// Version 2 carried a dead-row bitmap per segment reference; such a blob
	// must be rejected, not read as today's layout.
	enc[len(checkpointMagic)] = 2
	if _, _, err := DecodeCheckpoint(enc); err == nil || !strings.Contains(err.Error(), "unsupported version 2") {
		t.Fatalf("version-2 blob: err %v, want unsupported version", err)
	}
}

// A torn or bit-flipped checkpoint file must surface a typed corruption
// error, never decode garbage.
func TestDiskStoreDetectsCorruption(t *testing.T) {
	dir := t.TempDir()
	disk, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := disk.Put("joiner", 1, sampleCheckpoint()); err != nil {
		t.Fatal(err)
	}
	path := disk.fileFor("joiner", 1)
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Flip one byte at a time through the payload region.
	for i := len(fileMagic) + 4; i < len(orig); i += 7 {
		bad := append([]byte(nil), orig...)
		bad[i] ^= 0x20
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, err := disk.Get("joiner", 1)
		if err == nil {
			t.Fatalf("flipped byte %d not detected", i)
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("flipped byte %d: error %v is not ErrCorrupt", i, err)
		}
		var ce *CorruptError
		if !errors.As(err, &ce) {
			t.Fatalf("flipped byte %d: error %T is not *CorruptError", i, err)
		}
	}

	// Truncated tails (torn write) must be detected too.
	for _, n := range []int{len(orig) - 1, len(orig) / 2, len(fileMagic) + 2, 3} {
		if err := os.WriteFile(path, orig[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := disk.Get("joiner", 1); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation to %dB: err = %v, want ErrCorrupt", n, err)
		}
	}

	// Restore the intact file: reads succeed again.
	if err := os.WriteFile(path, orig, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := disk.Get("joiner", 1); !ok || err != nil {
		t.Fatalf("intact file rejected: %v, %v", ok, err)
	}

	// A bare checkpoint encoding without the container is not a file Put
	// wrote: it is rejected as corrupt, not decoded.
	if err := os.WriteFile(path, AppendCheckpoint(nil, sampleCheckpoint()), 0o644); err != nil {
		t.Fatal(err)
	}
	var ce *CorruptError
	if _, _, err := disk.Get("joiner", 1); !errors.As(err, &ce) {
		t.Fatalf("uncontainered file: err = %v, want *CorruptError", err)
	}
}

// Checkpoint file names go through one sanitizer: every rune outside
// [A-Za-z0-9_-] becomes '_', so names that differ only in such a rune land
// on the same file, and no name can leave the store directory. Segment keys
// are exact — they index the store's one segment log, which is created
// inside the store directory and removed by Close.
func TestDiskStoreFileNames(t *testing.T) {
	dir := t.TempDir()
	disk, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := disk.fileFor("join/er", 2), disk.fileFor("join:er", 2); a != b || filepath.Base(a) != "join_er-2.ckpt" {
		t.Fatalf("checkpoint files %q and %q, want both join_er-2.ckpt", a, b)
	}
	if p := disk.fileFor("../../x", 0); filepath.Dir(p) != dir {
		t.Fatalf("%q escapes the store directory %q", p, dir)
	}

	// Segments: keys that would sanitize alike stay distinct, and a key
	// shaped like a path names no file.
	puts := map[string]string{"sp-k/1": "blob", "sp-k:1": "other", "../x": "up"}
	for k, v := range puts {
		if err := disk.PutSegment(k, []byte(v)); err != nil {
			t.Fatal(err)
		}
	}
	for k, v := range puts {
		if got, ok, err := disk.GetSegment(k, nil); err != nil || !ok || string(got) != v {
			t.Fatalf("GetSegment(%q) = %q, %v, %v; want %q", k, got, ok, err, v)
		}
	}
	if _, ok, err := disk.GetSegment("sp-k_1", nil); ok || err != nil {
		t.Fatalf("GetSegment(sp-k_1) = %v, %v; want a miss", ok, err)
	}
	logs, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(logs) != 1 || logs[0] != disk.log.Name() || filepath.Dir(logs[0]) != dir {
		t.Fatalf("store directory holds %q, want only the segment log %q", logs, disk.log.Name())
	}
	if _, err := os.Stat(filepath.Join(filepath.Dir(dir), "x")); !os.IsNotExist(err) {
		t.Fatalf("segment key ../x created a file outside the store: %v", err)
	}
	if err := disk.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(logs[0]); !os.IsNotExist(err) {
		t.Fatalf("Close left the segment log behind: %v", err)
	}
	if err := disk.PutSegment("sp-late", []byte("x")); err == nil {
		t.Fatal("PutSegment after Close succeeded")
	}
	if err := disk.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// Both stores implement the slab.SegmentStore methods; verified
// structurally here so the interface satisfaction never regresses. The
// disk store reads into the caller's buffer when it fits; the memory store
// hands back its own copy and leaves the buffer alone.
func TestSegmentStoreMethods(t *testing.T) {
	disk, err := NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { disk.Close() })
	stores := map[string]interface {
		PutSegment(string, []byte) error
		GetSegment(string, []byte) ([]byte, bool, error)
		DeleteSegment(string) error
	}{"mem": NewMemStore(), "disk": disk}
	for name, s := range stores {
		t.Run(name, func(t *testing.T) {
			if _, ok, err := s.GetSegment("sp-a-g1-s0", nil); ok || err != nil {
				t.Fatalf("empty GetSegment = %v, %v", ok, err)
			}
			blob := []byte("segment-bytes-\x00\xff")
			if err := s.PutSegment("sp-a-g1-s0", blob); err != nil {
				t.Fatal(err)
			}
			got, ok, err := s.GetSegment("sp-a-g1-s0", nil)
			if err != nil || !ok || !reflect.DeepEqual(got, blob) {
				t.Fatalf("GetSegment = %q, %v, %v", got, ok, err)
			}
			dst := make([]byte, 0, 64)
			got, ok, err = s.GetSegment("sp-a-g1-s0", dst)
			if err != nil || !ok || !reflect.DeepEqual(got, blob) {
				t.Fatalf("GetSegment into a buffer = %q, %v, %v", got, ok, err)
			}
			if copied := &got[0] == &dst[:1][0]; copied != (name == "disk") {
				t.Fatalf("read into the caller's buffer: %v, want %v", copied, name == "disk")
			}
			if err := s.DeleteSegment("sp-a-g1-s0"); err != nil {
				t.Fatal(err)
			}
			if _, ok, _ := s.GetSegment("sp-a-g1-s0", nil); ok {
				t.Fatal("segment survived delete")
			}
			if err := s.DeleteSegment("never-existed"); err != nil {
				t.Fatalf("deleting a missing segment must be a no-op: %v", err)
			}
		})
	}
}

// A byte flipped inside one key's region of the segment log fails that
// segment's fault-in verification — the tier quarantines it and panics
// *CorruptSegmentError — while every other segment in the same log still
// reads back intact.
func TestSegmentLogCorruptionIsolated(t *testing.T) {
	disk, err := NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { disk.Close() })
	const segRows, segs = 16, 4
	row := func(i int) types.Tuple { return types.Tuple{types.Int(int64(i)), types.Str(fmt.Sprintf("row-%d", i))} }
	a := slab.New()
	a.EnableTier(slab.TierConfig{SegmentRows: segRows, Store: disk, CacheSegments: 1, KeyPrefix: "log"})
	for i := 0; i < segRows*segs; i++ {
		a.AppendEncoded(wire.Encode(nil, row(i)))
	}
	if st := a.TierStats(); st.SpilledSegments != segs {
		t.Fatalf("%d of %d segments spilled", st.SpilledSegments, segs)
	}
	var victim string
	for k := range disk.segs {
		if strings.HasSuffix(k, "-s1") {
			victim = k
		}
	}
	sp := disk.segs[victim]
	b := []byte{0}
	if _, err := disk.log.ReadAt(b, sp.off+int64(sp.n/2)); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x10
	if _, err := disk.log.WriteAt(b, sp.off+int64(sp.n/2)); err != nil {
		t.Fatal(err)
	}

	read := func(r int) (got types.Tuple, ce *slab.CorruptSegmentError) {
		defer func() {
			if p := recover(); p != nil {
				var ok bool
				if ce, ok = p.(*slab.CorruptSegmentError); !ok {
					panic(p)
				}
			}
		}()
		return a.Decode(slab.Ref(r)), nil
	}
	if _, ce := read(segRows + 3); ce == nil || ce.Key != victim || !errors.Is(ce, slab.ErrSegmentCorrupt) {
		t.Fatalf("corrupt segment read: error %v, want *CorruptSegmentError on %s", ce, victim)
	}
	if st := a.TierStats(); st.Quarantined != 1 {
		t.Fatalf("%d segments quarantined, want 1", st.Quarantined)
	}
	if _, ok, _ := disk.GetSegment(victim, nil); ok {
		t.Fatal("the quarantined segment is still in the store")
	}
	for r := 0; r < segRows*segs; r++ {
		if r/segRows == 1 {
			continue
		}
		if got, ce := read(r); ce != nil || got.Compare(row(r)) != 0 {
			t.Fatalf("row %d = %v (%v) after quarantining segment 1", r, got, ce)
		}
	}
}

// DiskStore reads never see a torn or unwritten blob. Checkpoint writes
// replace files by rename; a segment put appends a fresh copy to the log and
// republishes the key only after the write, and no published span is ever
// overwritten. So a read racing any number of writes to the same key
// returns one of the written blobs whole — never an error, a miss or a torn
// mix of two writes — including when it reads into a reused buffer.
func TestDiskStoreReadsRaceWrites(t *testing.T) {
	disk, err := NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { disk.Close() })
	const writes, readers = 100, 2
	// Each reader goroutine runs its own check from newCheck, so a check can
	// keep per-reader state such as a reused buffer.
	race := func(t *testing.T, put func(v int) error, newCheck func() func() error) {
		if err := put(0); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		done := make(chan struct{})
		errs := make(chan error, 2+readers)
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func(v int) {
				defer wg.Done()
				for i := 0; i < writes; i++ {
					if err := put(v); err != nil {
						errs <- err
						return
					}
				}
			}(w)
		}
		var rg sync.WaitGroup
		for r := 0; r < readers; r++ {
			rg.Add(1)
			go func() {
				defer rg.Done()
				check := newCheck()
				for {
					if err := check(); err != nil {
						errs <- err
						return
					}
					select {
					case <-done:
						return
					default:
					}
				}
			}()
		}
		wg.Wait()
		close(done)
		rg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	}

	t.Run("segment", func(t *testing.T) {
		blobs := [][]byte{bytes.Repeat([]byte("a"), 4<<10), bytes.Repeat([]byte("bc"), 9<<10)}
		race(t, func(v int) error { return disk.PutSegment("sp-race", blobs[v]) }, func() func() error {
			var buf []byte
			return func() error {
				got, ok, err := disk.GetSegment("sp-race", buf[:0])
				if err != nil || !ok {
					return fmt.Errorf("GetSegment = ok %v, err %v", ok, err)
				}
				if !bytes.Equal(got, blobs[0]) && !bytes.Equal(got, blobs[1]) {
					return fmt.Errorf("GetSegment returned a %dB blob that was never written", len(got))
				}
				buf = got
				return nil
			}
		})
	})
	t.Run("checkpoint", func(t *testing.T) {
		cks := []*Checkpoint{sampleCheckpoint(), sampleCheckpoint()}
		cks[1].Frames[0] = append(cks[1].Frames[0], bytes.Repeat(cks[1].Frames[0][0], 64))
		cks[1].Tuples = 130
		race(t, func(v int) error { return disk.Put("joiner", 3, cks[v]) }, func() func() error {
			return func() error {
				got, ok, err := disk.Get("joiner", 3)
				if err != nil || !ok {
					return fmt.Errorf("Get = ok %v, err %v", ok, err)
				}
				if !reflect.DeepEqual(got, cks[0]) && !reflect.DeepEqual(got, cks[1]) {
					return fmt.Errorf("Get returned a checkpoint that was never written: %d tuples", got.Tuples)
				}
				return nil
			}
		})
	})
}
