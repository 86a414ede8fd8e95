package recovery

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

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
			{Key: "ck-joiner-g1-s0", CRC: 0xdeadbeef, Rows: 64, Dead: []uint64{0x5, 0}},
			{Key: "ck-joiner-g1-s1", CRC: 0x01020304, Rows: 64, Dead: []uint64{0, 0}},
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

	// Pre-container (legacy) files still read.
	if err := os.WriteFile(path, AppendCheckpoint(nil, sampleCheckpoint()), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := disk.Get("joiner", 1); !ok || err != nil {
		t.Fatalf("legacy file rejected: %v, %v", ok, err)
	}
}

// Checkpoint and segment file names share one sanitizer: every rune outside
// [A-Za-z0-9_-] becomes '_', so names that differ only in such a rune land
// on the same file, and no name can leave the store directory.
func TestDiskStoreFileNames(t *testing.T) {
	dir := t.TempDir()
	disk, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := disk.fileFor("join/er", 2), disk.fileFor("join:er", 2); a != b || filepath.Base(a) != "join_er-2.ckpt" {
		t.Fatalf("checkpoint files %q and %q, want both join_er-2.ckpt", a, b)
	}
	if a, b := disk.segFileFor("sp-a.b"), disk.segFileFor("sp-aéb"); a != b || filepath.Base(a) != "sp-a_b.seg" {
		t.Fatalf("segment files %q and %q, want both sp-a_b.seg", a, b)
	}
	for _, p := range []string{disk.fileFor("../../x", 0), disk.segFileFor("../x")} {
		if filepath.Dir(p) != dir {
			t.Fatalf("%q escapes the store directory %q", p, dir)
		}
	}
	// Through the store: a segment put under one key reads back under the
	// other.
	if err := disk.PutSegment("sp-k/1", []byte("blob")); err != nil {
		t.Fatal(err)
	}
	if got, ok, err := disk.GetSegment("sp-k:1"); err != nil || !ok || string(got) != "blob" {
		t.Fatalf("GetSegment(sp-k:1) = %q, %v, %v; want the blob put under sp-k/1", got, ok, err)
	}
}

// Both stores implement the slab.SegmentStore methods; verified
// structurally here so the interface satisfaction never regresses.
func TestSegmentStoreMethods(t *testing.T) {
	disk, err := NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	stores := map[string]interface {
		PutSegment(string, []byte) error
		GetSegment(string) ([]byte, bool, error)
		DeleteSegment(string) error
	}{"mem": NewMemStore(), "disk": disk}
	for name, s := range stores {
		t.Run(name, func(t *testing.T) {
			if _, ok, err := s.GetSegment("sp-a-g1-s0"); ok || err != nil {
				t.Fatalf("empty GetSegment = %v, %v", ok, err)
			}
			blob := []byte("segment-bytes-\x00\xff")
			if err := s.PutSegment("sp-a-g1-s0", blob); err != nil {
				t.Fatal(err)
			}
			got, ok, err := s.GetSegment("sp-a-g1-s0")
			if err != nil || !ok || !reflect.DeepEqual(got, blob) {
				t.Fatalf("GetSegment = %q, %v, %v", got, ok, err)
			}
			if err := s.DeleteSegment("sp-a-g1-s0"); err != nil {
				t.Fatal(err)
			}
			if _, ok, _ := s.GetSegment("sp-a-g1-s0"); ok {
				t.Fatal("segment survived delete")
			}
			if err := s.DeleteSegment("never-existed"); err != nil {
				t.Fatalf("deleting a missing segment must be a no-op: %v", err)
			}
		})
	}
}
