package recovery

import (
	"reflect"
	"testing"
)

// FuzzDecodeCheckpoint: the checkpoint decoder must never panic, and
// whatever it accepts must survive a canonical re-encode/re-decode cycle
// (mirrors the internal/wire fuzzers; varints admit non-canonical
// encodings, so byte-level comparison against the input is deliberately
// avoided). The manifest is inline in the checkpoint, so this covers it.
func FuzzDecodeCheckpoint(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("SQCK"))
	f.Add([]byte{'S', 'Q', 'C', 'K', checkpointVersion, 0, 0, 0, 0, 0})
	f.Add(AppendCheckpoint(nil, &Checkpoint{}))
	f.Add(AppendCheckpoint(nil, &Checkpoint{
		Manifest: Manifest{Component: "j", Task: 1, Rels: 2,
			Cursors: []Cursor{{Stream: "S", FromTask: 0, Seq: 5}}},
		Frames: [][][]byte{{{1, 2, 3}}, {}},
		Tuples: 7,
	}))
	f.Add(AppendCheckpoint(nil, &Checkpoint{
		Manifest: Manifest{Component: "j", Rels: 2},
		Frames:   [][][]byte{{{9}}},
		Segments: [][]SegmentRef{nil, {{Key: "k", CRC: 3, Rows: 1}}},
	}))
	f.Fuzz(func(t *testing.T, data []byte) {
		ck, n, err := DecodeCheckpoint(data)
		if err != nil {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("DecodeCheckpoint consumed %d of %d bytes", n, len(data))
		}
		re := AppendCheckpoint(nil, ck)
		ck2, n2, err := DecodeCheckpoint(re)
		if err != nil {
			t.Fatalf("re-decode of canonical encoding failed: %v", err)
		}
		if n2 != len(re) || !checkpointEq(ck, ck2) {
			t.Fatalf("canonical round trip: %+v -> %+v", ck, ck2)
		}
	})
}

// manifestEq treats nil and empty cursor slices as equal (decode of a
// zero-count manifest yields an empty, non-nil slice).
func manifestEq(a, b *Manifest) bool {
	if a.Component != b.Component || a.Task != b.Task || a.Rels != b.Rels || len(a.Cursors) != len(b.Cursors) {
		return false
	}
	for i := range a.Cursors {
		if a.Cursors[i] != b.Cursors[i] {
			return false
		}
	}
	return true
}

func checkpointEq(a, b *Checkpoint) bool {
	if !manifestEq(&a.Manifest, &b.Manifest) || a.Tuples != b.Tuples ||
		len(a.Frames) != len(b.Frames) || len(a.Segments) != len(b.Segments) {
		return false
	}
	for r := range a.Frames {
		if len(a.Frames[r]) != len(b.Frames[r]) {
			return false
		}
		for i := range a.Frames[r] {
			if !reflect.DeepEqual(a.Frames[r][i], b.Frames[r][i]) {
				return false
			}
		}
	}
	for r := range a.Segments {
		if len(a.Segments[r]) != len(b.Segments[r]) {
			return false
		}
		for i := range a.Segments[r] {
			if !reflect.DeepEqual(a.Segments[r][i], b.Segments[r][i]) {
				return false
			}
		}
	}
	return true
}
