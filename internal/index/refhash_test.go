package index

import (
	"fmt"
	"math/rand"
	"testing"
)

func TestRefHashInsertLookup(t *testing.T) {
	h := NewRefHash()
	h.Insert(10, 1)
	h.Insert(10, 2)
	h.Insert(99, 3)
	refs := h.AppendRefs(nil, 10)
	if len(refs) != 2 || refs[0] != 2 || refs[1] != 1 {
		t.Fatalf("AppendRefs(10) = %v, want [2 1] (most recent first)", refs)
	}
	if got := h.AppendRefs(nil, 7); len(got) != 0 {
		t.Fatalf("AppendRefs(7) = %v", got)
	}
	if got := h.AppendRefs(nil, 99); len(got) != 1 || got[0] != 3 {
		t.Fatalf("AppendRefs(99) = %v", got)
	}
	if h.Len() != 3 || h.Keys() != 2 {
		t.Fatalf("Len=%d Keys=%d", h.Len(), h.Keys())
	}
}

// TestRefHashAgainstReferenceModel drives random inserts against a
// map-of-slices oracle, including adversarial hashes that collide on the
// low bits (same initial probe slot), and checks every key after each
// rehash as the table grows from 8 to at least 2^16 slots.
func TestRefHashAgainstReferenceModel(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	h := NewRefHash()
	ref := map[uint64][]uint32{}
	total := 0
	scratch := make([]uint32, 0, 64)
	check := func(when string) {
		t.Helper()
		for k, want := range ref {
			got := h.AppendRefs(scratch[:0], k)
			if len(got) != len(want) {
				t.Fatalf("%s: hash %#x has %d refs, model %d", when, k, len(got), len(want))
			}
			// Postings come back most recent first.
			for i, v := range got {
				if v != want[len(want)-1-i] {
					t.Fatalf("%s: hash %#x posting %d = %d, model %d", when, k, i, v, want[len(want)-1-i])
				}
			}
		}
		if h.Len() != total || h.Keys() != len(ref) {
			t.Fatalf("%s: Len=%d Keys=%d, model %d/%d", when, h.Len(), h.Keys(), total, len(ref))
		}
		for i := 0; i < 64; i++ {
			// Model keys never set bit 63.
			if k := r.Uint64() | 1<<63; len(h.AppendRefs(scratch[:0], k)) != 0 {
				t.Fatalf("%s: absent hash %#x has refs", when, k)
			}
		}
	}
	insert := func(k uint64) {
		v := uint32(r.Intn(1 << 20))
		slots := len(h.slots)
		h.Insert(k, v)
		ref[k] = append(ref[k], v)
		total++
		if slots != 0 && len(h.slots) != slots {
			check(fmt.Sprintf("after growth to %d slots", len(h.slots)))
		}
	}
	// Hot keys sharing their low bits: adjacent probe chains collide hard
	// and every key carries a posting chain.
	hot := make([]uint64, 40)
	for i := range hot {
		hot[i] = uint64(i%8) | uint64(i)<<32
	}
	for op := 0; op < 20000; op++ {
		insert(hot[r.Intn(len(hot))])
	}
	// Then enough distinct keys to push the table past 2^16 slots.
	for len(h.slots) < 1<<16 {
		insert(r.Uint64() &^ (1 << 63))
	}
	check("final")
}

func TestRefHashEachEarlyStop(t *testing.T) {
	h := NewRefHash()
	for i := 0; i < 10; i++ {
		h.Insert(5, uint32(i))
	}
	seen := 0
	h.Each(5, func(uint32) bool { seen++; return seen < 4 })
	if seen != 4 {
		t.Fatalf("early stop visited %d", seen)
	}
}

// With no tombstones a probe chain ends only at an empty slot, so the table
// must never fill: it doubles once distinct keys reach 3/4 of the slots, and
// postings under an existing key never grow it.
func TestRefHashLoadFactor(t *testing.T) {
	t.Run("distinct_keys", func(t *testing.T) {
		h := NewRefHash()
		for i := 0; i < 5000; i++ {
			before := len(h.slots)
			h.Insert(uint64(i)<<3, uint32(i)) // shared low bits: long chains
			if before != 0 && 4*(h.Keys()-1) >= 3*before && len(h.slots) != 2*before {
				t.Fatalf("key %d: %d slots at %d keys, want growth to %d", i, len(h.slots), h.Keys()-1, 2*before)
			}
			if 4*(h.Keys()-1) >= 3*len(h.slots) {
				t.Fatalf("key %d: %d keys in %d slots exceeds 3/4 load", i, h.Keys(), len(h.slots))
			}
		}
		// An absent key's probe must reach an empty slot and stop.
		if got := h.AppendRefs(nil, 1); len(got) != 0 {
			t.Fatalf("absent key has refs %v", got)
		}
	})
	t.Run("postings_under_one_key", func(t *testing.T) {
		h := NewRefHash()
		for i := 0; i < 5000; i++ {
			h.Insert(42, uint32(i))
		}
		if len(h.slots) != 8 || h.Keys() != 1 || h.Len() != 5000 {
			t.Fatalf("%d slots, %d keys, %d refs; want 8, 1, 5000", len(h.slots), h.Keys(), h.Len())
		}
	})
}

func TestRefHashMemSizeGrows(t *testing.T) {
	h := NewRefHash()
	before := h.MemSize()
	for i := 0; i < 1000; i++ {
		h.Insert(uint64(i), uint32(i))
	}
	if h.MemSize() <= before {
		t.Error("MemSize must grow")
	}
	if per := float64(h.MemSize()-before) / 1000; per > 64 {
		t.Errorf("%.1f bytes per posting; compactness lost", per)
	}
}

// BenchmarkRefHashInsertProbe measures the hot multimap path with zero
// allocations per operation (amortized growth aside).
func BenchmarkRefHashInsertProbe(b *testing.B) {
	h := NewRefHash()
	for i := 0; i < 1<<16; i++ {
		h.Insert(uint64(i*2654435761), uint32(i))
	}
	scratch := make([]uint32, 0, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scratch = h.AppendRefs(scratch[:0], uint64(i%(1<<16))*2654435761)
	}
	_ = scratch
}
