// Package index provides the in-memory indexes Squall's local join operators
// build on the fly (§3.3): hash indexes over row refs for equi-join keys and
// balanced binary trees for band/inequality keys. The tree is augmented with
// subtree aggregates (count and weight sum) so range aggregates run in
// O(log n), which is what DBToaster-style views need for non-equi boundaries.
package index

// RefHash is the open-addressing multimap backing slab-based operator state:
// it maps a 64-bit key hash to the 32-bit row refs carrying that key. The
// key itself is never materialized — callers hash the canonical key identity
// (types.Value.Hash / types.Tuple.Hash, which already make Int(2) and
// Float(2.0) collide, or a hash of canonical key bytes) and verify candidates
// against stored rows where exactness matters. Slots live in one flat array
// probed linearly and hold each key's most recent ref inline, so a key with
// one ref — every key of a unique index — is read without touching the
// posting pool; older refs live in one flat pool threaded as per-key linked
// lists with a free list, so the whole index is two slices the GC never
// walks per-entry.
type RefHash struct {
	slots []refSlot
	posts []refPost
	free  int32 // head of the freed-posting list, -1 when empty
	n     int   // live postings (stored refs)
	keys  int   // occupied slots (distinct live hashes)
	tombs int   // tombstoned slots awaiting rehash
}

// refSlot is one open-addressing slot. link encodes the slot state: 0 means
// empty (end of probe chain), -1 a tombstone (deleted key; probing continues
// past it), and link >= 1 an occupied slot whose key's most recent ref is
// ref, with its older refs chained from posting link-2 (none when link is 1).
type refSlot struct {
	hash uint64
	ref  uint32
	link int32
}

const tombstone = -1

// refPost is one posting: a stored ref and the pool index of the next
// posting under the same key (-1 terminates).
type refPost struct {
	ref  uint32
	next int32
}

// NewRefHash returns an empty multimap.
func NewRefHash() *RefHash {
	return &RefHash{free: -1}
}

// findSlot locates the slot for hash: the occupied slot holding it, or the
// first reusable (empty or tombstone) slot on its probe chain.
func (h *RefHash) findSlot(hash uint64) int {
	mask := uint64(len(h.slots) - 1)
	i := hash & mask
	firstFree := -1
	for {
		s := &h.slots[i]
		switch {
		case s.link == 0: // empty: hash is absent
			if firstFree >= 0 {
				return firstFree
			}
			return int(i)
		case s.link == tombstone:
			if firstFree < 0 {
				firstFree = int(i)
			}
		case s.hash == hash:
			return int(i)
		}
		i = (i + 1) & mask
	}
}

// grow rehashes into a table of the given slot count (power of two),
// dropping tombstones.
func (h *RefHash) grow(newSize int) {
	old := h.slots
	h.slots = make([]refSlot, newSize)
	h.tombs = 0
	mask := uint64(newSize - 1)
	for _, s := range old {
		if s.link <= 0 {
			continue
		}
		i := s.hash & mask
		for h.slots[i].link != 0 {
			i = (i + 1) & mask
		}
		h.slots[i] = s
	}
}

// Insert stores ref under hash. Duplicate refs under one hash are kept (it
// is a multimap; the caller's rows are distinct).
func (h *RefHash) Insert(hash uint64, ref uint32) {
	if len(h.slots) == 0 {
		h.slots = make([]refSlot, 8)
	} else if 4*(h.keys+h.tombs) >= 3*len(h.slots) {
		size := len(h.slots)
		if 2*h.keys >= size { // genuinely full, not tombstone-clogged
			size *= 2
		}
		h.grow(size)
	}
	s := &h.slots[h.findSlot(hash)]
	h.n++
	if s.link <= 0 { // empty or tombstone: new key
		if s.link == tombstone {
			h.tombs--
		}
		h.keys++
		*s = refSlot{hash: hash, ref: ref, link: 1}
		return
	}
	// The inline ref moves to a posting (free list first) at the chain head.
	old := refPost{ref: s.ref, next: s.link - 2}
	var pi int32
	if h.free >= 0 {
		pi = h.free
		h.free = h.posts[pi].next
		h.posts[pi] = old
	} else {
		pi = int32(len(h.posts))
		h.posts = append(h.posts, old)
	}
	s.ref, s.link = ref, pi+2
}

// AppendRefs appends the refs stored under hash to dst (most recent first)
// and returns the extended slice. No allocation beyond dst growth.
func (h *RefHash) AppendRefs(dst []uint32, hash uint64) []uint32 {
	if len(h.slots) == 0 {
		return dst
	}
	s := h.slots[h.findSlot(hash)]
	if s.link <= 0 || s.hash != hash {
		return dst
	}
	dst = append(dst, s.ref)
	for pi := s.link - 2; pi >= 0; pi = h.posts[pi].next {
		dst = append(dst, h.posts[pi].ref)
	}
	return dst
}

// Each visits the refs stored under hash; fn returning false stops.
func (h *RefHash) Each(hash uint64, fn func(ref uint32) bool) {
	if len(h.slots) == 0 {
		return
	}
	s := h.slots[h.findSlot(hash)]
	if s.link <= 0 || s.hash != hash || !fn(s.ref) {
		return
	}
	for pi := s.link - 2; pi >= 0; pi = h.posts[pi].next {
		if !fn(h.posts[pi].ref) {
			return
		}
	}
}

// Delete removes one posting of ref under hash, reporting whether a removal
// happened. When a key's last posting goes, its slot becomes a tombstone so
// probe chains through it stay intact until the next rehash.
func (h *RefHash) Delete(hash uint64, ref uint32) bool {
	if len(h.slots) == 0 {
		return false
	}
	s := &h.slots[h.findSlot(hash)]
	if s.link <= 0 || s.hash != hash {
		return false
	}
	if s.ref == ref {
		if s.link == 1 {
			s.link = tombstone
			h.keys--
			h.tombs++
		} else { // the newest older ref moves inline
			pi := s.link - 2
			s.ref, s.link = h.posts[pi].ref, h.posts[pi].next+2
			h.freePost(pi)
		}
		h.n--
		return true
	}
	prev := int32(-1)
	for pi := s.link - 2; pi >= 0; pi = h.posts[pi].next {
		if h.posts[pi].ref != ref {
			prev = pi
			continue
		}
		if prev < 0 {
			s.link = h.posts[pi].next + 2
		} else {
			h.posts[prev].next = h.posts[pi].next
		}
		h.freePost(pi)
		h.n--
		return true
	}
	return false
}

// freePost returns posting pi to the free list.
func (h *RefHash) freePost(pi int32) {
	h.posts[pi] = refPost{next: h.free}
	h.free = pi
}

// Len returns the number of stored refs.
func (h *RefHash) Len() int { return h.n }

// Keys returns the number of distinct live hashes.
func (h *RefHash) Keys() int { return h.keys }

// MemSize reports the real footprint in bytes: the slot array and posting
// pool at allocated capacity.
func (h *RefHash) MemSize() int {
	return 16*cap(h.slots) + 8*cap(h.posts) + 48
}

// BytesHash returns the FNV-1a hash of b — the key hash for callers whose
// canonical key identity is a byte encoding (e.g. wire-encoded group rows).
func BytesHash(b []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, c := range b {
		h ^= uint64(c)
		h *= prime64
	}
	return h
}
