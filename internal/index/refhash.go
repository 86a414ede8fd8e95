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
// lists, so the whole index is two slices the GC never walks per-entry.
// Stored state is append-only, so the index is insert-only and a probe chain
// ends at the first empty slot.
type RefHash struct {
	slots []refSlot
	posts []refPost
	n     int // postings (stored refs)
	keys  int // occupied slots (distinct hashes)
}

// refSlot is one open-addressing slot. link 0 means empty (end of probe
// chain); link >= 1 is an occupied slot whose key's most recent ref is ref,
// with its older refs chained from posting link-2 (none when link is 1).
type refSlot struct {
	hash uint64
	ref  uint32
	link int32
}

// refPost is one posting: a stored ref and the pool index of the next
// posting under the same key (-1 terminates).
type refPost struct {
	ref  uint32
	next int32
}

// NewRefHash returns an empty multimap.
func NewRefHash() *RefHash { return &RefHash{} }

// findSlot locates the slot for hash: the occupied slot holding it, or the
// empty slot ending its probe chain.
func (h *RefHash) findSlot(hash uint64) int {
	mask := uint64(len(h.slots) - 1)
	i := hash & mask
	for s := &h.slots[i]; s.link != 0 && s.hash != hash; s = &h.slots[i] {
		i = (i + 1) & mask
	}
	return int(i)
}

// grow rehashes into a table of the given slot count (power of two).
func (h *RefHash) grow(newSize int) {
	old := h.slots
	h.slots = make([]refSlot, newSize)
	mask := uint64(newSize - 1)
	for _, s := range old {
		if s.link == 0 {
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
	} else if 4*h.keys >= 3*len(h.slots) {
		h.grow(2 * len(h.slots))
	}
	s := &h.slots[h.findSlot(hash)]
	h.n++
	if s.link == 0 { // new key
		h.keys++
		*s = refSlot{hash: hash, ref: ref, link: 1}
		return
	}
	// The inline ref moves to a posting at the chain head.
	pi := int32(len(h.posts))
	h.posts = append(h.posts, refPost{ref: s.ref, next: s.link - 2})
	s.ref, s.link = ref, pi+2
}

// AppendRefs appends the refs stored under hash to dst (most recent first)
// and returns the extended slice. No allocation beyond dst growth.
func (h *RefHash) AppendRefs(dst []uint32, hash uint64) []uint32 {
	if len(h.slots) == 0 {
		return dst
	}
	s := h.slots[h.findSlot(hash)]
	if s.link == 0 {
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
	if s.link == 0 || !fn(s.ref) {
		return
	}
	for pi := s.link - 2; pi >= 0; pi = h.posts[pi].next {
		if !fn(h.posts[pi].ref) {
			return
		}
	}
}

// Len returns the number of stored refs.
func (h *RefHash) Len() int { return h.n }

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
