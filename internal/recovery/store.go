package recovery

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// ErrCorrupt is the sentinel under every store-level corruption detection
// (checksum mismatch, torn write, truncation); match with errors.Is and
// unwrap *CorruptError for the location.
var ErrCorrupt = errors.New("recovery: corrupt checkpoint data")

// CorruptError reports a stored blob that failed its integrity check — the
// bytes on disk are not the bytes that were written.
type CorruptError struct {
	Path   string // file or key that failed verification
	Detail string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("recovery: %s: %s: %v", e.Path, e.Detail, ErrCorrupt)
}

func (e *CorruptError) Unwrap() error { return ErrCorrupt }

// Checksummed file container for DiskStore: "SQF1" magic, 4-byte LE CRC32
// (IEEE) of the payload, payload. Put always writes it and checkpoints never
// outlive a run, so a file without it is corrupt or foreign.
const fileMagic = "SQF1"

func sealBlob(blob []byte) []byte {
	out := make([]byte, 0, len(fileMagic)+4+len(blob))
	out = append(out, fileMagic...)
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(blob))
	return append(out, blob...)
}

// unsealBlob verifies and strips the file container.
func unsealBlob(path string, data []byte) ([]byte, error) {
	if len(data) < len(fileMagic) {
		return nil, &CorruptError{Path: path, Detail: "truncated file"}
	}
	if string(data[:len(fileMagic)]) != fileMagic {
		return nil, &CorruptError{Path: path, Detail: "no " + fileMagic + " container"}
	}
	if len(data) < len(fileMagic)+4 {
		return nil, &CorruptError{Path: path, Detail: "truncated checksum header"}
	}
	want := binary.LittleEndian.Uint32(data[len(fileMagic):])
	payload := data[len(fileMagic)+4:]
	if crc32.ChecksumIEEE(payload) != want {
		return nil, &CorruptError{Path: path, Detail: "checksum mismatch (torn or corrupted write)"}
	}
	return payload, nil
}

// CheckpointStore persists per-task checkpoints. Implementations must allow
// concurrent Put/Get from different goroutines (tasks checkpoint
// independently; the recovery manager reads during a restore).
type CheckpointStore interface {
	// Put replaces the checkpoint of (component, task).
	Put(component string, task int, ck *Checkpoint) error
	// Get returns the latest checkpoint of (component, task); ok is false
	// when none has been stored.
	Get(component string, task int) (ck *Checkpoint, ok bool, err error)
}

// MemStore keeps checkpoints in process memory — the paper's peer-recovery
// comparisons treat this as "free" storage; it exists so recovery works
// without any disk configuration, and as the fast baseline DiskStore is
// measured against.
type MemStore struct {
	mu   sync.Mutex
	byID map[string][]byte
	segs map[string][]byte
}

// NewMemStore returns an empty in-memory checkpoint store.
func NewMemStore() *MemStore {
	return &MemStore{byID: map[string][]byte{}, segs: map[string][]byte{}}
}

func storeKey(component string, task int) string {
	return fmt.Sprintf("%s/%d", component, task)
}

// Put stores an encoded copy of ck (the caller may reuse frame buffers).
func (s *MemStore) Put(component string, task int, ck *Checkpoint) error {
	blob := AppendCheckpoint(nil, ck)
	s.mu.Lock()
	s.byID[storeKey(component, task)] = blob
	s.mu.Unlock()
	return nil
}

// Get decodes the stored checkpoint.
func (s *MemStore) Get(component string, task int) (*Checkpoint, bool, error) {
	s.mu.Lock()
	blob, ok := s.byID[storeKey(component, task)]
	s.mu.Unlock()
	if !ok {
		return nil, false, nil
	}
	ck, _, err := DecodeCheckpoint(blob)
	if err != nil {
		return nil, false, err
	}
	return ck, true, nil
}

// Bytes reports the total encoded bytes currently held (tests/metrics),
// checkpoints and sealed segments together.
func (s *MemStore) Bytes() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, b := range s.byID {
		n += len(b)
	}
	for _, b := range s.segs {
		n += len(b)
	}
	return n
}

// PutSegment stores a copy of one sealed slab segment (slab.SegmentStore).
func (s *MemStore) PutSegment(key string, blob []byte) error {
	s.mu.Lock()
	s.segs[key] = append([]byte(nil), blob...)
	s.mu.Unlock()
	return nil
}

// GetSegment returns one sealed segment's bytes (slab.SegmentStore): the
// store's own immutable copy, so dst is never written and nothing is
// copied. The segment codec carries its own CRC; verification happens at
// decode.
func (s *MemStore) GetSegment(key string, _ []byte) ([]byte, bool, error) {
	s.mu.Lock()
	b, ok := s.segs[key]
	s.mu.Unlock()
	return b, ok, nil
}

// DeleteSegment drops one sealed segment (quarantine, garbage collection).
func (s *MemStore) DeleteSegment(key string) error {
	s.mu.Lock()
	delete(s.segs, key)
	s.mu.Unlock()
	return nil
}

// DiskStore persists checkpoints as one file per (component, task) under a
// directory — the paper's baseline recovery medium ("network accesses are
// several times faster than disk accesses"). Checkpoint writes go through a
// temp file and rename, so a crash mid-write never leaves a torn checkpoint
// and a reader sees either the whole old file or the whole new one. Get
// reads and re-decodes the file on every call, charging recovery with the
// disk round trip.
//
// Sealed slab segments live in one append-only log file per store, created
// in the directory on the first PutSegment, with an in-memory index from key
// to the blob's span. A put is one write at the log's end, published to the
// index only once it succeeded; a get is one positioned read into the
// caller's buffer. Published spans are never overwritten (a re-put appends a
// fresh copy), so the log's lock covers bookkeeping only, never I/O, and
// concurrent fault-ins never queue behind each other or behind a write. The
// index dies with the store, so Close removes the log.
//
// Like the wire layer's CPU-for-network substitution (DESIGN.md), the read
// path can model the paper's cluster disk: SeekLatency is charged once per
// Get or GetSegment and ReadBytesPerSec bounds the modeled sequential
// bandwidth, so a laptop's page cache does not stand in for the 2016
// blades' spinning disks. Writes are never throttled — production engines
// flush checkpoints asynchronously, and only the recovery read sits on the
// critical path. Zero values disable the model (raw filesystem speed).
type DiskStore struct {
	dir string
	mu  sync.Mutex // serializes checkpoint writes (one shared temp file per path)
	// logMu guards the segment log's file, end and index; it is never held
	// across a read or a write.
	logMu  sync.Mutex
	log    *os.File
	logEnd int64
	segs   map[string]logSpan
	closed bool
	// SeekLatency and ReadBytesPerSec model the recovery medium on reads.
	SeekLatency     time.Duration
	ReadBytesPerSec int64
}

// logSpan locates one segment blob in the log.
type logSpan struct {
	off int64
	n   int
}

// NewDiskStore creates (if needed) and wraps a checkpoint directory.
func NewDiskStore(dir string) (*DiskStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("recovery: checkpoint dir: %w", err)
	}
	return &DiskStore{dir: dir}, nil
}

// NewModeledDiskStore wraps a checkpoint directory with the paper-era disk
// model applied to reads: a seek to reach the checkpoint, then sequential
// bandwidth. Squall's cluster (§7) pairs a 1 Gbit network with contended
// local disks, which is exactly the gap the §5 peer-recovery claim exploits.
func NewModeledDiskStore(dir string, seek time.Duration, readBytesPerSec int64) (*DiskStore, error) {
	s, err := NewDiskStore(dir)
	if err != nil {
		return nil, err
	}
	s.SeekLatency = seek
	s.ReadBytesPerSec = readBytesPerSec
	return s, nil
}

// fileSafe maps every rune outside [A-Za-z0-9_-] to '_', so a component
// name becomes a file name that stays inside the store directory.
func fileSafe(name string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			return r
		default:
			return '_'
		}
	}, name)
}

// fileFor sanitizes the component name into a stable file name.
func (s *DiskStore) fileFor(component string, task int) string {
	return filepath.Join(s.dir, fmt.Sprintf("%s-%d.ckpt", fileSafe(component), task))
}

// writeAtomic writes data through a temp file and rename under the store
// lock, so a crash mid-write never leaves a half-written file in place.
func (s *DiskStore) writeAtomic(path string, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("recovery: checkpoint write: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("recovery: checkpoint rename: %w", err)
	}
	return nil
}

// Put encodes and atomically replaces the checkpoint file, wrapped in the
// checksummed container so a torn or bit-flipped file is detected on read.
func (s *DiskStore) Put(component string, task int, ck *Checkpoint) error {
	return s.writeAtomic(s.fileFor(component, task), sealBlob(AppendCheckpoint(nil, ck)))
}

// Get reads and decodes the checkpoint file, charging the modeled seek and
// bandwidth when configured.
func (s *DiskStore) Get(component string, task int) (*Checkpoint, bool, error) {
	blob, err := os.ReadFile(s.fileFor(component, task))
	if errors.Is(err, os.ErrNotExist) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("recovery: checkpoint read: %w", err)
	}
	s.chargeRead(len(blob))
	payload, err := unsealBlob(s.fileFor(component, task), blob)
	if err != nil {
		return nil, false, err
	}
	ck, _, err := DecodeCheckpoint(payload)
	if err != nil {
		return nil, false, err
	}
	return ck, true, nil
}

// chargeRead sleeps for the modeled seek plus n bytes at the modeled
// bandwidth (no-op when the model is off).
func (s *DiskStore) chargeRead(n int) {
	delay := s.SeekLatency
	if s.ReadBytesPerSec > 0 {
		delay += time.Duration(float64(n) / float64(s.ReadBytesPerSec) * float64(time.Second))
	}
	if delay > 0 {
		time.Sleep(delay)
	}
}

// PutSegment appends one sealed slab segment to the log
// (slab.SegmentStore) and points key at it. The segment codec carries its
// own CRC, so the blob is stored bare. A failed write publishes nothing: the
// key keeps its previous blob, if any.
func (s *DiskStore) PutSegment(key string, blob []byte) error {
	s.logMu.Lock()
	if s.log == nil && !s.closed {
		f, err := os.CreateTemp(s.dir, "segments-*.log")
		if err != nil {
			s.logMu.Unlock()
			return fmt.Errorf("recovery: segment log: %w", err)
		}
		s.log, s.segs = f, map[string]logSpan{}
	}
	log, off := s.log, s.logEnd
	s.logEnd += int64(len(blob))
	s.logMu.Unlock()
	if log == nil {
		return errors.New("recovery: segment write on a closed store")
	}
	if _, err := log.WriteAt(blob, off); err != nil {
		return fmt.Errorf("recovery: segment write: %w", err)
	}
	s.logMu.Lock()
	if s.log == log {
		s.segs[key] = logSpan{off: off, n: len(blob)}
	}
	s.logMu.Unlock()
	return nil
}

// GetSegment reads one sealed segment into dst, reusing its capacity when it
// holds the blob and allocating otherwise (slab.SegmentStore). It charges
// the modeled seek and bandwidth when configured: a fault-in is a disk read.
func (s *DiskStore) GetSegment(key string, dst []byte) ([]byte, bool, error) {
	s.logMu.Lock()
	sp, ok := s.segs[key]
	log := s.log
	s.logMu.Unlock()
	if !ok {
		return nil, false, nil
	}
	if cap(dst) < sp.n {
		dst = make([]byte, sp.n)
	}
	dst = dst[:sp.n]
	if _, err := log.ReadAt(dst, sp.off); err != nil {
		return nil, false, fmt.Errorf("recovery: segment read: %w", err)
	}
	s.chargeRead(sp.n)
	return dst, true, nil
}

// DeleteSegment drops one sealed segment from the index (quarantine,
// garbage collection); its bytes stay in the log unreachable. Deleting a
// missing segment is a no-op.
func (s *DiskStore) DeleteSegment(key string) error {
	s.logMu.Lock()
	delete(s.segs, key)
	s.logMu.Unlock()
	return nil
}

// Close closes and removes the segment log: its index lives only in this
// store, so its bytes are unreachable afterwards. Checkpoint files stay.
// Segment writes after Close fail, and a closed store holds no segments.
// Close is idempotent.
func (s *DiskStore) Close() error {
	s.logMu.Lock()
	defer s.logMu.Unlock()
	s.closed = true
	if s.log == nil {
		return nil
	}
	err := s.log.Close()
	if rerr := os.Remove(s.log.Name()); err == nil {
		err = rerr
	}
	s.log, s.logEnd, s.segs = nil, 0, nil
	return err
}
