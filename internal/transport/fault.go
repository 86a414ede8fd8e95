package transport

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// FaultSpec is a seeded fault model for outbound connections: wrap a dialed
// socket with Wrap and its writes are dropped, duplicated, torn, delayed or
// throttled on a schedule fully determined by (Seed, connection ordinal,
// write index). Because the transport runs length-prefixed frames over the
// socket, a dropped or torn write desynchronizes the peer's parser exactly
// the way a real half-dead link does; PartitionAfter models a one-way
// partition (writes vanish, reads still flow), which only heartbeats can
// detect. The cluster chaos tests use it to exercise every rung of the
// detection/retry/recovery ladder without killing processes and hoping.
//
// A FaultSpec is shared by every connection it wraps; use it by pointer and
// do not mutate it after the first Wrap.
type FaultSpec struct {
	Seed int64

	// Per-write fault probabilities (evaluated in this order from one draw).
	DropProb  float64 // write reported OK, bytes vanish
	DupProb   float64 // bytes written twice
	TearProb  float64 // only a prefix of the bytes written
	DelayProb float64 // write delayed by up to Delay

	Delay time.Duration // max injected delay per delayed write (default 5ms)

	// PartitionAfter > 0 swallows every write after that many Write calls:
	// a one-way partition. BytesPerSec > 0 throttles the link.
	PartitionAfter int
	BytesPerSec    int

	// Wrap faults only connection ordinals in [SkipConns, SkipConns+MaxConns)
	// (MaxConns 0 = unbounded), so a test can target one specific link while
	// the rest of the mesh stays clean.
	SkipConns int
	MaxConns  int

	ord atomic.Int32 // ordinal of the next wrapped connection
}

// Wrap returns nc with the fault model applied, or nc itself when this
// connection ordinal is outside the faulted range.
func (s *FaultSpec) Wrap(nc net.Conn) net.Conn {
	ord := int(s.ord.Add(1)) - 1
	if ord < s.SkipConns || (s.MaxConns > 0 && ord >= s.SkipConns+s.MaxConns) {
		return nc
	}
	seed := int64(uint64(s.Seed) ^ (uint64(ord)+1)*0x9e3779b97f4a7c15)
	return &FaultConn{
		Conn: nc,
		spec: s,
		rng:  rand.New(rand.NewSource(seed)),
	}
}

// FaultConn is one faulted connection produced by FaultSpec.Wrap.
type FaultConn struct {
	net.Conn
	spec *FaultSpec

	mu     sync.Mutex
	rng    *rand.Rand
	writes int
	trace  []string // "<write index>:<action>" per write: same spec, same trace
}

func (c *FaultConn) Write(b []byte) (int, error) {
	c.mu.Lock()
	c.writes++
	w := c.writes
	p := c.spec
	if p.PartitionAfter > 0 && w > p.PartitionAfter {
		c.trace = append(c.trace, fmt.Sprintf("%d:partition", w))
		c.mu.Unlock()
		return len(b), nil
	}
	var delay time.Duration
	if p.BytesPerSec > 0 {
		delay += time.Duration(float64(len(b)) / float64(p.BytesPerSec) * float64(time.Second))
	}
	action := "pass"
	u := c.rng.Float64()
	switch {
	case u < p.DropProb:
		action = "drop"
	case u < p.DropProb+p.DupProb:
		action = "dup"
	case u < p.DropProb+p.DupProb+p.TearProb && len(b) > 1:
		action = "tear"
	case u < p.DropProb+p.DupProb+p.TearProb+p.DelayProb:
		action = "delay"
		maxd := p.Delay
		if maxd <= 0 {
			maxd = 5 * time.Millisecond
		}
		delay += time.Duration(c.rng.Int63n(int64(maxd)))
	}
	cut := 0
	if action == "tear" {
		cut = 1 + c.rng.Intn(len(b)-1)
	}
	c.trace = append(c.trace, fmt.Sprintf("%d:%s", w, action))
	c.mu.Unlock()

	if delay > 0 {
		time.Sleep(delay)
	}
	switch action {
	case "drop":
		return len(b), nil
	case "dup":
		if n, err := c.Conn.Write(b); err != nil {
			return n, err
		}
		if _, err := c.Conn.Write(b); err != nil {
			return len(b), err
		}
		return len(b), nil
	case "tear":
		if n, err := c.Conn.Write(b[:cut]); err != nil {
			return n, err
		}
		// The tail is silently lost: a torn write.
		return len(b), nil
	default:
		return c.Conn.Write(b)
	}
}
