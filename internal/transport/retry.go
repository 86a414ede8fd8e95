package transport

import (
	"fmt"
	"net"
	"time"
)

// RetryPolicy bounds a dial's transient-fault handling: up to Attempts
// connection attempts, exponential backoff between them (BaseDelay doubling
// up to MaxDelay) with deterministic ±25% jitter derived from Seed, each
// attempt itself bounded by DialTimeout. The zero value means a single
// attempt with a 10s timeout.
type RetryPolicy struct {
	Attempts    int           // total attempts (default 1)
	BaseDelay   time.Duration // backoff after the first failure (default 50ms)
	MaxDelay    time.Duration // backoff cap (default 2s)
	DialTimeout time.Duration // per-attempt bound (default 10s)
	Seed        int64         // jitter seed; same seed -> same schedule
}

func (rp RetryPolicy) norm() RetryPolicy {
	if rp.Attempts <= 0 {
		rp.Attempts = 1
	}
	if rp.BaseDelay <= 0 {
		rp.BaseDelay = 50 * time.Millisecond
	}
	if rp.MaxDelay <= 0 {
		rp.MaxDelay = 2 * time.Second
	}
	if rp.DialTimeout <= 0 {
		rp.DialTimeout = 10 * time.Second
	}
	return rp
}

// Backoff is the delay after the attempt-th failure (attempt >= 1):
// BaseDelay << (attempt-1), capped at MaxDelay, scaled by a deterministic
// jitter factor in [0.75, 1.25) so a fleet of dialers with distinct seeds
// does not thunder in lockstep.
func (rp RetryPolicy) Backoff(attempt int) time.Duration {
	rp = rp.norm()
	if attempt < 1 {
		attempt = 1
	}
	d := rp.BaseDelay
	for i := 1; i < attempt && d < rp.MaxDelay; i++ {
		d *= 2
	}
	if d > rp.MaxDelay {
		d = rp.MaxDelay
	}
	// splitmix64 over (seed, attempt) -> fraction in [0, 1).
	x := uint64(rp.Seed) + uint64(attempt)*0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	frac := float64(x>>11) / float64(1<<53)
	return time.Duration(float64(d) * (0.75 + 0.5*frac))
}

// DialRetry dials addr under the policy, performing the client handshake on
// each attempt. fault, when non-nil, wraps the raw socket for deterministic
// fault injection (see FaultSpec). After the attempt budget is exhausted the
// last error is returned, wrapped so callers can still classify it.
func DialRetry(addr string, h Hello, rp RetryPolicy, fault *FaultSpec) (*Conn, error) {
	rp = rp.norm()
	var last error
	for attempt := 1; ; attempt++ {
		nc, err := net.DialTimeout("tcp", addr, rp.DialTimeout)
		if err == nil {
			if tc, ok := nc.(*net.TCPConn); ok {
				tc.SetNoDelay(true) // control RPCs and credit grants are latency-bound
			}
			if fault != nil {
				nc = fault.Wrap(nc)
			}
			c := NewConn(nc)
			if err := c.SendHello(h); err == nil {
				return c, nil
			} else {
				nc.Close()
				last = err
			}
		} else {
			last = err
		}
		if attempt >= rp.Attempts {
			break
		}
		time.Sleep(rp.Backoff(attempt))
	}
	return nil, fmt.Errorf("transport: dial %s: %d attempt(s) exhausted: %w", addr, rp.Attempts, last)
}
