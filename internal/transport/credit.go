package transport

import "sync"

// Credit is a counting gate used for per-edge flow control across a Conn.
// The sender Acquires one credit per envelope before writing it; the
// receiver Grants credits back as envelopes drain out of its staging queue
// into the task inbox. The initial window plays the role the bounded
// channel buffer plays in-process: a slow consumer eventually blocks its
// remote producers instead of buffering unboundedly.
type Credit struct {
	mu    sync.Mutex
	avail int
	wait  chan struct{}
}

// NewCredit returns a gate holding window initial credits.
func NewCredit(window int) *Credit {
	if window < 1 {
		window = 1
	}
	return &Credit{avail: window}
}

// Acquire takes one credit, blocking until one is available or cancel is
// closed. Returns false only on cancellation.
func (c *Credit) Acquire(cancel <-chan struct{}) bool {
	c.mu.Lock()
	for c.avail == 0 {
		if c.wait == nil {
			c.wait = make(chan struct{})
		}
		w := c.wait
		c.mu.Unlock()
		select {
		case <-w:
		case <-cancel:
			return false
		}
		c.mu.Lock()
	}
	c.avail--
	c.mu.Unlock()
	return true
}

// Grant returns n credits and wakes any blocked Acquire.
func (c *Credit) Grant(n int) {
	if n <= 0 {
		return
	}
	c.mu.Lock()
	c.avail += n
	if c.wait != nil {
		close(c.wait)
		c.wait = nil
	}
	c.mu.Unlock()
}
