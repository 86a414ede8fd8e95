// Pool lifecycle auditing. Every frame pool box moves through the
// accessors below instead of touching the sync.Pools directly, so a debug
// ledger (installed by tests) can audit the transport's recycling protocol:
//
//   - a box must never be Put twice without an intervening Get — a double-put
//     lets the pool hand the same buffer to two producers at once, which
//     corrupts frames in ways that surface arbitrarily far downstream;
//   - a clean run must return every box it took. Leaks are not unsafe, but
//     they silently degrade the pools back into per-envelope allocation.
//
// Abort paths are allowed to leak (an envelope in flight when the run dies is
// dropped on the floor along with its box, by design); they must still never
// double-put. With no ledger installed the accessors compile down to the
// plain pool calls plus one atomic load.

package dataflow

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

var ledger atomic.Pointer[poolLedger]

type poolLedger struct {
	mu   sync.Mutex
	out  map[any]string // boxes checked out -> site of the Get
	errs []string
}

func callSite() string {
	// Skip callSite, the ledger method, and the accessor: the caller's caller
	// is the interesting frame.
	pc, file, line, ok := runtime.Caller(3)
	if !ok {
		return "unknown"
	}
	fn := runtime.FuncForPC(pc)
	name := "?"
	if fn != nil {
		name = fn.Name()
	}
	return fmt.Sprintf("%s (%s:%d)", name, file, line)
}

func (l *poolLedger) get(box any) {
	site := callSite()
	l.mu.Lock()
	l.out[box] = site
	l.mu.Unlock()
}

func (l *poolLedger) put(box any) {
	site := callSite()
	l.mu.Lock()
	if _, ok := l.out[box]; !ok {
		if len(l.errs) < 16 {
			l.errs = append(l.errs, fmt.Sprintf("put of a box not checked out (double-put or foreign box) at %s", site))
		}
	} else {
		delete(l.out, box)
	}
	l.mu.Unlock()
}

func getFrameBox() *[]byte {
	p := framePool.Get().(*[]byte)
	if l := ledger.Load(); l != nil {
		l.get(p)
	}
	return p
}

func putFrameBox(p *[]byte) {
	if l := ledger.Load(); l != nil {
		l.put(p)
	}
	framePool.Put(p)
}
