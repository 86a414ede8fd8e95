package dataflow

import (
	"strings"
	"testing"
	"time"

	"squall/internal/core"
	"squall/internal/recovery"
)

// blocked reports whether ch stays silent for a short grace period.
func blocked[T any](ch <-chan T) bool {
	select {
	case <-ch:
		return false
	case <-time.After(30 * time.Millisecond):
		return true
	}
}

// async runs f on its own goroutine and delivers its result.
func async[T any](f func() T) <-chan T {
	ch := make(chan T, 1)
	go func() { ch <- f() }()
	return ch
}

type entered struct {
	hc *core.Hypercube
	ok bool
}

func enterAsync(g *gate) <-chan entered {
	return async(func() entered {
		hc, ok := g.enter()
		return entered{hc, ok}
	})
}

// oneBucket builds a rows x cols live shape for the gate tests.
func oneBucket(t *testing.T, rows, cols int) *core.Hypercube {
	t.Helper()
	hc, err := core.OneBucket(core.JoinSpec{Names: []string{"R", "S"}, Sizes: []int64{1, 1}}, rows*cols, rows, cols)
	if err != nil {
		t.Fatal(err)
	}
	return hc
}

// TestGate pins the one producer gate's contract: the barrier both control
// rounds (reshape and recovery), the cluster's remote gate worker and every
// producer session share.
func TestGate(t *testing.T) {
	m0 := oneBucket(t, 2, 2)
	cases := []struct {
		name string
		run  func(t *testing.T, g *gate, abort chan struct{})
	}{
		{"pause waits for every entered producer", func(t *testing.T, g *gate, _ chan struct{}) {
			for i := 0; i < 2; i++ {
				if _, ok := g.enter(); !ok {
					t.Fatal("enter failed on an open gate")
				}
			}
			paused := async(g.pause)
			if !blocked(paused) {
				t.Fatal("pause returned with two producers inside")
			}
			g.exit()
			if !blocked(paused) {
				t.Fatal("pause returned with one producer inside")
			}
			g.exit()
			if !<-paused {
				t.Fatal("pause failed after the gate drained")
			}
		}},
		{"enter blocks while paused", func(t *testing.T, g *gate, _ chan struct{}) {
			if !g.pause() {
				t.Fatal("pause of an idle gate failed")
			}
			in := enterAsync(g)
			if !blocked(in) {
				t.Fatal("enter passed a closed gate")
			}
			g.resume(m0)
			if e := <-in; !e.ok || e.hc != m0 {
				t.Fatalf("enter after resume = %+v, want ok under %v", e, m0)
			}
			g.exit()
		}},
		{"abort releases pause and enter", func(t *testing.T, g *gate, abort chan struct{}) {
			if _, ok := g.enter(); !ok {
				t.Fatal("enter failed on an open gate")
			}
			paused := async(g.pause)
			if !blocked(paused) {
				t.Fatal("pause returned with a producer inside")
			}
			in := enterAsync(g)
			if !blocked(in) {
				t.Fatal("enter passed a closing gate")
			}
			close(abort)
			if <-paused {
				t.Fatal("pause reported a drained gate after abort")
			}
			if e := <-in; e.ok {
				t.Fatal("enter reported ok after abort")
			}
		}},
		{"resume publishes the shape it is given", func(t *testing.T, g *gate, _ chan struct{}) {
			next := oneBucket(t, 4, 1)
			for i, want := range []*core.Hypercube{m0, next, next, m0} {
				if !g.pause() {
					t.Fatal("pause of an idle gate failed")
				}
				g.resume(want)
				hc, ok := g.enter()
				g.exit()
				if !ok || hc != want || g.shape() != want {
					t.Fatalf("step %d: enter = (%v, %v), want (%v, true)", i, hc, ok, want)
				}
			}
		}},
		{"nested gateEnter does not self-deadlock while paused", func(t *testing.T, g *gate, _ chan struct{}) {
			c := &Collector{ex: &execution{gate: g}}
			if !c.gateEnter() {
				t.Fatal("outer gateEnter failed")
			}
			paused := async(g.pause)
			if !blocked(paused) {
				t.Fatal("pause returned with a session open")
			}
			nested := async(c.gateEnter)
			select {
			case ok := <-nested:
				if !ok {
					t.Fatal("nested gateEnter failed")
				}
			case <-time.After(5 * time.Second):
				t.Fatal("nested gateEnter waited on its own session")
			}
			c.gateExit()
			if !blocked(paused) {
				t.Fatal("pause returned while the outer session is open")
			}
			c.gateExit()
			if !<-paused {
				t.Fatal("pause failed after the session closed")
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			abort := make(chan struct{})
			g := &gate{abort: abort, hc: m0, resumeCh: make(chan struct{})}
			tc.run(t, g, abort)
		})
	}
}

// TestGateRejectsSplitComponents: one gate and one control loop serve one
// controlled component, so Run refuses adaptive and recovery policies that
// name different components.
func TestGateRejectsSplitComponents(t *testing.T) {
	topo, _ := buildAdaptiveTopo(t, 10, 10, 4, func() Bolt { return &pairBolt{} })
	opts := Options{Seed: 1}
	opts.Adaptive = &AdaptivePolicy{Component: "join", RStream: "R", SStream: "S"}
	opts.Recovery = &RecoveryPolicy{Component: "sink", RelOf: map[string]int{"join": 0}, NumRels: 1, Store: recovery.NewMemStore()}
	_, err := Run(topo, opts)
	if err == nil || !strings.Contains(err.Error(), "differ") {
		t.Fatalf("Run with split control components returned %v, want a rejection", err)
	}
}
