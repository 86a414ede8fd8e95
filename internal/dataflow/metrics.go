package dataflow

import (
	"sync/atomic"
	"time"
)

// TaskMetrics counts traffic through one task ("machine"). All fields are
// updated by the owning task only and read after Run returns (or atomically
// by monitors).
type TaskMetrics struct {
	Received atomic.Int64 // tuples delivered to this task
	Emitted  atomic.Int64 // tuples emitted by this task (pre-fanout)
	Sent     atomic.Int64 // tuple copies sent downstream (post-fanout)
	Batches  atomic.Int64 // envelopes (batch frames) sent downstream
	BytesOut atomic.Int64 // serialized bytes shipped downstream
	MaxMem   atomic.Int64 // high-water state size (MemReporter bolts)
	// VecRows is rows delivered as whole frames. No engine path sets it:
	// bolts take rows one at a time. The benchmark still reads it as
	// dataflow.vec_share.
	VecRows atomic.Int64
}

// ComponentMetrics aggregates the tasks of one component.
type ComponentMetrics struct {
	Name  string
	Par   int
	Tasks []*TaskMetrics
}

// ReceivedTotal sums tuples received across tasks.
func (c *ComponentMetrics) ReceivedTotal() int64 {
	var s int64
	for _, t := range c.Tasks {
		s += t.Received.Load()
	}
	return s
}

// EmittedTotal sums tuples emitted across tasks (pre-fanout).
func (c *ComponentMetrics) EmittedTotal() int64 {
	var s int64
	for _, t := range c.Tasks {
		s += t.Emitted.Load()
	}
	return s
}

// SentTotal sums tuple copies shipped downstream across tasks.
func (c *ComponentMetrics) SentTotal() int64 {
	var s int64
	for _, t := range c.Tasks {
		s += t.Sent.Load()
	}
	return s
}

// MaxLoad returns the highest per-task received count — the paper's
// "maximum load per machine", the quantity hypercube optimization minimizes.
func (c *ComponentMetrics) MaxLoad() int64 {
	var m int64
	for _, t := range c.Tasks {
		if r := t.Received.Load(); r > m {
			m = r
		}
	}
	return m
}

// AvgLoad returns the mean per-task received count.
func (c *ComponentMetrics) AvgLoad() float64 {
	if len(c.Tasks) == 0 {
		return 0
	}
	return float64(c.ReceivedTotal()) / float64(len(c.Tasks))
}

// SkewDegree is the paper's §6 definition: largest partition size divided by
// the average partition size. 0 when the component received nothing.
func (c *ComponentMetrics) SkewDegree() float64 {
	avg := c.AvgLoad()
	if avg == 0 {
		return 0
	}
	return float64(c.MaxLoad()) / avg
}

// RunMetrics is the result of executing a topology.
type RunMetrics struct {
	Elapsed    time.Duration
	Components map[string]*ComponentMetrics
	// Adapt counts live-reshape activity when an adaptation policy ran:
	// reshape rounds completed and the state migrated between tasks.
	Adapt AdaptMetrics
	// Recovery counts fault-tolerance activity when a recovery policy ran:
	// checkpoints taken, faults recovered, and the state restored or
	// replayed (see RecoveryMetrics).
	Recovery RecoveryMetrics
	// Cluster counts coordinator-side survivability activity on a cluster
	// run (always zero in-process): dispatch attempts, workers lost,
	// components reassigned off dead workers, and the wall clock from the
	// first infrastructure failure to the final successful attempt. Written
	// once by the coordinator after the run settles.
	Cluster ClusterMetrics
	topo    *Topology
}

// ClusterMetrics is the coordinator's account of a cluster run's
// survivability: how many dispatch attempts it took (1 = clean), how many
// worker processes were declared dead, how many components were reassigned
// to survivors, and how long the detection-and-recovery ladder ran.
type ClusterMetrics struct {
	Attempts    int
	WorkersLost int
	Reassigned  int
	RecoveryNS  int64
}

// Component returns the metrics of one component (nil if unknown).
func (m *RunMetrics) Component(name string) *ComponentMetrics {
	return m.Components[name]
}

// ReplicationFactor is the paper's §6 definition for a component: its number
// of input tuples divided by the total number of tuples produced by the
// immediate upstream components. >1 means the grouping replicates.
func (m *RunMetrics) ReplicationFactor(component string) float64 {
	n, ok := m.topo.byN[component]
	if !ok {
		return 0
	}
	var upstream int64
	for _, e := range n.inputs {
		upstream += m.Components[e.from.name].EmittedTotal()
	}
	if upstream == 0 {
		return 0
	}
	return float64(m.Components[component].ReceivedTotal()) / float64(upstream)
}

// IntermediateNetworkFactor is the paper's §6 definition: the sum of all
// component tasks' input and output tuple counts divided by (query input +
// query output). Query input is what the spouts emit; query output is what
// the sink components (no outgoing edges) emit.
func (m *RunMetrics) IntermediateNetworkFactor() float64 {
	var allIO, queryIn, queryOut int64
	for _, n := range m.topo.nodes {
		cm := m.Components[n.name]
		allIO += cm.ReceivedTotal() + cm.SentTotal()
		if n.spout != nil {
			queryIn += cm.EmittedTotal()
		}
		if len(n.outputs) == 0 {
			queryOut += cm.EmittedTotal()
		}
	}
	if queryIn+queryOut == 0 {
		return 0
	}
	return float64(allIO) / float64(queryIn+queryOut)
}

// TotalBytesOut sums serialized bytes shipped across all edges — the
// simulated network volume.
func (m *RunMetrics) TotalBytesOut() int64 {
	var s int64
	for _, c := range m.Components {
		for _, t := range c.Tasks {
			s += t.BytesOut.Load()
		}
	}
	return s
}

// TotalSent sums tuple copies shipped across all edges ("total network
// transfer" in §7.2's accounting).
func (m *RunMetrics) TotalSent() int64 {
	var s int64
	for _, c := range m.Components {
		for _, t := range c.Tasks {
			s += t.Sent.Load()
		}
	}
	return s
}

// TotalBatches sums the envelopes (batch frames) shipped across all edges.
// TotalSent/TotalBatches is the realized mean batch size — how much channel
// and framing cost the batched transport actually amortized.
func (m *RunMetrics) TotalBatches() int64 {
	var s int64
	for _, c := range m.Components {
		for _, t := range c.Tasks {
			s += t.Batches.Load()
		}
	}
	return s
}
