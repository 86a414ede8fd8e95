// Package dataflow is Squall's distribution platform: a from-scratch
// replacement for the Storm layer the paper builds on (§2). It executes
// topologies — DAGs of spouts (data sources) and bolts (computation) — with
// per-node parallelism. An edge carries a stream grouping that partitions
// tuples among the consumer's tasks, exactly like Storm's stream groupings.
//
// A "machine" in the paper maps to a task here: one goroutine with private
// state, fed by a bounded channel. Every row crossing an edge travels
// serialized (internal/wire), so the CPU cost of a hop stands in for the
// network cost on the paper's 1 Gbit cluster, and tuple counts (load,
// replication factor) are measured identically.
//
// Every data edge carries one payload shape: packed frames of wire-encoded
// rows. Producers accumulate per-(edge, target) frames of up to
// Options.BatchSize rows and ship each frame as one channel send, flushing
// partial frames at EOS. BatchSize=1 ships one-row frames, so every tuple
// pays its own send and frame; see DESIGN.md for the framing and its
// interaction with the network-cost substitution. Tuples exist only at the
// API edge: a tuple spout's rows are encoded once by the executor, a
// RowBolt reads the rows in place, and any other bolt gets each row decoded
// at its own boundary.
package dataflow

import (
	"fmt"

	"squall/internal/types"
	"squall/internal/wire"
)

// Spout is a data source; Next returns the next tuple, or false when the
// (finite) stream is exhausted. Each task of a spout component gets its own
// Spout instance from the factory, typically generating a slice of the data.
type Spout interface {
	Next() (types.Tuple, bool)
}

// RowSpout is optionally implemented by spouts that produce wire-encoded
// rows directly. The executor drives NextRow instead of Next and routes each
// row through Collector.EmitRow without materializing a tuple. The returned
// row is only read until the next NextRow call, so implementations may reuse
// one buffer.
type RowSpout interface {
	NextRow() ([]byte, bool)
}

// SpoutFactory builds the Spout instance for one task of a spout component.
type SpoutFactory func(task, ntasks int) Spout

// Input identifies the provenance of a tuple delivered to a bolt.
type Input struct {
	Stream   string // name of the upstream component
	FromTask int    // task index within the upstream component
	Tuple    types.Tuple
}

// RowInput identifies the provenance of one wire-encoded row delivered to a
// RowBolt. Rows arrive a transport frame at a time, all of one frame from
// one stream and task, and Last marks the frame's final row. Cur is valid
// only for the duration of ExecuteRow. Row aliases the frame and stays valid
// until ExecuteRow of the frame's Last row returns, so a bolt may stage a
// frame's rows and consume them as a set on Last; past that it must copy
// the bytes (slab arenas blit them) — never retain the slice or the cursor.
type RowInput struct {
	Stream   string       // name of the upstream component
	FromTask int          // task index within the upstream component
	Row      []byte       // one wire-encoded row
	Cur      *wire.Cursor // parsed view over Row
	// Last is set on the final row of the frame. A recovery-protected task
	// holds the frame's emissions until that row returns and settles them
	// once: the frame is the exactly-once unit.
	Last bool
}

// RowBolt is implemented by bolts that consume wire-encoded rows directly:
// the executor walks each frame with one cursor and calls ExecuteRow once per
// row, with no decode. Bolts that are not RowBolts must be TupleBolts, whose
// rows are decoded at their own boundary.
type RowBolt interface {
	Bolt
	ExecuteRow(in RowInput, out *Collector) error
}

// Bolt is one task of a computation component. Rows reach it through
// exactly one of two faces — RowBolt (encoded rows read in place) or
// TupleBolt (each row decoded at the bolt's boundary) — and Finish is called
// after every upstream task has finished (full-history semantics: operators
// may hold state across the whole run and flush results at the end, e.g.
// final aggregations).
type Bolt interface {
	Finish(out *Collector) error
}

// TupleBolt consumes decoded tuples: Execute is called once per incoming
// row, decoded at the bolt's boundary. The tuple is the bolt's to keep.
type TupleBolt interface {
	Bolt
	Execute(in Input, out *Collector) error
}

// BoltFactory builds the Bolt instance for one task of a bolt component.
type BoltFactory func(task, ntasks int) Bolt

// MemReporter is optionally implemented by bolts whose state size should be
// charged against the per-task memory budget (reproduces the paper's
// "Memory Overflow" outcomes for skewed Hash-Hypercube runs).
type MemReporter interface {
	MemSize() int
}

// node is one component (spout or bolt) of the topology.
type node struct {
	name    string
	par     int
	spout   SpoutFactory
	bolt    BoltFactory
	inputs  []edge // edges arriving at this node (bolts only)
	outputs []edge // edges leaving this node (filled during Build)
}

// edge is one subscription: tuples of `from` are partitioned among the tasks
// of `to` using the grouping.
type edge struct {
	from, to *node
	grouping Grouping
}

// Topology is a validated DAG ready to run.
type Topology struct {
	nodes []*node
	byN   map[string]*node
}

// Builder assembles a topology.
type Builder struct {
	t   Topology
	err error
}

// NewBuilder returns an empty topology builder.
func NewBuilder() *Builder {
	return &Builder{t: Topology{byN: make(map[string]*node)}}
}

func (b *Builder) addNode(name string, par int) *node {
	if b.err != nil {
		return nil
	}
	if name == "" {
		b.err = fmt.Errorf("dataflow: component name must be non-empty")
		return nil
	}
	if _, dup := b.t.byN[name]; dup {
		b.err = fmt.Errorf("dataflow: duplicate component %q", name)
		return nil
	}
	if par <= 0 {
		b.err = fmt.Errorf("dataflow: component %q needs parallelism >= 1, got %d", name, par)
		return nil
	}
	n := &node{name: name, par: par}
	b.t.nodes = append(b.t.nodes, n)
	b.t.byN[name] = n
	return n
}

// Spout registers a data-source component.
func (b *Builder) Spout(name string, par int, f SpoutFactory) *Builder {
	if n := b.addNode(name, par); n != nil {
		if f == nil {
			b.err = fmt.Errorf("dataflow: spout %q has nil factory", name)
		}
		n.spout = f
	}
	return b
}

// Bolt registers a computation component. Call Input afterwards to subscribe
// it to upstream components.
func (b *Builder) Bolt(name string, par int, f BoltFactory) *Builder {
	if n := b.addNode(name, par); n != nil {
		if f == nil {
			b.err = fmt.Errorf("dataflow: bolt %q has nil factory", name)
		}
		n.bolt = f
	}
	return b
}

// Input subscribes bolt `to` to the output of component `from` under the
// given grouping. Components must already be registered.
func (b *Builder) Input(to, from string, g Grouping) *Builder {
	if b.err != nil {
		return b
	}
	tn, ok := b.t.byN[to]
	if !ok {
		b.err = fmt.Errorf("dataflow: Input target %q not registered", to)
		return b
	}
	fn, ok := b.t.byN[from]
	if !ok {
		b.err = fmt.Errorf("dataflow: Input source %q not registered", from)
		return b
	}
	if tn.bolt == nil {
		b.err = fmt.Errorf("dataflow: %q is a spout; spouts take no inputs", to)
		return b
	}
	if g == nil {
		b.err = fmt.Errorf("dataflow: nil grouping on edge %q -> %q", from, to)
		return b
	}
	for _, e := range tn.inputs {
		if e.from == fn {
			b.err = fmt.Errorf("dataflow: duplicate edge %q -> %q", from, to)
			return b
		}
	}
	e := edge{from: fn, to: tn, grouping: g}
	tn.inputs = append(tn.inputs, e)
	fn.outputs = append(fn.outputs, e)
	return b
}

// Build validates the topology: every bolt has at least one input, spouts
// exist, and the graph is acyclic.
func (b *Builder) Build() (*Topology, error) {
	if b.err != nil {
		return nil, b.err
	}
	hasSpout := false
	for _, n := range b.t.nodes {
		if n.spout != nil {
			hasSpout = true
		}
		if n.bolt != nil && len(n.inputs) == 0 {
			return nil, fmt.Errorf("dataflow: bolt %q has no inputs", n.name)
		}
	}
	if !hasSpout {
		return nil, fmt.Errorf("dataflow: topology has no spouts")
	}
	if err := b.checkAcyclic(); err != nil {
		return nil, err
	}
	return &b.t, nil
}

func (b *Builder) checkAcyclic() error {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[*node]int, len(b.t.nodes))
	var visit func(n *node) error
	visit = func(n *node) error {
		switch color[n] {
		case gray:
			return fmt.Errorf("dataflow: cycle through component %q", n.name)
		case black:
			return nil
		}
		color[n] = gray
		for _, e := range n.outputs {
			if err := visit(e.to); err != nil {
				return err
			}
		}
		color[n] = black
		return nil
	}
	for _, n := range b.t.nodes {
		if err := visit(n); err != nil {
			return err
		}
	}
	return nil
}

// Components lists the component names in registration order.
func (t *Topology) Components() []string {
	out := make([]string, len(t.nodes))
	for i, n := range t.nodes {
		out[i] = n.name
	}
	return out
}

// Bolt returns a bolt component's factory (nil for a spout or an unknown
// name).
func (t *Topology) Bolt(name string) BoltFactory {
	if n, ok := t.byN[name]; ok {
		return n.bolt
	}
	return nil
}

// Grouping returns the grouping of the edge from → to (nil if none).
func (t *Topology) Grouping(to, from string) Grouping {
	if n, ok := t.byN[to]; ok {
		for _, e := range n.inputs {
			if e.from.name == from {
				return e.grouping
			}
		}
	}
	return nil
}

// Parallelism returns the task count of a component (0 if unknown).
func (t *Topology) Parallelism(name string) int {
	if n, ok := t.byN[name]; ok {
		return n.par
	}
	return 0
}
