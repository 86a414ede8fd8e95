// Package dataflow is Squall's distribution platform: a from-scratch
// replacement for the Storm layer the paper builds on (§2). It executes
// topologies — DAGs of spouts (data sources) and bolts (computation) — with
// per-node parallelism. An edge carries a stream grouping that partitions
// rows among the consumer's tasks, exactly like Storm's stream groupings.
//
// A "machine" in the paper maps to a task here: one goroutine with private
// state, fed by a bounded channel. Every row crossing an edge travels
// serialized (internal/wire), so the CPU cost of a hop stands in for the
// network cost on the paper's 1 Gbit cluster, and tuple counts (load,
// replication factor) are measured identically.
//
// The package moves encoded rows only. A spout hands the executor
// wire-encoded rows (RowSpout), a grouping routes each row through a cursor
// over its bytes, and a bolt reads the rows of a delivered frame in place
// (ExecuteRow). Producers accumulate per-(edge, target) frames of up to
// Options.BatchSize rows and ship each frame as one channel send, flushing
// partial frames at EOS and whenever the task would otherwise park waiting
// for input (an empty inbox, a spout's yield). BatchSize=1 ships one-row
// frames, so every tuple pays its own send and frame; see DESIGN.md for the
// framing and its interaction with the network-cost substitution. Tuples
// exist only at the API edge: Spout and SpoutFactory are the tuple sources
// a caller supplies, which the planner encodes once at the source.
package dataflow

import (
	"fmt"

	"squall/internal/types"
	"squall/internal/wire"
)

// Spout is an API-edge tuple source; Next returns the next tuple, or false
// when the (finite) stream is exhausted. Each task of a source gets its own
// Spout instance from the factory, typically generating a slice of the data.
// The engine runs sources as RowSpouts: the planner encodes a Spout's tuples
// once at the source (ops.PackedSpout).
type Spout interface {
	Next() (types.Tuple, bool)
}

// SpoutFactory builds the Spout instance for one task of a source.
type SpoutFactory func(task, ntasks int) Spout

// RowSpout is a spout component's task: NextRow returns the next
// wire-encoded row, or false when the stream is exhausted. The returned row
// is only read until the next NextRow call, so implementations may reuse one
// buffer. NextRow may also return (nil, true), a yield: nothing is ready
// and the next call may block. The executor then ships the task's partial
// frames before it calls again, so rows already emitted never wait on input
// that has not arrived. A spout that cannot tell it would block never
// yields, and its rows ship when a frame fills or at EOS.
type RowSpout interface {
	NextRow() ([]byte, bool)
}

// RowSpoutFactory builds the RowSpout for one task of a spout component.
type RowSpoutFactory func(task, ntasks int) RowSpout

// RowInput identifies the provenance of one wire-encoded row delivered to a
// Bolt. Rows arrive a transport frame at a time, all of one frame from
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

// Bolt is one task of a computation component. ExecuteRow is called once
// per delivered row, with no decode, and Finish after every upstream task
// has finished (full-history semantics: operators may hold state across the
// whole run and flush results at the end, e.g. final aggregations).
type Bolt interface {
	ExecuteRow(in RowInput, out *Collector) error
	Finish(out *Collector) error
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
	spout   RowSpoutFactory
	bolt    BoltFactory
	inputs  []edge // edges arriving at this node (bolts only)
	outputs []edge // edges leaving this node (filled during Build)
}

// edge is one subscription: rows of `from` are partitioned among the tasks
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
func (b *Builder) Spout(name string, par int, f RowSpoutFactory) *Builder {
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
