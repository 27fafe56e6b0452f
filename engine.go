package pkgstream

import (
	"time"

	"pkgstream/internal/engine"
	"pkgstream/internal/transport"
	"pkgstream/internal/window"
	"pkgstream/internal/wire"
)

// Storm-like engine surface: build a Topology with NewTopologyBuilder,
// choose groupings per edge (GroupPartial is the paper's contribution as
// a drop-in grouping), and execute it with NewRuntime. Each component
// instance (PEI) runs on its own goroutine behind a bounded queue.
type (
	// Tuple is the unit of data flowing through a topology.
	Tuple = engine.Tuple
	// Spout is a stream source.
	Spout = engine.Spout
	// Bolt is a stream operator.
	Bolt = engine.Bolt
	// BoltFunc adapts a function to Bolt.
	BoltFunc = engine.BoltFunc
	// Emitter sends tuples downstream (blocking on full queues).
	Emitter = engine.Emitter
	// Context identifies a component instance.
	Context = engine.Context
	// Topology is a validated dataflow DAG.
	Topology = engine.Topology
	// TopologyBuilder assembles a Topology.
	TopologyBuilder = engine.Builder
	// Runtime executes a Topology.
	Runtime = engine.Runtime
	// RuntimeOptions configures a Runtime.
	RuntimeOptions = engine.Options
	// GroupingFactory builds one grouping per emitting instance and edge.
	GroupingFactory = engine.GroupingFactory
)

// NewTopologyBuilder starts a topology definition; seed drives all
// grouping hash functions.
func NewTopologyBuilder(name string, seed uint64) *TopologyBuilder {
	return engine.NewBuilder(name, seed)
}

// NewRuntime prepares a runtime for a built topology.
func NewRuntime(top *Topology, opts RuntimeOptions) *Runtime {
	return engine.NewRuntime(top, opts)
}

// GroupPartial is PARTIAL KEY GROUPING as an engine grouping: two hash
// choices, per-emitter local load estimation, no coordination.
func GroupPartial() GroupingFactory { return engine.Partial() }

// GroupGlobal sends every tuple to instance 0 (single aggregator).
func GroupGlobal() GroupingFactory { return engine.Global() }

// Windowed two-phase aggregation (internal/window): PKG splits each key
// over two workers, so a downstream phase merges their partial results
// (§V Q4). TopologyBuilder.WindowedAggregate(name, plan, parallelism)
// declares one: a partial stage name+".partial" and a final stage name.
type (
	// WindowSpec configures window assignment (tumbling/sliding/global)
	// and flushing (period T, tuple count, lateness, memory cap). The
	// zero value is a single global window flushed at stream end.
	WindowSpec = window.Spec
	// WindowAggregator is the init/accumulate/merge/emit contract of a
	// two-phase aggregation.
	WindowAggregator = window.Aggregator
	// WindowPlan binds a WindowAggregator to a WindowSpec. Build a fresh
	// plan per topology run.
	WindowPlan = window.Plan
	// WindowResult is the payload (Values[0]) of a final-stage output
	// tuple: one closed (key, window) pair and its aggregated value.
	WindowResult = window.Result
)

// MustWindowPlan validates spec and binds it to the aggregator,
// panicking on error.
func MustWindowPlan(agg WindowAggregator, spec WindowSpec) *WindowPlan {
	return window.MustPlan(agg, spec)
}

// CountAggregator counts tuples per (key, window) — a window.Combiner.
func CountAggregator() WindowAggregator { return window.Count{} }

// SourceMark returns the control tuple by which a spout promises that
// source `source` will never again emit event time below wm. With
// GroupSourceAware and WindowSpec.Sources set, the watermark is the
// exact minimum across sources.
func SourceMark(source int, wm int64) Tuple { return window.SourceMark(source, wm) }

// GroupSourceAware wraps a spout→partial grouping so SourceMark tuples
// broadcast to every partial instance while data routes through g.
func GroupSourceAware(g GroupingFactory) GroupingFactory { return window.SourceAware(g) }

// Distributed windowed aggregation: either stage of a WindowedAggregate
// can run in another process, a TCP worker speaking the wire protocol
// (internal/wire). See README "Running distributed" and cmd/pkgnode.
type (
	// WindowedOption customizes a WindowedAggregate declaration.
	WindowedOption = engine.WindowedOption
	// WindowFinalHost is the handler of a remote final stage: it merges
	// partials and closes windows on the minimum source watermark.
	WindowFinalHost = window.FinalHandler
	// WindowPartialHost is the handler of a remote partial stage: it
	// accumulates tuples and forwards flushed partials to final nodes.
	WindowPartialHost = window.PartialHandler
	// WindowPartialHostOptions names a partial node (index, node count)
	// and its final nodes (addresses, key→final hash seed).
	WindowPartialHostOptions = window.PartialHandlerOptions
	// NetWorker is a TCP server dispatching decoded wire frames to its
	// handler.
	NetWorker = transport.Worker
	// NetHandler is the processing side of a TCP worker; calls are
	// serialized.
	NetHandler = transport.Handler
	// NetWindowResult is one closed (key, window) pair collected from a
	// remote final node.
	NetWindowResult = wire.WindowResult
)

// WindowRemoteFinal replaces the aggregation's in-process final stage
// with a forwarder shipping partials (key-grouped) and watermarks to
// remote final nodes: pkgnode processes, or ListenNetHandler listeners
// serving a WindowFinalHost.
func WindowRemoteFinal(addrs ...string) WindowedOption { return engine.RemoteFinal(addrs...) }

// WindowRemotePartial runs the aggregation's partial stage on remote
// nodes serving a WindowPartialHost. Raw tuples cross a credit-flow-
// controlled wire edge, so a slow node stalls the spout like a full
// local queue. The spec must use SourceMark watermarks.
func WindowRemotePartial(addrs ...string) WindowedOption { return engine.RemotePartial(addrs...) }

// NewWindowFinalHost builds the remote-final host for a plan. sources
// counts the upstream mark-emitting sources: the partial stage's
// parallelism, or the partial node count under WindowRemotePartial.
func NewWindowFinalHost(plan *WindowPlan, sources int) (*WindowFinalHost, error) {
	return plan.NewFinalHandler(sources)
}

// NewWindowPartialHost builds the remote-partial host for a plan. The
// plan must use SourceMark watermarks, and the final nodes must be
// listening (they are dialed here).
func NewWindowPartialHost(plan *WindowPlan, o WindowPartialHostOptions) (*WindowPartialHost, error) {
	return plan.NewPartialHandler(o)
}

// ListenNetHandler starts a TCP worker dispatching to h, e.g. a
// WindowFinalHost or a WindowPartialHost.
func ListenNetHandler(addr string, h NetHandler) (*NetWorker, error) {
	return transport.ListenHandler(addr, h)
}

// NetDrainResults polls a windowed final node until every source has
// finished, then pages out its closed (key, window) results.
func NetDrainResults(addr string, timeout time.Duration) ([]NetWindowResult, error) {
	return transport.DrainResults(addr, timeout)
}

// NetSubscribeResults subscribes to a windowed final node and collects
// the results it pushes as windows close, until the node reports done.
func NetSubscribeResults(addr string, timeout time.Duration) ([]NetWindowResult, error) {
	return transport.SubscribeResults(addr, timeout)
}
