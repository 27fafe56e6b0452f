package window

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"time"

	"pkgstream/internal/edge"
	"pkgstream/internal/engine"
	"pkgstream/internal/metrics"
	"pkgstream/internal/trace"
	"pkgstream/internal/transport"
	"pkgstream/internal/wire"
)

// This file is the tuple half of the distributed two-phase aggregation:
// with PartialHandler the PARTIAL stage itself leaves the engine
// process (pkgnode -mode partial), so the paper's full deployment shape
// — spout, partial workers and final aggregators in separate processes
// — runs over real wires. Two pieces make that span:
//
//   - tupleForwarder, the engine bolt behind engine.RemotePartial: it
//     ships raw tuples to the partial nodes over a credit-flow-
//     controlled edge.Wire (PKG-routed by default, or D-/W-Choices with
//     the forwarder's own per-source sketch), relays SourceMark
//     watermarks, and closes the stream with final marks — a stalled
//     partial node exhausts the credit window, which blocks this bolt,
//     fills its bounded queue, and stalls the spout: local-channel
//     backpressure semantics across TCP;
//   - PartialHandler, the transport.Handler hosting an ordinary
//     PartialBolt on the remote side: tuples accumulate per (key,
//     window), flushes follow the plan's aggregation period (tuple
//     count, or Tick from a wall-clock driver) and the watermark (a
//     completed window goes out at once), and flushed partials
//     forward — key-grouped, with bounded-backoff retry — to the final
//     nodes, marks riding behind the data they cover.

// PartialHandlerOptions configures a hosted partial stage.
type PartialHandlerOptions struct {
	// ID is this node's index among the partial nodes — the source ID
	// its watermark marks carry toward the final nodes. Distinct per
	// node, in [0, Nodes).
	ID int
	// Nodes is the total number of partial nodes feeding the finals
	// (the finals' expected source count).
	Nodes int
	// FinalAddrs are the final node addresses.
	FinalAddrs []string
	// Seed derives the key→final-node hash; it must match across every
	// partial node (all partials of a key must meet at one final).
	Seed uint64
}

// NewPartialHandler builds the hosting handler for this plan's partial
// stage: the engine room of `pkgnode -mode partial`. The plan must use
// SourceMark watermarks (Spec.Sources ≥ 1) — across a process boundary
// stream end is a final mark, not a channel close — and its aggregator
// must have a wire form (the int64 Combiner fast path or a StateCodec).
// The final nodes are dialed here, so start them first.
func (p *Plan) NewPartialHandler(o PartialHandlerOptions) (*PartialHandler, error) {
	if len(o.FinalAddrs) == 0 {
		return nil, fmt.Errorf("window: partial handler with no final node addresses")
	}
	if o.Nodes <= 0 || o.ID < 0 || o.ID >= o.Nodes {
		return nil, fmt.Errorf("window: partial handler needs 0 ≤ ID < Nodes, got ID %d of %d", o.ID, o.Nodes)
	}
	if p.spec.Sources <= 0 {
		return nil, fmt.Errorf("window: a remote partial stage needs SourceMark watermarks (Spec.Sources ≥ 1)")
	}
	var codec StateCodec
	if p.comb == nil {
		c, ok := p.agg.(StateCodec)
		if !ok {
			return nil, fmt.Errorf("window: aggregator %T has no int64 fast path and no StateCodec; partial states need a wire form to cross processes", p.agg)
		}
		codec = c
	}
	h := &PartialHandler{
		plan:    p,
		bolt:    p.NewPartial().(*PartialBolt),
		sources: p.spec.Sources,
		finals:  map[uint32]bool{},
		snd: partialSender{
			comp: fmt.Sprintf("remote-partial[%d]", o.ID), addrs: o.FinalAddrs, codec: codec,
			opts: transport.SourceOptions{Mode: transport.ModeKG, Seed: o.Seed},
		},
	}
	h.bolt.host = h
	h.bolt.Prepare(&engine.Context{
		Component: "remote-partial", Index: o.ID, Parallelism: o.Nodes,
	})
	if err := h.snd.dial(); err != nil {
		return nil, fmt.Errorf("window: partial handler: %w", err)
	}
	return h, nil
}

// PartialHandler hosts a windowed partial stage behind a
// transport.Worker: decoded tuples accumulate in an ordinary
// PartialBolt; marks relay the engine sources' watermarks into it; and
// every flush the bolt makes — tuple-count, Tick-driven, a window the
// watermark completed, or the final cleanup once all sources are done —
// forwards its partials and watermark to the final nodes through a
// retrying partialSender.
//
// The transport worker serializes handler calls, and the handler's own
// mutex covers the accessors, so a PartialHandler is safe to inspect
// while sources stream.
type PartialHandler struct {
	mu      sync.Mutex
	plan    *Plan
	bolt    *PartialBolt
	snd     partialSender
	sources int
	finals  map[uint32]bool

	processed int64
	bad       int64
	done      bool
	err       error
}

// forward is where the hosted PartialBolt hands each flushed partial —
// plain arguments, no tuple built around them. It runs under h.mu (every
// bolt call sits inside the handler lock). The first delivery failure
// latches: the handler keeps absorbing and counting, but Err reports the
// edge as dead.
func (h *PartialHandler) forward(key string, hash uint64, start, n int64, st State, traceID uint64) {
	if h.err == nil {
		h.err = h.snd.sendPartial(key, hash, start, n, st, traceID)
	}
}

// forwardMark relays the hosted bolt's watermark to every final node,
// behind the partials it covers.
func (h *PartialHandler) forwardMark(from int, wm int64) {
	if h.err == nil {
		h.err = h.snd.sendMark(uint32(from), wm)
	}
}

// execute runs one decoded tuple through the hosted bolt. The wire
// carries the key's routing hash, so the tuple is built with its hash
// cache already warm; the decode buffer is the worker's, so values are
// copied before the bolt may retain them.
func (h *PartialHandler) execute(t *wire.Tuple) {
	et := engine.HashedTuple(t.Key, t.KeyHash)
	et.EmitNanos, et.TraceID, et.LatStamp, et.Tick = t.EmitNanos, t.TraceID, t.LatStamp, t.Tick
	if len(t.Values) > 0 {
		et.Values = append(engine.Values{}, t.Values...)
	}
	h.bolt.Execute(et, nil)
}

// HandleTuple implements transport.Handler: one stream tuple
// accumulates into the bolt (which may flush itself on the plan's
// tuple-count period or a completed window).
func (h *PartialHandler) HandleTuple(t *wire.Tuple) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.done {
		h.bad++ // a tuple after every source's final mark: protocol misuse
		return
	}
	h.execute(t)
	h.processed++
}

// HandleTupleBatch implements transport.TupleBatchHandler: a whole
// decoded batch accumulates under one lock acquisition — the receive
// half of the batched spout→partial edge.
func (h *PartialHandler) HandleTupleBatch(ts []wire.Tuple) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.done {
		h.bad += int64(len(ts)) // tuples after every source's final mark: protocol misuse
		return
	}
	for i := range ts {
		h.execute(&ts[i])
	}
	h.processed += int64(len(ts))
}

// HandlePartial implements transport.Handler: a partial node consumes
// raw tuples, not partials — partials are counted as protocol misuse.
func (h *PartialHandler) HandlePartial(*wire.Partial) {
	h.mu.Lock()
	h.bad++
	h.mu.Unlock()
}

// HandleMark implements transport.Handler: the engine source's
// watermark advances the bolt's per-source table (the bolt broadcasts
// its own minimum at each flush, and at once when it completes a
// window). Once every expected source has sent
// its final mark, the bolt cleans up — the last flush, whose MaxInt64
// mark tells the finals this node will never send another partial.
func (h *PartialHandler) HandleMark(m wire.Mark) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.done {
		return
	}
	h.bolt.Execute(SourceMark(int(m.Source), m.WM), nil)
	if m.Final() {
		h.finals[m.Source] = true
		if len(h.finals) >= h.sources {
			h.done = true
			h.bolt.Cleanup(nil)
			if err := h.snd.close(); err != nil && h.err == nil {
				h.err = err
			}
		}
	}
}

// Tick drives a flush from a wall-clock ticker (pkgnode runs one when
// the plan's Period is set) — the remote form of the engine's
// TickEvery.
func (h *PartialHandler) Tick() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.done {
		return
	}
	h.bolt.Execute(engine.Tuple{Tick: true}, nil)
}

// HandleQuery implements transport.Handler.
//
//	OpStats — the number of tuples absorbed, plus Done (the basis for
//	          cross-node imbalance measurements: per-node tuple counts
//	          are exactly the paper's worker-load vector) and the node's
//	          emit→arrival latency histogram, so a source pulls remote
//	          latency summaries over the query channel without HTTP;
//	OpTrace — the process name plus the retained trace spans, for
//	          cross-process trace assembly.
func (h *PartialHandler) HandleQuery(q wire.Query) wire.Reply {
	h.mu.Lock()
	defer h.mu.Unlock()
	switch q.Op {
	case wire.OpStats:
		return wire.Reply{
			Op: q.Op, Done: h.done, Count: h.processed,
			Lat:       wireHist(h.bolt.inst.hist.Snapshot()),
			Telemetry: telemetry(h.bolt.WindowStats(), h.snd.EdgeStats(), metrics.HistSnapshot{}),
		}
	case wire.OpTrace:
		return wire.Reply{
			Op: q.Op, Done: h.done,
			Proc: trace.Process(), Spans: transport.TraceSpans(),
		}
	default:
		return wire.Reply{Op: q.Op}
	}
}

// Done reports whether every expected source has sent its final mark
// (at which point the last partials and the final mark are out).
func (h *PartialHandler) Done() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.done
}

// Err returns the first delivery failure toward the final nodes (nil
// while the edge is healthy). A non-nil Err means the node kept
// absorbing but its output is incomplete — callers should fail loudly.
func (h *PartialHandler) Err() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.err
}

// Processed returns the number of tuples absorbed.
func (h *PartialHandler) Processed() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.processed
}

// BadFrames counts frames the handler could not apply.
func (h *PartialHandler) BadFrames() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.bad
}

// Stats returns the hosted partial stage's window counters.
func (h *PartialHandler) Stats() engine.WindowStats {
	return h.bolt.WindowStats()
}

// LatencyStats returns the hosted partial stage's emit→arrival latency
// histogram (sampled tuples only).
func (h *PartialHandler) LatencyStats() metrics.HistSnapshot {
	return h.bolt.inst.hist.Snapshot()
}

// EdgeStats returns the partial→final forwarding counters.
func (h *PartialHandler) EdgeStats() engine.EdgeStats {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.snd.EdgeStats()
}

// WaitDone blocks until Done or the timeout expires.
func (h *PartialHandler) WaitDone(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for !h.Done() {
		if err := h.Err(); err != nil {
			return err
		}
		if time.Now().After(deadline) {
			h.mu.Lock()
			n := len(h.finals)
			h.mu.Unlock()
			return fmt.Errorf("window: partial handler saw %d/%d final marks after %v",
				n, h.sources, timeout)
		}
		time.Sleep(time.Millisecond)
	}
	return h.Err()
}

var _ engine.RemotePartialOp = (*Plan)(nil)

// NewRemotePartial implements engine.RemotePartialOp: the factory for
// the tuple forwarder that replaces this plan's in-process partial
// stage (engine.RemotePartial wires it up). It errors when the plan
// does not use SourceMark watermarks — across a process boundary,
// stream end must be an explicit final mark.
func (p *Plan) NewRemotePartial(cfg engine.RemotePartialConfig, seed uint64) (func() engine.Bolt, error) {
	if len(cfg.Addrs) == 0 {
		return nil, fmt.Errorf("window: remote partial with no node addresses")
	}
	if p.spec.Sources <= 0 {
		return nil, fmt.Errorf("window: a remote partial stage needs SourceMark watermarks (Spec.Sources ≥ 1)")
	}
	return func() engine.Bolt {
		in := &instrumentation{}
		p.mu.Lock()
		p.parts = append(p.parts, in)
		p.mu.Unlock()
		return &tupleForwarder{plan: p, cfg: cfg, seed: seed, inst: in}
	}, nil
}

// tupleForwarder is the engine bolt of a RemotePartial aggregation: a
// single funnel shipping raw tuples to the partial nodes over a
// flow-controlled edge.Wire. Routing happens HERE, per forwarder, on
// one local load estimate (and one hot-key sketch for the
// frequency-aware strategies) — the same coordination-free contract as
// every other source in this tree.
type tupleForwarder struct {
	plan *Plan
	cfg  engine.RemotePartialConfig
	seed uint64
	inst *instrumentation

	e       *edge.Wire
	mu      sync.Mutex // guards e for EdgeStats readers vs Prepare
	scratch wire.Tuple
	seen    map[int]bool // source IDs observed in marks
}

// Prepare implements engine.Bolt: it dials the partial nodes. The
// edge batches tuples by default; the forwarder turns the linger
// flusher on (2ms unless configured) because engine timer ticks never
// reach this edge — without it a trickling spout could strand a
// partial batch until the next mark.
func (b *tupleForwarder) Prepare(ctx *engine.Context) {
	linger := b.cfg.Linger
	if linger == 0 {
		linger = 2 * time.Millisecond
	}
	if linger < 0 {
		linger = 0
	}
	e, err := edge.DialWire(b.cfg.Addrs, edge.WireOptions{
		Mode: b.cfg.Strategy, ModeSet: b.cfg.StrategySet, Seed: b.seed,
		Start: ctx.Index, D: b.cfg.D, Hot: b.cfg.Hot, Window: b.cfg.Window,
		MaxBatchTuples: b.cfg.MaxBatchTuples, MaxBatchBytes: b.cfg.MaxBatchBytes,
		Linger:         linger,
		AdaptiveWindow: b.cfg.AdaptiveWindow, MinWindow: b.cfg.MinWindow,
		MaxWindow: b.cfg.MaxWindow, WeightedRouting: b.cfg.WeightedRouting,
	})
	if err != nil {
		panic(&engine.EdgeError{
			Component: ctx.Component, Addr: strings.Join(b.cfg.Addrs, ","),
			Attempts: 1, Err: err,
		})
	}
	b.mu.Lock()
	b.e = e
	b.mu.Unlock()
	b.seen = map[int]bool{}
}

// Execute implements engine.Bolt: SourceMark ticks broadcast as wire
// marks (data flushed first, so the promise never overtakes what it
// covers); data tuples route to their node under credit flow control —
// when a node's window is exhausted, this blocks, and with it the
// spout. Engine timer ticks stay local: flush cadence on the remote
// nodes is their own (tuple-count or their wall-clock driver).
func (b *tupleForwarder) Execute(t engine.Tuple, out engine.Emitter) {
	if t.Tick {
		if len(t.Values) == 1 {
			if sm, ok := t.Values[0].(srcMark); ok {
				b.seen[sm.src] = true
				if err := b.e.Watermark(uint32(sm.src), sm.wm); err != nil {
					panic(b.edgeErr(err))
				}
				b.inst.flushes.Add(1)
			}
		}
		return
	}
	s := &b.scratch
	s.KeyHash = t.RouteKey()
	s.Key = t.Key
	s.EmitNanos = t.EmitNanos
	s.TraceID = t.TraceID
	s.LatStamp = t.LatStamp
	s.Tick = false
	s.Values = append(s.Values[:0], t.Values...)
	if err := b.e.SendTuple(s); err != nil {
		panic(b.edgeErr(err))
	}
	b.inst.partialsOut.Add(1)
}

// Cleanup implements engine.Bolt: the engine guarantees every upstream
// spout has finished, so each source's final mark goes out — the
// explicit stream-end signal the partial nodes turn into their own
// cleanup flush — and the edge closes.
func (b *tupleForwarder) Cleanup(engine.Emitter) {
	for src := 0; src < b.plan.spec.Sources; src++ {
		b.seen[src] = true
	}
	for src := range b.seen {
		if err := b.e.Watermark(uint32(src), math.MaxInt64); err != nil {
			panic(b.edgeErr(err))
		}
	}
	if err := b.e.Close(); err != nil {
		panic(b.edgeErr(err))
	}
}

func (b *tupleForwarder) edgeErr(err error) error {
	return &engine.EdgeError{
		Component: "remote-partial-forwarder",
		Addr:      strings.Join(b.cfg.Addrs, ","),
		Attempts:  edge.SendAttempts,
		Err:       err,
	}
}

// WindowStats implements engine.WindowStatsSource: PartialsOut counts
// forwarded tuples and Flushes counts relayed source marks.
func (b *tupleForwarder) WindowStats() engine.WindowStats { return b.inst.snapshot() }

// EdgeStats implements engine.EdgeStatsSource: the wire edge's frame,
// stall and retry counters surface through Stats.Edges — Stalls is
// where remote backpressure becomes visible in the engine process.
func (b *tupleForwarder) EdgeStats() engine.EdgeStats {
	b.mu.Lock()
	e := b.e
	b.mu.Unlock()
	if e == nil {
		return engine.EdgeStats{}
	}
	return e.Stats()
}
