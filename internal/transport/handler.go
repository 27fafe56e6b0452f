package transport

import (
	"sync"

	"pkgstream/internal/trace"
	"pkgstream/internal/wire"
)

// Handler is the pluggable processing side of a Worker: every decoded
// frame the worker absorbs is dispatched to exactly one of these
// methods. The worker SERIALIZES handler calls across all of its
// connections, so a handler needs no locking for frame-driven state —
// window.FinalHandler runs an ordinary single-threaded FinalBolt behind
// this contract. State also read from *other* goroutines (a test
// polling counts while sources stream) still needs the handler's own
// synchronization.
//
// The pointer arguments are only valid for the duration of the call:
// the worker reuses its decode buffers, so a handler that retains a
// tuple or partial must copy it.
type Handler interface {
	// HandleTuple absorbs one stream tuple.
	HandleTuple(t *wire.Tuple)
	// HandlePartial absorbs one flushed (key, window) partial.
	HandlePartial(p *wire.Partial)
	// HandleMark absorbs one source watermark.
	HandleMark(m wire.Mark)
	// HandleQuery answers a point query; the reply is written back on
	// the connection the query arrived on.
	HandleQuery(q wire.Query) wire.Reply
}

// TupleBatchHandler is the optional Handler extension for batched
// tuple frames (wire.KindTupleBatch): the worker hands the whole
// decoded batch over in ONE serialized call — one lock acquisition,
// one ack-accounting pass — instead of n HandleTuple dispatches.
// Handlers without it keep working: the worker unrolls the batch into
// per-tuple HandleTuple calls under a single lock hold. The slice, the
// tuples and their Values are only valid for the duration of the call
// (the worker reuses its decode buffers).
type TupleBatchHandler interface {
	Handler
	// HandleTupleBatch absorbs one decoded tuple batch.
	HandleTupleBatch(ts []wire.Tuple)
}

// ResultSink is the push half of a Subscribe session: the worker hands
// one to the handler when a connection subscribes, and the handler
// writes server-initiated Reply frames through it whenever it has news
// (closed windows, the final Done). The handler hands over finished
// frame bytes — window.FinalHandler frames results it encoded once, when
// their window closed (wire.AppendResultsHeader + the encoded page) — and
// the sink writes them as they are, encoding nothing. Push is safe to
// call from any handler method (writes are serialized with the
// connection's query replies and acks); a failed Push means the
// subscriber is gone and the handler should drop the sink.
type ResultSink interface {
	// Push writes one framed OpResults-shaped KindReply on the
	// subscribed connection. The sink does not retain frame after Push
	// returns, so the caller may reuse it.
	Push(frame []byte) error
}

// PushHandler is the optional Handler extension for push delivery: a
// worker that receives a wire.Subscribe frame dispatches it here with
// a sink bound to the subscribing connection. Handlers that do not
// implement it make Subscribe a protocol violation (the connection
// drops), so a counter node cannot be subscribed to by mistake.
type PushHandler interface {
	Handler
	// HandleSubscribe registers a subscriber. The sink stays valid
	// until a Push fails.
	HandleSubscribe(s wire.Subscribe, sink ResultSink)
}

// CountHandler is the classic PKG worker: a per-key partial counter
// over everything routed to it. Tuples count 1 under their routing
// hash; partials add their Combiner count (opaque states are counted
// as 1 — a counter worker cannot merge them). It answers OpCount with
// the key's partial count and OpStats with the number of frames
// absorbed.
type CountHandler struct {
	mu        sync.Mutex
	counts    map[uint64]int64
	processed int64
}

// NewCountHandler returns an empty counter.
func NewCountHandler() *CountHandler {
	return &CountHandler{counts: make(map[uint64]int64)}
}

// HandleTuple implements Handler.
func (h *CountHandler) HandleTuple(t *wire.Tuple) {
	h.mu.Lock()
	h.counts[t.KeyHash]++
	h.processed++
	h.mu.Unlock()
	if t.TraceID != 0 {
		trace.Add(t.TraceID, trace.HopDispatch, trace.Now(), 0, 0, 0, "counter")
	}
}

// HandleTupleBatch implements TupleBatchHandler: the whole batch
// counts under one lock acquisition.
func (h *CountHandler) HandleTupleBatch(ts []wire.Tuple) {
	h.mu.Lock()
	for i := range ts {
		h.counts[ts[i].KeyHash]++
	}
	h.processed += int64(len(ts))
	h.mu.Unlock()
	for i := range ts {
		if ts[i].TraceID != 0 {
			trace.Add(ts[i].TraceID, trace.HopDispatch, trace.Now(), 0, 0, 0, "counter")
		}
	}
}

// HandlePartial implements Handler.
func (h *CountHandler) HandlePartial(p *wire.Partial) {
	n := p.Count
	if p.Raw != nil {
		n = 1
	}
	h.mu.Lock()
	h.counts[p.KeyHash] += n
	h.processed++
	h.mu.Unlock()
}

// HandleMark implements Handler (counters have no windows to close).
func (h *CountHandler) HandleMark(wire.Mark) {}

// HandleQuery implements Handler.
func (h *CountHandler) HandleQuery(q wire.Query) wire.Reply {
	h.mu.Lock()
	defer h.mu.Unlock()
	switch q.Op {
	case wire.OpCount:
		return wire.Reply{Op: q.Op, Count: h.counts[q.Key]}
	case wire.OpStats:
		return wire.Reply{Op: q.Op, Count: h.processed}
	case wire.OpTrace:
		return wire.Reply{Op: q.Op, Proc: trace.Process(), Spans: TraceSpans()}
	default:
		return wire.Reply{Op: q.Op}
	}
}

// TraceSpans snapshots the process-global trace ring in wire form —
// the payload of an OpTrace reply (nil when nothing was recorded).
func TraceSpans() []wire.Span {
	spans := trace.Default.Snapshot()
	if len(spans) == 0 {
		return nil
	}
	out := make([]wire.Span, len(spans))
	for i, s := range spans {
		out[i] = wire.Span{Trace: s.Trace, Start: s.Start, Dur: s.Dur,
			Arg1: s.Arg1, Arg2: s.Arg2, Hop: byte(s.Hop), Note: s.Note}
	}
	return out
}

// SpansFromWire converts an OpTrace reply's spans back to trace spans,
// stamping the replying process's name on each — the assembly input
// for cross-process traces (trace.ByTrace).
func SpansFromWire(proc string, ss []wire.Span) []trace.Span {
	out := make([]trace.Span, len(ss))
	for i, s := range ss {
		out[i] = trace.Span{Trace: s.Trace, Start: s.Start, Dur: s.Dur,
			Arg1: s.Arg1, Arg2: s.Arg2, Hop: trace.Hop(s.Hop), Proc: proc, Note: s.Note}
	}
	return out
}

// Count returns the partial count for key.
func (h *CountHandler) Count(key uint64) int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.counts[key]
}

// DistinctKeys returns the number of live partial counters.
func (h *CountHandler) DistinctKeys() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.counts)
}
