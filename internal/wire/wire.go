// Package wire is the serialized form of everything that crosses a
// process boundary in a distributed PKG topology. The paper's whole
// point is *practical* load balancing for distributed stream processing
// engines — §V evaluates PKG across real Storm workers — and the
// windowed two-phase aggregation (internal/window) only spans processes
// once partials, watermarks and sketch summaries have a wire form. This
// package supplies it as a length-prefixed binary codec, hand-rolled
// (no reflection, no gob) so the tuple hot path stays at tens of
// millions of frames per second.
//
// Every frame is
//
//	version (1 byte) | kind (1 byte) | payload length (uint32 LE) | payload
//
// The version byte makes the protocol evolvable: a decoder rejects
// frames from a different version instead of misreading them. Payload
// lengths are bounded (MaxPayload) so a corrupt or hostile header can
// never drive an allocation. Decoding NEVER panics — every truncation,
// overflow and unknown tag returns an error (FuzzRoundTrip in this
// package holds that line).
//
// The five frame families:
//
//	Tuple    — a stream tuple: uint64 routing hash, optional string
//	           key, typed values (source → worker, fire and forget);
//	Partial  — one flushed (key, window) partial accumulator of the
//	           windowed two-phase aggregation (partial stage → final);
//	Mark     — a watermark from one source, identified by its source
//	           ID so the final stage can advance on the minimum across
//	           live sources;
//	Sketch   — a Space-Saving summary snapshot, used to checkpoint a
//	           source's hot-key classifier across restarts;
//	Query /  — a point-query request and its reply (client → worker →
//	Reply      client): per-key counts, closed window results, or
//	           node statistics.
//
// Three control families added for flow-controlled edges and push
// delivery (PR 5):
//
//	Credit    — sender → worker: opens a credit-based flow-control
//	            session on the connection, declaring the maximum number
//	            of unacknowledged tuples the sender will keep in
//	            flight;
//	Ack       — worker → sender: the cumulative count of tuples
//	            absorbed on this connection, replenishing the sender's
//	            credit window (a slow worker therefore stalls its
//	            sender instead of ballooning the TCP buffer);
//	Subscribe — client → final node: register this connection for push
//	            delivery of closed-window results (Reply frames are
//	            then server-initiated, removing the poll).
//
// One data family added for batched edges (PR 6):
//
//	TupleBatch — n stream tuples under ONE header: a uvarint count
//	             followed by n contiguous tuple bodies (the KindTuple
//	             payload layout, which is self-delimiting — no
//	             per-tuple header, version byte, or length prefix).
//	             This is what lets a flow-controlled edge amortize
//	             framing, syscalls and credit accounting over a whole
//	             batch. The protocol version stays 1: kinds are part
//	             of the header validation, so a pre-batch decoder
//	             rejects a TupleBatch frame cleanly ("unknown frame
//	             kind") instead of misreading it.
//
// One control family added for adaptive flow control (PR 10):
//
//	CreditUpdate — sender → worker: re-sizes a live flow-control
//	               session's window mid-stream, so the sender's AIMD
//	               controller can grow or shrink the in-flight bound
//	               without redialing. Additive under the same version-1
//	               unknown-kind rules as TupleBatch; Ack frames gained
//	               an optional trailing service-time field (old acks
//	               end at the count and keep decoding unchanged).
package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Version is the protocol version emitted and accepted by this build.
const Version = 1

// HeaderSize is the fixed size of every frame header.
const HeaderSize = 6

// MaxPayload bounds a frame's payload so a corrupt length field cannot
// drive an allocation (16 MiB is orders of magnitude above any frame
// this tree emits).
const MaxPayload = 1 << 24

// Kind identifies a frame family.
type Kind uint8

// The frame kinds.
const (
	KindInvalid Kind = iota
	// KindTuple is a stream tuple.
	KindTuple
	// KindPartial is one flushed (key, window) partial state.
	KindPartial
	// KindMark is a source watermark.
	KindMark
	// KindSketch is a Space-Saving summary snapshot.
	KindSketch
	// KindQuery is a point-query request.
	KindQuery
	// KindReply is a point-query reply.
	KindReply
	// KindCredit opens a flow-control session (sender → worker).
	KindCredit
	// KindAck replenishes a sender's credit window (worker → sender).
	KindAck
	// KindSubscribe registers a connection for result pushes.
	KindSubscribe
	// KindTupleBatch is a batch of stream tuples under one header.
	KindTupleBatch
	// KindCreditUpdate re-sizes a live flow-control session's window
	// mid-stream (sender → worker).
	KindCreditUpdate
	kindEnd
)

// String returns the kind's name.
func (k Kind) String() string {
	switch k {
	case KindTuple:
		return "tuple"
	case KindPartial:
		return "partial"
	case KindMark:
		return "mark"
	case KindSketch:
		return "sketch"
	case KindQuery:
		return "query"
	case KindReply:
		return "reply"
	case KindCredit:
		return "credit"
	case KindAck:
		return "ack"
	case KindSubscribe:
		return "subscribe"
	case KindTupleBatch:
		return "tuple-batch"
	case KindCreditUpdate:
		return "credit-update"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Tuple is the wire form of a stream tuple: the 64-bit routing hash
// every strategy routes on, the optional string key, the event-time
// stamp, and a small set of typed values. Supported value types are
// int64, int (encoded as int64), uint64, float64, bool, string and
// []byte; AppendTuple reports anything else as an error instead of
// guessing.
type Tuple struct {
	// KeyHash is the 64-bit routing hash (engine.Tuple.KeyHash).
	KeyHash uint64
	// Key is the string key ("" for integer-keyed streams).
	Key string
	// EmitNanos is the event-time stamp in nanoseconds.
	EmitNanos int64
	// LatStamp is the wall-clock latency stamp of a sampled tuple
	// (engine.Tuple.LatStamp, absolute microseconds mod 2^32); 0 means
	// "not sampled" and costs nothing on the wire — the 4-byte stamp
	// travels only when present (flag bit 4).
	LatStamp uint32
	// TraceID is the distributed trace ID of a sampled tuple
	// (engine.Tuple.TraceID); 0 means "not traced" and costs nothing on
	// the wire — the 8-byte ID travels only when present (flag bit 8).
	TraceID uint64
	// Tick marks control tuples.
	Tick bool
	// Values is the payload.
	Values []any
}

// Partial is the wire form of one flushed (key, window) partial
// accumulator. On the Combiner fast path the state is a single int64
// (Count); general aggregator states travel as opaque bytes (Raw,
// encoded by a window.StateCodec).
type Partial struct {
	// KeyHash is the 64-bit routing hash (the final stage key-groups
	// partials on it).
	KeyHash uint64
	// Key is the original string key ("" for integer-keyed streams).
	Key string
	// Start is the window start in event-time nanoseconds.
	Start int64
	// Count is the int64 accumulator of the Combiner fast path.
	Count int64
	// Raw is the encoded accumulator of a general aggregator; nil
	// selects the Count fast path.
	Raw []byte
	// TraceID carries a traced tuple's trace ID onto the partial that
	// ships its window state downstream (flag bit 4); 0 means "no
	// traced tuple touched this window" and costs nothing on the wire.
	TraceID uint64
}

// Mark is the wire form of a watermark: source Source promises to never
// again send a tuple or partial with event time below WM. A WM of
// math.MaxInt64 is the source's final mark — "this source is done". The
// receiving final stage advances on the minimum across all live
// sources, which is what removes the manual lateness knob for
// multi-source topologies.
type Mark struct {
	// Source identifies the emitting source (globally unique per
	// stream; a remote windowed plan uses the partial instance index).
	Source uint32
	// WM is the watermark in event-time nanoseconds.
	WM int64
}

// Final reports whether this is the source's final mark.
func (m Mark) Final() bool { return m.WM == math.MaxInt64 }

// SketchItem is one monitored item of a Space-Saving summary.
type SketchItem struct {
	// Item is the item identifier (a key hash).
	Item uint64
	// Count is the estimated frequency (never negative).
	Count int64
	// Err bounds the overestimation of Count (never negative).
	Err int64
}

// Sketch is the wire form of a Space-Saving summary — the O(5W)
// checkpoint a source persists so a restart does not route head keys as
// cold until the sketch re-warms.
type Sketch struct {
	// K is the summary capacity.
	K int
	// N is the total observation weight.
	N int64
	// Items are the monitored items (at most K).
	Items []SketchItem
}

// QueryOp selects what a Query asks for.
type QueryOp uint8

// The query operations.
const (
	// OpCount asks for the node's count for Key (a counter worker's
	// partial count, or a final node's total over closed windows).
	OpCount QueryOp = 1
	// OpResults asks a final node for its closed window results so far
	// plus whether every expected source has sent its final mark.
	OpResults QueryOp = 2
	// OpStats asks for the node's absorbed frame count.
	OpStats QueryOp = 3
	// OpTrace asks for the node's retained trace spans (the flight
	// recorder ring) plus its process name, so a client can assemble
	// cross-process traces without HTTP.
	OpTrace QueryOp = 4
)

// Query is a point-query request.
type Query struct {
	// Op selects the operation.
	Op QueryOp
	// Key is the queried key hash (OpCount only).
	Key uint64
}

// WindowResult is one closed (key, window) pair in an OpResults reply.
type WindowResult struct {
	// KeyHash is the key's routing hash.
	KeyHash uint64
	// Key is the string key ("" for integer-keyed streams).
	Key string
	// Start and End delimit the window in event-time nanoseconds.
	Start, End int64
	// Value is the aggregated value on the int64 fast path.
	Value int64
	// Raw is the encoded value of a general aggregator; nil selects
	// Value.
	Raw []byte
}

// HistBucket is one non-empty bucket of a wire latency histogram.
type HistBucket struct {
	// Index is the bucket index in the log-linear layout of
	// internal/metrics (metrics.HistSnapshot.Sparse).
	Index uint32
	// Count is the bucket's observation count (never negative).
	Count int64
}

// LatencyHist is the wire form of a latency histogram snapshot: the
// sparse non-empty buckets plus the observation sum in nanoseconds.
// Mergeable on the receiving side (metrics.FromSparse + Merge), so a
// source pulls per-node latency summaries over the existing OpStats
// query without HTTP.
type LatencyHist struct {
	// Sum is the total of all observations in nanoseconds.
	Sum int64
	// Buckets are the non-empty buckets in ascending index order.
	Buckets []HistBucket
}

// Span is the wire form of one trace span (internal/trace.Span): a hop
// of a traced tuple's life, or a flight-recorder event (Trace 0). Spans
// travel in OpTrace replies as a trailing section so the pipeline
// experiment can assemble a tuple's cross-process causal path over the
// existing query channel.
type Span struct {
	// Trace is the tuple's trace ID (0 for flight-recorder events).
	Trace uint64
	// Start is the span's wall-clock start in nanoseconds since the
	// epoch; Dur its duration in nanoseconds.
	Start, Dur int64
	// Arg1, Arg2 are hop-specific integers.
	Arg1, Arg2 int64
	// Hop identifies the emitting layer (trace.Hop).
	Hop byte
	// Note is a short human-readable detail line.
	Note string
}

// Reply is a point-query reply.
type Reply struct {
	// Op echoes the request operation.
	Op QueryOp
	// Count answers OpCount and OpStats.
	Count int64
	// Done reports whether every expected source has sent its final
	// mark (OpResults).
	Done bool
	// Results are the closed windows so far (OpResults).
	Results []WindowResult
	// Lat is the node's tuple-latency histogram (OpStats, optional —
	// encoded as a trailing section, so pre-histogram decoders that
	// reject trailing bytes simply predate this field).
	Lat *LatencyHist
	// Stale is the node's window-close staleness histogram (OpStats,
	// optional).
	Stale *LatencyHist
	// Proc names the replying process (OpTrace — the process tag the
	// client stamps onto the returned spans when assembling
	// cross-process traces).
	Proc string
	// Spans are the node's retained trace spans (OpTrace, oldest
	// first — encoded as trailing section id 3, invisible to decoders
	// that predate it exactly like the histograms).
	Spans []Span
	// Telemetry is the node's backpressure and progress snapshot
	// (OpStats, optional — trailing section id 4, same compatibility
	// rule as the histograms and spans).
	Telemetry *Telemetry
}

// Telemetry is a node's backpressure and progress snapshot, carried on
// OpStats replies so a cluster-level poller (internal/obs, cmd/pkgtop)
// can merge one view without scraping every node's /metrics endpoint.
// The zero value means "nothing to report"; every field is a snapshot
// at reply time, not a delta.
type Telemetry struct {
	// EdgeInFlight is the number of unacknowledged tuples currently in
	// flight on the node's outbound flow-controlled edge; EdgeQueue is
	// the number of tuples buffered in local edge queues.
	EdgeInFlight, EdgeQueue int64
	// EdgeFrames counts frames sent on the outbound edge; EdgeStalls
	// counts sends that blocked on an exhausted credit window, and
	// EdgeWaitNs is the total nanoseconds those stalls lasted — the
	// stalls/frames and wait/wall ratios are the edge's backpressure
	// signal.
	EdgeFrames, EdgeStalls, EdgeWaitNs int64
	// WatermarkLagNs is how far, in nanoseconds, the node's minimum
	// source watermark trailed wall clock when it last advanced on a
	// wall-clock timeline (0 until a wall-clock mark arrives, frozen at
	// its last value once sources finish).
	WatermarkLagNs int64
	// WindowBacklog is the number of open (live) window slots.
	WindowBacklog int64
	// ServiceNs is the node's per-tuple service-time EWMA on the
	// dispatch path, in nanoseconds (0 until sampled).
	ServiceNs int64
	// EdgeWindow is the summed live credit window of the node's
	// outbound flow-controlled edge connections, in tuples (optional —
	// flag bit 2; 0 on nodes without a flow-controlled edge). Under the
	// adaptive controller this is the actuated value the in-flight
	// gauge is bounded by.
	EdgeWindow int64
	// CreditWait is the credit-stall wait-time histogram (optional).
	CreditWait *LatencyHist
}

// Credit opens a credit-based flow-control session on a connection
// (sender → worker). The sender promises to keep at most Window data
// items unacknowledged in flight, and the worker answers with
// cumulative Ack frames as it absorbs them. The window is denominated
// in TUPLES, not frames: a KindTuple or KindPartial frame costs one
// credit, a KindTupleBatch of n tuples costs n — so batching changes
// the framing, never the amount of buffered data a slow worker admits.
// Marks and queries are control traffic and exempt. A connection that
// never sends Credit runs un-flow-controlled, exactly as before — the
// session is strictly opt-in, so old senders keep working.
type Credit struct {
	// Window is the maximum number of unacknowledged tuples the sender
	// keeps in flight (≥ 1).
	Window int64
}

// Ack replenishes a sender's credit window (worker → sender): Count is
// the cumulative number of tuples the worker has absorbed (n per
// tuple batch) — not a delta — so a lost or reordered Ack can only
// under-report, never double-credit.
type Ack struct {
	// Count is the cumulative absorbed tuple count (≥ 0).
	Count int64
	// ServiceNs piggybacks the worker's per-tuple service-time EWMA in
	// nanoseconds (0: not sampled yet / an old worker — the field is
	// optional on the wire, so pre-update acks keep decoding).
	ServiceNs int64
}

// CreditUpdate re-sizes a live flow-control session's window
// (sender → worker): the sender's adaptive controller announces its
// new in-flight bound so the worker's ack cadence (every window/2
// absorbed tuples) tracks the CURRENT window. A worker that holds
// unacknowledged residue when the update arrives acks immediately —
// otherwise a window shrunk below the old cadence threshold could
// leave the sender waiting on an ack the worker would never send.
// Workers that predate the kind drop the unknown frame at ParseHeader,
// which fails the connection — the sender only emits updates when its
// adaptive mode is explicitly enabled.
type CreditUpdate struct {
	// Window is the new maximum number of unacknowledged tuples the
	// sender keeps in flight (≥ 1).
	Window int64
}

// Subscribe registers the connection it arrives on for push delivery of
// closed-window results: the final node then writes server-initiated
// Reply frames (OpResults-shaped) whenever windows close, removing the
// DrainResults poll from latency-sensitive consumers.
type Subscribe struct {
	// Offset is the index into the node's append-only result log at
	// which pushes start (0: everything, including results that closed
	// before the subscription).
	Offset int64
}

// Value type tags.
const (
	tInt64 byte = iota + 1
	tUint64
	tFloat64
	tBool
	tString
	tBytes
)

// frame reserves a header for kind k on dst and returns (dst, payload
// start) — finish backfills the length.
func frame(dst []byte, k Kind) ([]byte, int) {
	dst = append(dst, Version, byte(k), 0, 0, 0, 0)
	return dst, len(dst)
}

// finish backfills the payload length of the frame whose payload starts
// at `start`.
func finish(dst []byte, start int) []byte {
	binary.LittleEndian.PutUint32(dst[start-4:start], uint32(len(dst)-start))
	return dst
}

func appendU64(dst []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(dst, v)
}

func appendI64(dst []byte, v int64) []byte {
	return binary.LittleEndian.AppendUint64(dst, uint64(v))
}

func appendU32(dst []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(dst, v)
}

func appendStr(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendBytes(dst []byte, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// AppendTuple appends t as a framed KindTuple to dst and returns the
// extended slice. It reports an error (leaving dst unchanged in the
// returned slice) if a value has an unsupported type.
func AppendTuple(dst []byte, t *Tuple) ([]byte, error) {
	undo := len(dst)
	dst, start := frame(dst, KindTuple)
	dst, err := AppendTupleBody(dst, t)
	if err != nil {
		return dst[:undo], err
	}
	return finish(dst, start), nil
}

// AppendTupleBody appends t's encoded body — the KindTuple payload
// layout, with no frame header — to dst. Bodies are self-delimiting, so
// a batched edge accumulates them contiguously in a per-destination
// buffer and frames the whole run as one KindTupleBatch. On an
// unsupported value type the returned slice is dst unchanged.
func AppendTupleBody(dst []byte, t *Tuple) ([]byte, error) {
	undo := len(dst)
	var flags byte
	if t.Tick {
		flags |= 1
	}
	if t.Key == "" && len(t.Values) == 0 && t.LatStamp == 0 && t.TraceID == 0 {
		// Hash-only tuple — the per-tuple cost of a routing-heavy
		// stream: emit the fixed 18-byte body with one append and two
		// direct stores instead of four appends. Reused buffers take
		// the reslice arm and skip append's zeroing.
		n := len(dst)
		if cap(dst)-n >= tupleBodyMin {
			dst = dst[:n+tupleBodyMin]
		} else {
			dst = append(dst, make([]byte, tupleBodyMin)...)
		}
		b := dst[n:]
		b[0] = flags
		binary.LittleEndian.PutUint64(b[1:], t.KeyHash)
		binary.LittleEndian.PutUint64(b[9:], uint64(t.EmitNanos))
		b[17] = 0 // value count
		return dst, nil
	}
	if t.Key != "" {
		flags |= 2
	}
	if t.LatStamp != 0 {
		flags |= 4
	}
	if t.TraceID != 0 {
		flags |= 8
	}
	dst = append(dst, flags)
	dst = appendU64(dst, t.KeyHash)
	dst = appendI64(dst, t.EmitNanos)
	if t.LatStamp != 0 {
		dst = appendU32(dst, t.LatStamp)
	}
	if t.TraceID != 0 {
		dst = appendU64(dst, t.TraceID)
	}
	if t.Key != "" {
		dst = appendStr(dst, t.Key)
	}
	dst = binary.AppendUvarint(dst, uint64(len(t.Values)))
	for _, v := range t.Values {
		switch v := v.(type) {
		case int64:
			dst = append(dst, tInt64)
			dst = appendI64(dst, v)
		case int:
			dst = append(dst, tInt64)
			dst = appendI64(dst, int64(v))
		case uint64:
			dst = append(dst, tUint64)
			dst = appendU64(dst, v)
		case float64:
			dst = append(dst, tFloat64)
			dst = appendU64(dst, math.Float64bits(v))
		case bool:
			dst = append(dst, tBool)
			if v {
				dst = append(dst, 1)
			} else {
				dst = append(dst, 0)
			}
		case string:
			dst = append(dst, tString)
			dst = appendStr(dst, v)
		case []byte:
			dst = append(dst, tBytes)
			dst = appendBytes(dst, v)
		default:
			return dst[:undo], fmt.Errorf("wire: tuple value of unsupported type %T", v)
		}
	}
	return dst, nil
}

// AppendTupleBatch appends ts as one framed KindTupleBatch to dst: a
// uvarint tuple count followed by the tuples' contiguous bodies. On an
// unsupported value type the returned slice is dst unchanged.
func AppendTupleBatch(dst []byte, ts []Tuple) ([]byte, error) {
	undo := len(dst)
	dst, start := frame(dst, KindTupleBatch)
	dst = binary.AppendUvarint(dst, uint64(len(ts)))
	for i := range ts {
		var err error
		if dst, err = AppendTupleBody(dst, &ts[i]); err != nil {
			return dst[:undo], err
		}
	}
	return finish(dst, start), nil
}

// AppendTupleBatchHeader appends the frame header and count prefix of a
// KindTupleBatch whose count tuple bodies span bodyLen bytes. The
// near-zero-copy half of the batched edge: the sender writes this
// prefix and then the accumulated body buffer straight to its
// connection, never assembling header and bodies into one allocation.
func AppendTupleBatchHeader(dst []byte, count, bodyLen int) []byte {
	dst, start := frame(dst, KindTupleBatch)
	dst = binary.AppendUvarint(dst, uint64(count))
	binary.LittleEndian.PutUint32(dst[start-4:start], uint32(len(dst)-start+bodyLen))
	return dst
}

// AppendPartial appends p as a framed KindPartial to dst.
func AppendPartial(dst []byte, p *Partial) []byte {
	dst, start := frame(dst, KindPartial)
	var flags byte
	if p.Key != "" {
		flags |= 1
	}
	if p.Raw != nil {
		flags |= 2
	}
	if p.TraceID != 0 {
		flags |= 4
	}
	dst = append(dst, flags)
	dst = appendU64(dst, p.KeyHash)
	dst = appendI64(dst, p.Start)
	if p.TraceID != 0 {
		dst = appendU64(dst, p.TraceID)
	}
	if p.Raw != nil {
		dst = appendBytes(dst, p.Raw)
	} else {
		dst = appendI64(dst, p.Count)
	}
	if p.Key != "" {
		dst = appendStr(dst, p.Key)
	}
	return finish(dst, start)
}

// AppendMark appends m as a framed KindMark to dst.
func AppendMark(dst []byte, m Mark) []byte {
	dst, start := frame(dst, KindMark)
	dst = binary.AppendUvarint(dst, uint64(m.Source))
	dst = appendI64(dst, m.WM)
	return finish(dst, start)
}

// AppendSketch appends s as a framed KindSketch to dst. Items with
// negative counts or error bounds are rejected by the decoder, not the
// encoder — a sketch snapshot never contains them.
func AppendSketch(dst []byte, s *Sketch) []byte {
	dst, start := frame(dst, KindSketch)
	dst = binary.AppendUvarint(dst, uint64(s.K))
	dst = appendI64(dst, s.N)
	dst = binary.AppendUvarint(dst, uint64(len(s.Items)))
	for _, it := range s.Items {
		dst = appendU64(dst, it.Item)
		dst = binary.AppendUvarint(dst, uint64(it.Count))
		dst = binary.AppendUvarint(dst, uint64(it.Err))
	}
	return finish(dst, start)
}

// AppendQuery appends q as a framed KindQuery to dst.
func AppendQuery(dst []byte, q Query) []byte {
	dst, start := frame(dst, KindQuery)
	dst = append(dst, byte(q.Op))
	dst = appendU64(dst, q.Key)
	return finish(dst, start)
}

// AppendReply appends r as a framed KindReply to dst.
func AppendReply(dst []byte, r *Reply) []byte {
	dst, start := frame(dst, KindReply)
	dst = appendReplyPrefix(dst, r.Op, r.Count, r.Done, len(r.Results))
	for i := range r.Results {
		dst = AppendResult(dst, &r.Results[i])
	}
	spanSec := r.Spans != nil || r.Proc != ""
	if r.Lat != nil || r.Stale != nil || spanSec || r.Telemetry != nil {
		// Trailing optional section: id-tagged entries so any subset can
		// travel alone; pre-section decoders reject the trailing bytes
		// cleanly and so simply predate these fields.
		var n byte
		if r.Lat != nil {
			n++
		}
		if r.Stale != nil {
			n++
		}
		if spanSec {
			n++
		}
		if r.Telemetry != nil {
			n++
		}
		dst = append(dst, n)
		if r.Lat != nil {
			dst = appendHist(dst, histIDLat, r.Lat)
		}
		if r.Stale != nil {
			dst = appendHist(dst, histIDStale, r.Stale)
		}
		if spanSec {
			dst = append(dst, secIDSpans)
			dst = appendStr(dst, r.Proc)
			dst = binary.AppendUvarint(dst, uint64(len(r.Spans)))
			for i := range r.Spans {
				s := &r.Spans[i]
				dst = appendU64(dst, s.Trace)
				dst = appendI64(dst, s.Start)
				dst = appendI64(dst, s.Dur)
				dst = appendI64(dst, s.Arg1)
				dst = appendI64(dst, s.Arg2)
				dst = append(dst, s.Hop)
				dst = appendStr(dst, s.Note)
			}
		}
		if t := r.Telemetry; t != nil {
			dst = append(dst, secIDTelemetry)
			var flags byte
			if t.CreditWait != nil {
				flags |= 1
			}
			if t.EdgeWindow > 0 {
				flags |= 2
			}
			dst = append(dst, flags)
			dst = appendI64(dst, t.EdgeInFlight)
			dst = appendI64(dst, t.EdgeQueue)
			dst = appendI64(dst, t.EdgeFrames)
			dst = appendI64(dst, t.EdgeStalls)
			dst = appendI64(dst, t.EdgeWaitNs)
			dst = appendI64(dst, t.WatermarkLagNs)
			dst = appendI64(dst, t.WindowBacklog)
			dst = appendI64(dst, t.ServiceNs)
			if t.EdgeWindow > 0 {
				dst = appendI64(dst, t.EdgeWindow)
			}
			if t.CreditWait != nil {
				dst = appendHistBody(dst, t.CreditWait)
			}
		}
	}
	return finish(dst, start)
}

// appendReplyPrefix appends the fixed head of a KindReply payload: the
// operation, the count, the done flag and the number of results that
// follow.
func appendReplyPrefix(dst []byte, op QueryOp, count int64, done bool, n int) []byte {
	dst = append(dst, byte(op))
	dst = appendI64(dst, count)
	if done {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	return binary.AppendUvarint(dst, uint64(n))
}

// AppendResult appends the encoding of one closed window — the
// per-result layout of a KindReply payload — to dst. Encodings are
// self-delimiting and carry the key bytes inline, so a final node keeps
// runs of them as its result log and frames a run with
// AppendResultsHeader, never encoding a result twice.
func AppendResult(dst []byte, res *WindowResult) []byte {
	var flags byte
	if res.Key != "" {
		flags |= 1
	}
	if res.Raw != nil {
		flags |= 2
	}
	dst = append(dst, flags)
	dst = appendU64(dst, res.KeyHash)
	dst = appendI64(dst, res.Start)
	dst = appendI64(dst, res.End)
	if res.Raw != nil {
		dst = appendBytes(dst, res.Raw)
	} else {
		dst = appendI64(dst, res.Value)
	}
	if res.Key != "" {
		dst = appendStr(dst, res.Key)
	}
	return dst
}

// AppendResultsHeader appends the frame header and payload head of an
// OpResults KindReply carrying n pre-encoded results (AppendResult
// output) that span bodyLen bytes. Followed by those bytes, it is the
// frame AppendReply writes for the same Reply.
func AppendResultsHeader(dst []byte, count int64, done bool, n, bodyLen int) []byte {
	dst, start := frame(dst, KindReply)
	dst = appendReplyPrefix(dst, OpResults, count, done, n)
	binary.LittleEndian.PutUint32(dst[start-4:start], uint32(len(dst)-start+bodyLen))
	return dst
}

// Entry ids of the Reply trailing section.
const (
	histIDLat      byte = 1
	histIDStale    byte = 2
	secIDSpans     byte = 3
	secIDTelemetry byte = 4
)

func appendHist(dst []byte, id byte, h *LatencyHist) []byte {
	return appendHistBody(append(dst, id), h)
}

func appendHistBody(dst []byte, h *LatencyHist) []byte {
	dst = appendI64(dst, h.Sum)
	dst = binary.AppendUvarint(dst, uint64(len(h.Buckets)))
	for _, b := range h.Buckets {
		dst = binary.AppendUvarint(dst, uint64(b.Index))
		dst = binary.AppendUvarint(dst, uint64(b.Count))
	}
	return dst
}

// AppendCredit appends c as a framed KindCredit to dst.
func AppendCredit(dst []byte, c Credit) []byte {
	dst, start := frame(dst, KindCredit)
	dst = binary.AppendUvarint(dst, uint64(c.Window))
	return finish(dst, start)
}

// AppendAck appends a as a framed KindAck to dst. The service-time
// field travels only when set, so pre-update receivers (which stop
// after Count) and the zero value stay byte-identical to the old
// encoding.
func AppendAck(dst []byte, a Ack) []byte {
	dst, start := frame(dst, KindAck)
	dst = binary.AppendUvarint(dst, uint64(a.Count))
	if a.ServiceNs > 0 {
		dst = binary.AppendUvarint(dst, uint64(a.ServiceNs))
	}
	return finish(dst, start)
}

// AppendCreditUpdate appends u as a framed KindCreditUpdate to dst.
func AppendCreditUpdate(dst []byte, u CreditUpdate) []byte {
	dst, start := frame(dst, KindCreditUpdate)
	dst = binary.AppendUvarint(dst, uint64(u.Window))
	return finish(dst, start)
}

// AppendSubscribe appends s as a framed KindSubscribe to dst.
func AppendSubscribe(dst []byte, s Subscribe) []byte {
	dst, start := frame(dst, KindSubscribe)
	dst = binary.AppendUvarint(dst, uint64(s.Offset))
	return finish(dst, start)
}

// reader is a bounds-checked cursor over one payload. All take methods
// return an error instead of panicking on truncated input.
type reader struct {
	b   []byte
	off int
}

var errTruncated = fmt.Errorf("wire: truncated payload")

func (r *reader) byte() (byte, error) {
	if r.off >= len(r.b) {
		return 0, errTruncated
	}
	v := r.b[r.off]
	r.off++
	return v, nil
}

func (r *reader) u64() (uint64, error) {
	if r.off+8 > len(r.b) {
		return 0, errTruncated
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v, nil
}

func (r *reader) i64() (int64, error) {
	v, err := r.u64()
	return int64(v), err
}

func (r *reader) u32() (uint32, error) {
	if r.off+4 > len(r.b) {
		return 0, errTruncated
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v, nil
}

func (r *reader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("wire: bad uvarint")
	}
	r.off += n
	return v, nil
}

// length reads a uvarint length and checks it fits the remaining
// payload, so a corrupt length can never drive an allocation beyond the
// frame it arrived in.
func (r *reader) length() (int, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if v > uint64(len(r.b)-r.off) {
		return 0, fmt.Errorf("wire: length %d exceeds payload", v)
	}
	return int(v), nil
}

func (r *reader) str() (string, error) {
	n, err := r.length()
	if err != nil {
		return "", err
	}
	s := string(r.b[r.off : r.off+n])
	r.off += n
	return s, nil
}

func (r *reader) bytes() ([]byte, error) {
	n, err := r.length()
	if err != nil {
		return nil, err
	}
	b := make([]byte, n)
	copy(b, r.b[r.off:r.off+n])
	r.off += n
	return b, nil
}

func (r *reader) done() error {
	if r.off != len(r.b) {
		return fmt.Errorf("wire: %d trailing bytes", len(r.b)-r.off)
	}
	return nil
}

// DecodeTuple decodes a KindTuple payload into t, reusing t.Values'
// capacity. On error t's contents are unspecified.
func DecodeTuple(p []byte, t *Tuple) error {
	r := reader{b: p}
	if err := decodeTupleBody(&r, t); err != nil {
		return err
	}
	return r.done()
}

// tupleBodyMin is the smallest encoded tuple body: flags (1), key hash
// (8), emit time (8), value count (≥ 1). DecodeTupleBatch divides by it
// to keep a corrupt batch count from pre-allocating beyond what the
// payload could actually hold.
const tupleBodyMin = 18

// DecodeTupleBatch decodes a KindTupleBatch payload, returning the
// tuples appended to ts[:0] — steady-state callers pass the previous
// result back in, so the slice and each element's Values capacity are
// reused and decoding allocates nothing. On error the returned slice's
// contents are unspecified (its capacity remains reusable).
func DecodeTupleBatch(p []byte, ts []Tuple) ([]Tuple, error) {
	r := reader{b: p}
	n, err := r.uvarint()
	if err != nil {
		return ts, err
	}
	if n > uint64(len(p))/tupleBodyMin {
		return ts, errTruncated
	}
	ts = ts[:0]
	for i := uint64(0); i < n; i++ {
		if len(ts) < cap(ts) {
			ts = ts[:len(ts)+1]
		} else {
			ts = append(ts, Tuple{})
		}
		if err := decodeTupleBody(&r, &ts[len(ts)-1]); err != nil {
			return ts, err
		}
	}
	if err := r.done(); err != nil {
		return ts, err
	}
	return ts, nil
}

// decodeTupleBody decodes one self-delimiting tuple body at r's cursor,
// reusing t.Values' capacity.
func decodeTupleBody(r *reader, t *Tuple) error {
	var flags byte
	if r.off+tupleBodyMin <= len(r.b) {
		// Whole minimum body in range: read the 17-byte fixed prefix
		// under the one bounds check above instead of three.
		b := r.b[r.off:]
		flags = b[0]
		t.KeyHash = binary.LittleEndian.Uint64(b[1:])
		t.EmitNanos = int64(binary.LittleEndian.Uint64(b[9:]))
		r.off += 17
		t.Tick = flags&1 != 0
		t.Key = ""
	} else {
		var err error
		if flags, err = r.byte(); err != nil {
			return err
		}
		t.Tick = flags&1 != 0
		t.Key = ""
		if t.KeyHash, err = r.u64(); err != nil {
			return err
		}
		if t.EmitNanos, err = r.i64(); err != nil {
			return err
		}
	}
	var err error
	t.LatStamp = 0
	if flags&4 != 0 {
		if t.LatStamp, err = r.u32(); err != nil {
			return err
		}
	}
	t.TraceID = 0
	if flags&8 != 0 {
		if t.TraceID, err = r.u64(); err != nil {
			return err
		}
	}
	if flags&2 != 0 {
		if t.Key, err = r.str(); err != nil {
			return err
		}
		if t.Key == "" {
			return fmt.Errorf("wire: tuple key flag set on empty key")
		}
	}
	// Value count: almost always a single-byte uvarint (< 128 values),
	// read inline; the general path still handles the rest.
	var n int
	if r.off < len(r.b) && r.b[r.off] < 0x80 {
		n = int(r.b[r.off])
		r.off++
		if n > len(r.b)-r.off {
			return fmt.Errorf("wire: length %d exceeds payload", n)
		}
	} else if n, err = r.length(); err != nil { // ≥ 1 byte each: count ≤ remaining
		return err
	}
	t.Values = t.Values[:0]
	for i := 0; i < n; i++ {
		tag, err := r.byte()
		if err != nil {
			return err
		}
		var v any
		switch tag {
		case tInt64:
			v, err = r.i64()
		case tUint64:
			v, err = r.u64()
		case tFloat64:
			var bits uint64
			bits, err = r.u64()
			v = math.Float64frombits(bits)
		case tBool:
			var b byte
			b, err = r.byte()
			v = b != 0
		case tString:
			v, err = r.str()
		case tBytes:
			v, err = r.bytes()
		default:
			return fmt.Errorf("wire: unknown value tag %d", tag)
		}
		if err != nil {
			return err
		}
		t.Values = append(t.Values, v)
	}
	return nil
}

// DecodePartial decodes a KindPartial payload into p.
func DecodePartial(b []byte, p *Partial) error {
	r := reader{b: b}
	flags, err := r.byte()
	if err != nil {
		return err
	}
	p.Key = ""
	p.Raw = nil
	p.Count = 0
	p.TraceID = 0
	if p.KeyHash, err = r.u64(); err != nil {
		return err
	}
	if p.Start, err = r.i64(); err != nil {
		return err
	}
	if flags&4 != 0 {
		if p.TraceID, err = r.u64(); err != nil {
			return err
		}
	}
	if flags&2 != 0 {
		if p.Raw, err = r.bytes(); err != nil {
			return err
		}
		if p.Raw == nil { // zero-length state still selects the Raw path
			p.Raw = []byte{}
		}
	} else if p.Count, err = r.i64(); err != nil {
		return err
	}
	if flags&1 != 0 {
		if p.Key, err = r.str(); err != nil {
			return err
		}
		if p.Key == "" {
			return fmt.Errorf("wire: partial key flag set on empty key")
		}
	}
	return r.done()
}

// DecodeMark decodes a KindMark payload.
func DecodeMark(b []byte) (Mark, error) {
	r := reader{b: b}
	src, err := r.uvarint()
	if err != nil {
		return Mark{}, err
	}
	if src > math.MaxUint32 {
		return Mark{}, fmt.Errorf("wire: mark source %d overflows uint32", src)
	}
	wm, err := r.i64()
	if err != nil {
		return Mark{}, err
	}
	if err := r.done(); err != nil {
		return Mark{}, err
	}
	return Mark{Source: uint32(src), WM: wm}, nil
}

// DecodeSketch decodes a KindSketch payload.
func DecodeSketch(b []byte) (Sketch, error) {
	r := reader{b: b}
	k, err := r.uvarint()
	if err != nil {
		return Sketch{}, err
	}
	if k == 0 || k > MaxPayload {
		return Sketch{}, fmt.Errorf("wire: sketch capacity %d out of range", k)
	}
	n, err := r.i64()
	if err != nil {
		return Sketch{}, err
	}
	if n < 0 {
		return Sketch{}, fmt.Errorf("wire: negative sketch weight %d", n)
	}
	cnt, err := r.uvarint()
	if err != nil {
		return Sketch{}, err
	}
	if cnt > k {
		return Sketch{}, fmt.Errorf("wire: sketch holds %d items over capacity %d", cnt, k)
	}
	// Each item is ≥ 10 encoded bytes; the bound keeps a corrupt count
	// from pre-allocating beyond what the payload could actually hold.
	if cnt > uint64(len(b))/10 {
		return Sketch{}, errTruncated
	}
	s := Sketch{K: int(k), N: n, Items: make([]SketchItem, 0, cnt)}
	for i := uint64(0); i < cnt; i++ {
		item, err := r.u64()
		if err != nil {
			return Sketch{}, err
		}
		c, err := r.uvarint()
		if err != nil {
			return Sketch{}, err
		}
		e, err := r.uvarint()
		if err != nil {
			return Sketch{}, err
		}
		if c > math.MaxInt64 || e > math.MaxInt64 {
			return Sketch{}, fmt.Errorf("wire: sketch item overflows int64")
		}
		s.Items = append(s.Items, SketchItem{Item: item, Count: int64(c), Err: int64(e)})
	}
	if err := r.done(); err != nil {
		return Sketch{}, err
	}
	return s, nil
}

// DecodeQuery decodes a KindQuery payload.
func DecodeQuery(b []byte) (Query, error) {
	r := reader{b: b}
	op, err := r.byte()
	if err != nil {
		return Query{}, err
	}
	switch QueryOp(op) {
	case OpCount, OpResults, OpStats, OpTrace:
	default:
		return Query{}, fmt.Errorf("wire: unknown query op %d", op)
	}
	key, err := r.u64()
	if err != nil {
		return Query{}, err
	}
	if err := r.done(); err != nil {
		return Query{}, err
	}
	return Query{Op: QueryOp(op), Key: key}, nil
}

// DecodeReply decodes a KindReply payload.
func DecodeReply(b []byte) (Reply, error) {
	r := reader{b: b}
	op, err := r.byte()
	if err != nil {
		return Reply{}, err
	}
	count, err := r.i64()
	if err != nil {
		return Reply{}, err
	}
	doneB, err := r.byte()
	if err != nil {
		return Reply{}, err
	}
	n, err := r.uvarint()
	if err != nil {
		return Reply{}, err
	}
	// Each result is ≥ 26 encoded bytes; dividing keeps a corrupt count
	// from pre-allocating far beyond what the payload could hold.
	if n > uint64(len(b))/26 {
		return Reply{}, errTruncated
	}
	rep := Reply{Op: QueryOp(op), Count: count, Done: doneB != 0}
	if n > 0 {
		rep.Results = make([]WindowResult, 0, n)
	}
	for i := uint64(0); i < n; i++ {
		var res WindowResult
		if err := decodeResult(&r, &res); err != nil {
			return Reply{}, err
		}
		rep.Results = append(rep.Results, res)
	}
	if r.off < len(r.b) {
		// Trailing optional section — absent entirely in pre-section
		// frames, which is what keeps both directions compatible.
		nh, err := r.byte()
		if err != nil {
			return Reply{}, err
		}
		if nh == 0 {
			// The encoder only writes the section when at least one
			// entry is present, so an empty section is corruption — and
			// rejecting it keeps plain trailing bytes an error.
			return Reply{}, fmt.Errorf("wire: empty reply trailing section")
		}
		for i := byte(0); i < nh; i++ {
			id, err := r.byte()
			if err != nil {
				return Reply{}, err
			}
			switch id {
			case histIDLat:
				if rep.Lat, err = decodeHist(&r); err != nil {
					return Reply{}, err
				}
			case histIDStale:
				if rep.Stale, err = decodeHist(&r); err != nil {
					return Reply{}, err
				}
			case secIDSpans:
				if err = decodeSpanSection(&r, &rep); err != nil {
					return Reply{}, err
				}
			case secIDTelemetry:
				if rep.Telemetry, err = decodeTelemetry(&r); err != nil {
					return Reply{}, err
				}
			default:
				return Reply{}, fmt.Errorf("wire: unknown reply section id %d", id)
			}
		}
	}
	if err := r.done(); err != nil {
		return Reply{}, err
	}
	return rep, nil
}

// DecodeResult decodes the AppendResult encoding at the front of b into
// res and returns its length in bytes.
func DecodeResult(b []byte, res *WindowResult) (int, error) {
	r := reader{b: b}
	*res = WindowResult{}
	err := decodeResult(&r, res)
	return r.off, err
}

// decodeResult decodes one result encoding at r's cursor into res (a
// zero value).
func decodeResult(r *reader, res *WindowResult) error {
	flags, err := r.byte()
	if err != nil {
		return err
	}
	if res.KeyHash, err = r.u64(); err != nil {
		return err
	}
	if res.Start, err = r.i64(); err != nil {
		return err
	}
	if res.End, err = r.i64(); err != nil {
		return err
	}
	if flags&2 != 0 {
		if res.Raw, err = r.bytes(); err != nil {
			return err
		}
		if res.Raw == nil {
			res.Raw = []byte{}
		}
	} else if res.Value, err = r.i64(); err != nil {
		return err
	}
	if flags&1 != 0 {
		if res.Key, err = r.str(); err != nil {
			return err
		}
		if res.Key == "" {
			return fmt.Errorf("wire: result key flag set on empty key")
		}
	}
	return nil
}

// decodeSpanSection decodes the span entry (secIDSpans) of a Reply's
// trailing section: the replying process name plus its retained spans.
func decodeSpanSection(r *reader, rep *Reply) error {
	var err error
	if rep.Proc, err = r.str(); err != nil {
		return err
	}
	ns, err := r.uvarint()
	if err != nil {
		return err
	}
	// Each span is ≥ 42 encoded bytes (five fixed 8-byte fields, a hop
	// byte, a note length); the bound keeps a corrupt count from
	// pre-allocating beyond what the payload could actually hold.
	if ns > uint64(len(r.b)-r.off)/42 {
		return errTruncated
	}
	if ns > 0 {
		rep.Spans = make([]Span, 0, ns)
	}
	for i := uint64(0); i < ns; i++ {
		var s Span
		if s.Trace, err = r.u64(); err != nil {
			return err
		}
		if s.Start, err = r.i64(); err != nil {
			return err
		}
		if s.Dur, err = r.i64(); err != nil {
			return err
		}
		if s.Arg1, err = r.i64(); err != nil {
			return err
		}
		if s.Arg2, err = r.i64(); err != nil {
			return err
		}
		if s.Hop, err = r.byte(); err != nil {
			return err
		}
		if s.Note, err = r.str(); err != nil {
			return err
		}
		rep.Spans = append(rep.Spans, s)
	}
	return nil
}

// decodeTelemetry decodes the telemetry entry (secIDTelemetry) of a
// Reply's trailing section: a flags byte, eight fixed gauge fields, an
// optional edge-window gauge gated on flag bit 2, and an optional
// credit-wait histogram gated on flag bit 1.
func decodeTelemetry(r *reader) (*Telemetry, error) {
	flags, err := r.byte()
	if err != nil {
		return nil, err
	}
	if flags&^3 != 0 {
		return nil, fmt.Errorf("wire: unknown telemetry flags %#x", flags)
	}
	t := &Telemetry{}
	for _, f := range []*int64{
		&t.EdgeInFlight, &t.EdgeQueue, &t.EdgeFrames, &t.EdgeStalls,
		&t.EdgeWaitNs, &t.WatermarkLagNs, &t.WindowBacklog, &t.ServiceNs,
	} {
		if *f, err = r.i64(); err != nil {
			return nil, err
		}
	}
	if flags&2 != 0 {
		if t.EdgeWindow, err = r.i64(); err != nil {
			return nil, err
		}
		// The encoder only sets the bit for a positive window, so a
		// non-positive value here is a non-canonical payload.
		if t.EdgeWindow <= 0 {
			return nil, fmt.Errorf("wire: telemetry edge window %d out of range", t.EdgeWindow)
		}
	}
	if flags&1 != 0 {
		if t.CreditWait, err = decodeHist(r); err != nil {
			return nil, err
		}
	}
	return t, nil
}

func decodeHist(r *reader) (*LatencyHist, error) {
	sum, err := r.i64()
	if err != nil {
		return nil, err
	}
	nb, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	// Each bucket is ≥ 2 encoded bytes; the bound keeps a corrupt count
	// from pre-allocating beyond what the payload could actually hold.
	if nb > uint64(len(r.b)-r.off)/2 {
		return nil, errTruncated
	}
	h := &LatencyHist{Sum: sum}
	if nb > 0 {
		h.Buckets = make([]HistBucket, 0, nb)
	}
	for i := uint64(0); i < nb; i++ {
		idx, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if idx > math.MaxUint32 {
			return nil, fmt.Errorf("wire: histogram bucket index %d overflows uint32", idx)
		}
		c, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if c > math.MaxInt64 {
			return nil, fmt.Errorf("wire: histogram bucket count overflows int64")
		}
		h.Buckets = append(h.Buckets, HistBucket{Index: uint32(idx), Count: int64(c)})
	}
	return h, nil
}

// DecodeCredit decodes a KindCredit payload.
func DecodeCredit(b []byte) (Credit, error) {
	r := reader{b: b}
	w, err := r.uvarint()
	if err != nil {
		return Credit{}, err
	}
	if w == 0 || w > math.MaxInt64 {
		return Credit{}, fmt.Errorf("wire: credit window %d out of range", w)
	}
	if err := r.done(); err != nil {
		return Credit{}, err
	}
	return Credit{Window: int64(w)}, nil
}

// DecodeAck decodes a KindAck payload. The trailing service-time field
// is optional (old acks end at Count); when present it must be
// non-zero — a zero would re-encode to the short form, so rejecting it
// keeps every accepted payload canonical.
func DecodeAck(b []byte) (Ack, error) {
	r := reader{b: b}
	n, err := r.uvarint()
	if err != nil {
		return Ack{}, err
	}
	if n > math.MaxInt64 {
		return Ack{}, fmt.Errorf("wire: ack count %d overflows int64", n)
	}
	a := Ack{Count: int64(n)}
	if r.off < len(r.b) {
		s, err := r.uvarint()
		if err != nil {
			return Ack{}, err
		}
		if s == 0 || s > math.MaxInt64 {
			return Ack{}, fmt.Errorf("wire: ack service time %d out of range", s)
		}
		a.ServiceNs = int64(s)
	}
	if err := r.done(); err != nil {
		return Ack{}, err
	}
	return a, nil
}

// DecodeCreditUpdate decodes a KindCreditUpdate payload.
func DecodeCreditUpdate(b []byte) (CreditUpdate, error) {
	r := reader{b: b}
	w, err := r.uvarint()
	if err != nil {
		return CreditUpdate{}, err
	}
	if w == 0 || w > math.MaxInt64 {
		return CreditUpdate{}, fmt.Errorf("wire: credit-update window %d out of range", w)
	}
	if err := r.done(); err != nil {
		return CreditUpdate{}, err
	}
	return CreditUpdate{Window: int64(w)}, nil
}

// DecodeSubscribe decodes a KindSubscribe payload.
func DecodeSubscribe(b []byte) (Subscribe, error) {
	r := reader{b: b}
	off, err := r.uvarint()
	if err != nil {
		return Subscribe{}, err
	}
	if off > math.MaxInt64 {
		return Subscribe{}, fmt.Errorf("wire: subscribe offset %d overflows int64", off)
	}
	if err := r.done(); err != nil {
		return Subscribe{}, err
	}
	return Subscribe{Offset: int64(off)}, nil
}

// ReadFrame reads one frame from r: it validates the header, bounds the
// payload, and returns the kind with the payload bytes (reusing buf's
// capacity when it suffices). io.EOF is returned exactly at a clean
// frame boundary; a header or payload cut short mid-frame returns
// io.ErrUnexpectedEOF.
func ReadFrame(r io.Reader, buf []byte) (Kind, []byte, error) {
	var hdr [HeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return KindInvalid, nil, err // io.EOF only on a clean boundary
	}
	kind, n, err := ParseHeader(hdr)
	if err != nil {
		return KindInvalid, nil, err
	}
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return KindInvalid, nil, err
	}
	return kind, buf, nil
}

// ReadFrameBuffered is ReadFrame for a *bufio.Reader, without copying
// the payload out of the reader's buffer: for frames that fit the
// buffer the returned payload ALIASES it and is valid only until the
// next operation on r — the receive half of the near-zero-copy batched
// edge (decode reads the bytes in place; everything a decoded value
// retains is copied by the decoder). Frames larger than r's buffer
// fall back to a copying read into *buf, reusing and growing it as
// ReadFrame would. EOF semantics match ReadFrame: io.EOF exactly at a
// clean frame boundary, io.ErrUnexpectedEOF mid-frame.
func ReadFrameBuffered(r *bufio.Reader, buf *[]byte) (Kind, []byte, error) {
	hdr, err := r.Peek(HeaderSize)
	if err != nil {
		if err == io.EOF && len(hdr) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return KindInvalid, nil, err
	}
	var h [HeaderSize]byte
	copy(h[:], hdr)
	kind, n, err := ParseHeader(h)
	if err != nil {
		return KindInvalid, nil, err
	}
	if HeaderSize+n <= r.Size() {
		p, err := r.Peek(HeaderSize + n)
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return KindInvalid, nil, err
		}
		// Discard only advances the read cursor: p stays intact until
		// the next fill, i.e. until the caller reads the next frame.
		if _, err := r.Discard(HeaderSize + n); err != nil {
			return KindInvalid, nil, err
		}
		return kind, p[HeaderSize:], nil
	}
	if _, err := r.Discard(HeaderSize); err != nil {
		return KindInvalid, nil, err
	}
	if cap(*buf) < n {
		*buf = make([]byte, n)
	}
	b := (*buf)[:n]
	if _, err := io.ReadFull(r, b); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return KindInvalid, nil, err
	}
	return kind, b, nil
}

// ParseHeader validates a frame header and returns its kind and payload
// length.
func ParseHeader(hdr [HeaderSize]byte) (Kind, int, error) {
	if hdr[0] != Version {
		return KindInvalid, 0, fmt.Errorf("wire: version %d, want %d", hdr[0], Version)
	}
	kind := Kind(hdr[1])
	if kind == KindInvalid || kind >= kindEnd {
		return KindInvalid, 0, fmt.Errorf("wire: unknown frame kind %d", hdr[1])
	}
	n := binary.LittleEndian.Uint32(hdr[2:])
	if n > MaxPayload {
		return KindInvalid, 0, fmt.Errorf("wire: payload length %d exceeds limit %d", n, MaxPayload)
	}
	return kind, int(n), nil
}
