package window

import (
	"fmt"
	"iter"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pkgstream/internal/engine"
	"pkgstream/internal/metrics"
	"pkgstream/internal/trace"
	"pkgstream/internal/transport"
	"pkgstream/internal/wire"
)

// This file is the distributed half of the windowed two-phase
// aggregation: the partial stage stays in the engine process, and the
// final stage — merging partials and closing windows on watermarks —
// lives behind a TCP boundary in another process (cmd/pkgnode). Two
// pieces make that span:
//
//   - remoteFinal, a forwarder bolt that replaces the in-process final
//     stage: it encodes every flushed partial as a wire.Partial and
//     key-groups it over the remote node addresses, and relays every
//     partial instance's watermark as a wire.Mark (one remote "source"
//     per partial instance);
//   - FinalHandler, the transport.Handler that hosts an ordinary
//     FinalBolt on the remote side: partials merge, windows close once
//     the minimum watermark across all live sources passes their end,
//     and closed results are kept, encoded, for push subscribers and
//     OpResults point queries.

// StateCodec is the optional Aggregator extension a remote final needs
// on the general (non-Combiner) path: partial accumulators must have a
// wire form to cross the process boundary. Combiner aggregators travel
// as a single int64 and need no codec.
type StateCodec interface {
	// EncodeState serializes one partial accumulator.
	EncodeState(s State) []byte
	// DecodeState reverses EncodeState.
	DecodeState(b []byte) (State, error)
}

// ResultCodec is the optional Aggregator extension for shipping
// non-int64 window results in OpResults replies. Without it, a remote
// final whose Output is not an int64 reports the result as unencodable
// (FinalHandler.Unencodable) instead of guessing.
type ResultCodec interface {
	// EncodeResult serializes one closed window's output value.
	EncodeResult(key string, v any) []byte
}

// NewRemoteFinal returns an engine.Bolt factory for the forwarder that
// replaces this plan's in-process final stage (engine.RemoteFinal wires
// it up): flushed partials are key-grouped over the remote node
// addresses — all partials of a key must meet at one node — and
// watermark marks are broadcast to every node. seed derives the
// key→node hash; reuse it for any out-of-band per-key node lookup.
// It errors when the plan's aggregator has neither the int64 fast path
// nor a StateCodec, or when addrs is empty.
func (p *Plan) NewRemoteFinal(addrs []string, seed uint64) (func() engine.Bolt, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("window: remote final with no node addresses")
	}
	var codec StateCodec
	if p.comb == nil {
		c, ok := p.agg.(StateCodec)
		if !ok {
			return nil, fmt.Errorf("window: aggregator %T has no int64 fast path and no StateCodec; partial states need a wire form to cross processes", p.agg)
		}
		codec = c
	}
	return func() engine.Bolt {
		in := &instrumentation{}
		p.mu.Lock()
		p.fins = append(p.fins, in)
		p.mu.Unlock()
		return &remoteFinal{
			plan: p,
			inst: in,
			snd: partialSender{
				comp: "remote-final", addrs: addrs, codec: codec,
				opts: transport.SourceOptions{Mode: transport.ModeKG, Seed: seed},
			},
		}
	}, nil
}

// partialSender ships flushed partials and watermark marks to the final
// nodes over transport, key-grouped so all partials of a key meet at
// one node. Send failures — a final node restarting, a dropped
// connection — are retried with bounded backoff over a fresh dial; only
// exhausted retries surface, as a typed *engine.EdgeError, so the
// topology fails cleanly and diagnosably instead of panicking on the
// first broken pipe. Both forwarding shapes share it: the in-engine
// remoteFinal bolt and the pkgnode-side PartialHandler.
type partialSender struct {
	comp  string
	addrs []string
	opts  transport.SourceOptions
	codec StateCodec // nil on the Combiner fast path

	src     *transport.Source
	scratch wire.Partial

	frames   atomic.Int64
	marks    atomic.Int64
	retries  atomic.Int64
	failures atomic.Int64
}

// sendAttempts bounds delivery attempts per frame: the first send plus
// three redial-and-resend rounds with doubling backoff (~175ms total),
// enough to ride out a node restart without masking a dead peer for
// long.
const sendAttempts = 4

// dial (re)connects to the final nodes.
func (s *partialSender) dial() error {
	src, err := transport.DialSourceOpts(s.addrs, s.opts)
	if err != nil {
		return err
	}
	s.src = src
	return nil
}

// outFrame is one frame bound for the final nodes: the partial when
// set, the mark otherwise.
type outFrame struct {
	partial *wire.Partial
	mark    wire.Mark
}

// ship writes f to the current connection set.
func (s *partialSender) ship(f outFrame) error {
	if s.src == nil {
		return fmt.Errorf("window: %s: not connected", s.comp)
	}
	if f.partial != nil {
		return s.src.SendPartial(f.partial)
	}
	return s.src.SendMarkFrom(f.mark.Source, f.mark.WM)
}

// withRetry ships f, redialing with bounded backoff on failure. During
// a reconnect, frames buffered on the dead connection may or may not
// have been absorbed — delivery across a node restart is at-least-once
// for the frame being retried and best-effort for the buffered tail.
func (s *partialSender) withRetry(f outFrame) error {
	err := s.ship(f)
	if err == nil {
		return nil
	}
	backoff := 25 * time.Millisecond
	for attempt := 1; attempt < sendAttempts; attempt++ {
		s.retries.Add(1)
		trace.Event("redial "+strings.Join(s.addrs, ","), 0, int64(attempt))
		time.Sleep(backoff)
		backoff *= 2
		if s.src != nil {
			s.src.Close()
			s.src = nil
		}
		if err = s.dial(); err != nil {
			continue
		}
		if err = s.ship(f); err == nil {
			return nil
		}
	}
	s.failures.Add(1)
	trace.Event("backoff-exhausted "+strings.Join(s.addrs, ","), 0, sendAttempts)
	return &engine.EdgeError{
		Component: s.comp,
		Addr:      strings.Join(s.addrs, ","),
		Attempts:  sendAttempts,
		Err:       err,
	}
}

// sendPartial encodes and ships one flushed (key, window) partial: the
// count n on the Combiner path, the accumulator st through the codec
// otherwise. traceID, when nonzero, rides the wire so the final node
// continues the trace; the ship itself is recorded as a wire-send span.
func (s *partialSender) sendPartial(key string, hash uint64, start, n int64, st State, traceID uint64) error {
	p := &s.scratch
	p.KeyHash = hash
	p.Key = key
	p.Start = start
	p.TraceID = traceID
	if s.codec == nil {
		p.Count = n
		p.Raw = nil
	} else {
		p.Count = 0
		p.Raw = s.codec.EncodeState(st)
	}
	var t0 int64
	if traceID != 0 {
		t0 = trace.Now()
	}
	err := s.withRetry(outFrame{partial: p})
	if err == nil {
		s.frames.Add(1)
		if traceID != 0 {
			trace.Add(traceID, trace.HopWireSend, t0, trace.Now()-t0, 1, 0, s.comp)
		}
	}
	return err
}

// sendMark relays one watermark under the given source ID.
func (s *partialSender) sendMark(from uint32, wm int64) error {
	err := s.withRetry(outFrame{mark: wire.Mark{Source: from, WM: wm}})
	if err == nil {
		s.marks.Add(1)
	}
	return err
}

// close flushes and releases the connections.
func (s *partialSender) close() error {
	if s.src == nil {
		return nil
	}
	err := s.src.Close()
	s.src = nil
	return err
}

// EdgeStats snapshots the sender's flow counters in engine form.
func (s *partialSender) EdgeStats() engine.EdgeStats {
	return engine.EdgeStats{
		Frames:   s.frames.Load(),
		Marks:    s.marks.Load(),
		Retries:  s.retries.Load(),
		Failures: s.failures.Load(),
	}
}

// remoteFinal forwards the partial stage's output over TCP instead of
// merging locally. It runs as a single funnel instance: the one
// key-grouped hop to the remote nodes happens here, so remote node
// count and partial parallelism stay independent.
type remoteFinal struct {
	plan *Plan
	inst *instrumentation
	snd  partialSender
}

// Prepare implements engine.Bolt: it dials the remote nodes. A dial
// failure panics, which the engine runtime converts into a topology
// error (factories and Prepare run inside instance goroutines).
func (b *remoteFinal) Prepare(*engine.Context) {
	if err := b.snd.dial(); err != nil {
		panic(fmt.Sprintf("window: remote final: %v", err))
	}
}

// Execute implements engine.Bolt: partials are encoded and key-grouped
// to their node, marks are relayed per partial instance. Send failures
// retry with bounded backoff inside the sender; an exhausted retry
// panics with the typed *engine.EdgeError, which the runtime surfaces
// through Run — the topology fails cleanly, naming the dead nodes.
func (b *remoteFinal) Execute(t engine.Tuple, out engine.Emitter) {
	if t.Tick {
		if len(t.Values) == 1 {
			if m, ok := t.Values[0].(mark); ok {
				if err := b.snd.sendMark(uint32(m.from), m.wm); err != nil {
					panic(err)
				}
				b.inst.flushes.Add(1)
			}
		}
		return // engine timer ticks carry no values and are ignored
	}
	ps, ok := t.Values[0].(partialState)
	if !ok {
		panic(fmt.Sprintf("window: remote final received a non-partial tuple (values %v)", t.Values))
	}
	var n int64
	st := ps.state
	if b.snd.codec == nil {
		n, st = st.(int64), nil
	}
	if err := b.snd.sendPartial(t.Key, t.RouteKey(), ps.start, n, st, t.TraceID); err != nil {
		panic(err)
	}
	b.inst.partialsOut.Add(1)
}

// Cleanup implements engine.Bolt: by the time the forwarder's input
// closes, every partial instance has sent its final mark (already
// relayed in Execute), so only the connections remain to be flushed.
func (b *remoteFinal) Cleanup(engine.Emitter) {
	if err := b.snd.close(); err != nil {
		panic(fmt.Sprintf("window: remote final: %v", err))
	}
}

// WindowStats implements engine.WindowStatsSource: PartialsOut counts
// forwarded partials and Flushes counts relayed marks.
func (b *remoteFinal) WindowStats() engine.WindowStats { return b.inst.snapshot() }

// EdgeStats implements engine.EdgeStatsSource: the forwarder's frame,
// retry and failure counters surface through Stats.Edges.
func (b *remoteFinal) EdgeStats() engine.EdgeStats { return b.snd.EdgeStats() }

// FinalHandler hosts a windowed final stage behind a transport.Worker:
// the remote half of a RemoteFinal topology, and the engine room of
// `pkgnode -mode final`. Decoded partials merge into an ordinary
// FinalBolt; marks advance its watermark, which is the minimum across
// all live sources (one source per upstream partial instance).
//
// Closed windows go to the result log, which holds them as sealed pages
// of reply-encoded results (wire.AppendResult): each mark that closes
// windows encodes their results once — key bytes inline, so a closed
// window's key strings are freed with its maps — and seals them as one
// page of at most resultsPage results. A push writes a frame header plus
// a page's bytes as they are; Results, OpResults and OpCount decode
// pages when called. The log keeps the full history, with no size
// limit: late subscribers and drains start from any offset, and
// trimming it would take that away.
//
// The transport worker serializes handler calls, and the handler's own
// mutex covers the accessors, so a FinalHandler is safe to inspect
// while sources stream.
type FinalHandler struct {
	mu      sync.Mutex
	plan    *Plan
	bolt    *FinalBolt
	codec   StateCodec // nil on the Combiner fast path
	rc      ResultCodec
	sources int
	finals  map[uint32]bool
	pages   []resultPage // the result log
	total   int          // results in pages
	open    []byte       // encoded results of the mark being handled
	openN   int          // results in open
	frame   []byte       // push scratch: header plus page
	subs    []*finalSub
	bad     int64
	unenc   int64
	done    bool
}

// resultPage is one sealed run of the result log: n consecutive
// results, from log offset first, in their reply encoding.
type resultPage struct {
	first, n int
	b        []byte
}

// finalSub is one push subscription: a sink bound to the subscriber's
// connection, the next page it is owed and how many results at the
// head of that page it already has (nonzero only after subscribing at
// a mid-page offset).
type finalSub struct {
	sink     transport.ResultSink
	page     int
	skip     int
	toldDone bool
}

// NewFinalHandler builds the hosting handler for this plan's final
// stage. sources is the number of distinct upstream sources that will
// send marks — for a RemoteFinal topology, the partial stage's
// parallelism; windows close once the minimum watermark over all of
// them passes their end, and the handler reports Done once every source
// has sent its final (math.MaxInt64) mark.
func (p *Plan) NewFinalHandler(sources int) (*FinalHandler, error) {
	if sources <= 0 {
		return nil, fmt.Errorf("window: final handler needs a positive source count, got %d", sources)
	}
	var codec StateCodec
	if p.comb == nil {
		c, ok := p.agg.(StateCodec)
		if !ok {
			return nil, fmt.Errorf("window: aggregator %T has no int64 fast path and no StateCodec; partial states need a wire form to cross processes", p.agg)
		}
		codec = c
	}
	h := &FinalHandler{
		plan:    p,
		bolt:    p.NewFinal().(*FinalBolt),
		codec:   codec,
		sources: sources,
		finals:  map[uint32]bool{},
	}
	if rc, ok := p.agg.(ResultCodec); ok {
		h.rc = rc
	}
	h.bolt.host = h
	h.bolt.Prepare(&engine.Context{Component: "remote-final", Parallelism: 1})
	return h, nil
}

// collect is where the hosted FinalBolt hands each closed (key, window)
// result: it is encoded into the open page right away. It runs under
// h.mu (every bolt call sits inside the handler lock).
func (h *FinalHandler) collect(key string, hash uint64, start, end int64, v any) {
	wr := wire.WindowResult{KeyHash: hash, Key: key, Start: start, End: end}
	switch v := v.(type) {
	case int64:
		wr.Value = v
	default:
		if h.rc == nil {
			h.unenc++
			return
		}
		wr.Raw = h.rc.EncodeResult(key, v)
	}
	h.open = wire.AppendResult(h.open, &wr)
	if h.openN++; h.openN == resultsPage {
		h.seal()
	}
}

// seal appends the open results to the log as one exactly sized page.
func (h *FinalHandler) seal() {
	if h.openN == 0 {
		return
	}
	b := make([]byte, len(h.open))
	copy(b, h.open)
	h.pages = append(h.pages, resultPage{first: h.total, n: h.openN, b: b})
	h.total += h.openN
	h.open, h.openN = h.open[:0], 0
}

// HandleTuple implements transport.Handler: a final node consumes
// partials, not raw tuples — tuples are counted as protocol misuse.
func (h *FinalHandler) HandleTuple(*wire.Tuple) {
	h.mu.Lock()
	h.bad++
	h.mu.Unlock()
}

// HandlePartial implements transport.Handler: the decoded partial
// merges straight into the hosted bolt, no tuple built around it.
func (h *FinalHandler) HandlePartial(p *wire.Partial) {
	// A counter for a codec plan, or the reverse, is a misconfigured
	// topology; so is a state the codec cannot decode.
	ok := (p.Raw != nil) == (h.codec != nil)
	var st State
	if ok && p.Raw != nil {
		var err error
		st, err = h.codec.DecodeState(p.Raw)
		ok = err == nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if !ok {
		h.bad++
		return
	}
	h.bolt.merge(p.Key, p.KeyHash, p.Start, p.Count, st, p.TraceID)
}

// HandleMark implements transport.Handler: the mark advances the hosted
// bolt's per-source watermark table; final marks tick off sources until
// the handler is done. Windows only close here (watermark advances),
// so this is also the single point where push subscribers get fed.
func (h *FinalHandler) HandleMark(m wire.Mark) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.bolt.advance(mark{from: int(m.Source), of: h.sources, wm: m.WM}, nil)
	h.seal()
	if m.Final() {
		h.finals[m.Source] = true
		if len(h.finals) >= h.sources {
			h.done = true
		}
	}
	h.pushAll()
}

// HandleSubscribe implements transport.PushHandler: the connection
// starts receiving server-initiated Reply frames — the backlog from the
// requested offset immediately, every subsequently closed window as its
// watermark passes, and a final Done frame — removing the DrainResults
// poll from the latency path.
func (h *FinalHandler) HandleSubscribe(s wire.Subscribe, sink transport.ResultSink) {
	h.mu.Lock()
	defer h.mu.Unlock()
	sub := &finalSub{sink: sink, page: len(h.pages)}
	if off := int(s.Offset); off >= 0 && off < h.total {
		sub.page = h.pageOf(off)
		sub.skip = off - h.pages[sub.page].first
	}
	if h.pushTo(sub) {
		h.subs = append(h.subs, sub)
	}
}

// pageOf returns the index of the page holding log offset off
// (0 ≤ off < h.total).
func (h *FinalHandler) pageOf(off int) int {
	return sort.Search(len(h.pages), func(i int) bool {
		return h.pages[i].first+h.pages[i].n > off
	})
}

// pushAll feeds every subscriber the results it has not seen, dropping
// subscribers whose sink failed. Runs under h.mu.
func (h *FinalHandler) pushAll() {
	if len(h.subs) == 0 {
		return
	}
	alive := h.subs[:0]
	for _, sub := range h.subs {
		if h.pushTo(sub) {
			alive = append(alive, sub)
		}
	}
	for i := len(alive); i < len(h.subs); i++ {
		h.subs[i] = nil
	}
	h.subs = alive
}

// pushTo writes the subscriber's outstanding pages, one frame each,
// and, once the node is done, exactly one Done frame. It reports
// whether the sink is still alive.
func (h *FinalHandler) pushTo(sub *finalSub) bool {
	for sub.page < len(h.pages) || (h.done && !sub.toldDone) {
		var body []byte
		var n int
		if sub.page < len(h.pages) {
			pg := &h.pages[sub.page]
			body, n = pg.b[pageSkip(pg.b, sub.skip):], pg.n-sub.skip
		}
		done := h.done && sub.page >= len(h.pages)-1
		h.frame = wire.AppendResultsHeader(h.frame[:0], int64(h.total), done, n, len(body))
		h.frame = append(h.frame, body...)
		if err := sub.sink.Push(h.frame); err != nil {
			return false
		}
		sub.page, sub.skip = min(sub.page+1, len(h.pages)), 0
		if done {
			sub.toldDone = true
		}
	}
	return true
}

// pageSkip returns the byte offset of result k in page bytes b.
func pageSkip(b []byte, k int) int {
	off := 0
	for ; k > 0; k-- {
		var res wire.WindowResult
		n, err := wire.DecodeResult(b[off:], &res)
		if err != nil {
			panic(fmt.Sprintf("window: corrupt result page: %v", err))
		}
		off += n
	}
	return off
}

// from yields the logged results from offset off on, decoding pages
// as it goes; the yielded pointer is only valid until the next one.
func (h *FinalHandler) from(off int) iter.Seq[*wire.WindowResult] {
	return func(yield func(*wire.WindowResult) bool) {
		if off >= h.total {
			return
		}
		var res wire.WindowResult
		for p := h.pageOf(off); p < len(h.pages); p++ {
			pg := &h.pages[p]
			b := pg.b[pageSkip(pg.b, max(0, off-pg.first)):]
			for len(b) > 0 {
				n, err := wire.DecodeResult(b, &res)
				if err != nil {
					panic(fmt.Sprintf("window: corrupt result page: %v", err))
				}
				b = b[n:]
				if !yield(&res) {
					return
				}
			}
		}
	}
}

// decode returns up to n logged results from offset off on.
func (h *FinalHandler) decode(off, n int) []wire.WindowResult {
	out := make([]wire.WindowResult, 0, max(0, min(n, h.total-off)))
	for res := range h.from(off) {
		if out = append(out, *res); len(out) == n {
			break
		}
	}
	return out
}

// resultsPage bounds one OpResults reply, and one page of the result
// log, so large drains and pushes stay well under wire.MaxPayload;
// clients page with Query.Key as the offset.
const resultsPage = 32768

// HandleQuery implements transport.Handler.
//
//	OpResults — one page of closed windows starting at offset Query.Key
//	            (Count carries the total so far; results are append-only,
//	            so paging by offset is stable), plus Done;
//	OpCount   — the total over closed windows of the queried key hash;
//	OpStats   — the number of closed windows, plus the node's
//	            window-close staleness histogram;
//	OpTrace   — the process name plus the retained trace spans, for
//	            cross-process trace assembly.
func (h *FinalHandler) HandleQuery(q wire.Query) wire.Reply {
	h.mu.Lock()
	defer h.mu.Unlock()
	switch q.Op {
	case wire.OpResults:
		off := int(q.Key)
		if off < 0 || off > h.total {
			off = h.total
		}
		return wire.Reply{Op: q.Op, Done: h.done, Count: int64(h.total), Results: h.decode(off, resultsPage)}
	case wire.OpCount:
		var total int64
		for res := range h.from(0) {
			if res.KeyHash == q.Key {
				total += res.Value
			}
		}
		return wire.Reply{Op: q.Op, Done: h.done, Count: total}
	case wire.OpStats:
		// A final node has no outbound edge: the edge fields stay zero
		// and only the window-progress half of the telemetry is live.
		return wire.Reply{
			Op: q.Op, Done: h.done, Count: int64(h.total),
			Stale:     wireHist(h.bolt.inst.hist.Snapshot()),
			Telemetry: telemetry(h.bolt.WindowStats(), engine.EdgeStats{}, metrics.HistSnapshot{}),
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
// (at which point every window has closed).
func (h *FinalHandler) Done() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.done
}

// WaitDone blocks until Done or the timeout expires.
func (h *FinalHandler) WaitDone(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for !h.Done() {
		if time.Now().After(deadline) {
			h.mu.Lock()
			n := len(h.finals)
			h.mu.Unlock()
			return fmt.Errorf("window: final handler saw %d/%d final marks after %v",
				n, h.sources, timeout)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// Results decodes the closed windows so far from the result log.
func (h *FinalHandler) Results() []wire.WindowResult {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.decode(0, h.total)
}

// BadFrames counts frames the handler could not apply (raw tuples,
// undecodable states) — nonzero means a misconfigured topology, never
// silent data loss.
func (h *FinalHandler) BadFrames() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.bad
}

// Unencodable counts closed windows whose result value had no wire form
// (non-int64 Output and no ResultCodec).
func (h *FinalHandler) Unencodable() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.unenc
}

// Stats returns the hosted final stage's window counters.
func (h *FinalHandler) Stats() engine.WindowStats {
	return h.bolt.WindowStats()
}

// StalenessStats returns the hosted final stage's window-close
// staleness histogram (wall-clock windows only).
func (h *FinalHandler) StalenessStats() metrics.HistSnapshot {
	return h.bolt.inst.hist.Snapshot()
}
