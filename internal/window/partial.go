package window

import (
	"math"

	"pkgstream/internal/engine"
	"pkgstream/internal/route"
	"pkgstream/internal/trace"
)

// PartialBolt is the first stage of a windowed aggregation: it
// accumulates per-(key, window) partial state for the tuples routed to
// it (under PKG each key lives on at most two instances, so partials are
// genuinely partial) and sends it downstream on two triggers with two
// different jobs:
//
//   - the aggregation period — the engine's wall-clock tick
//     (Spec.Period), Spec.EveryTuples tuples, or the live-state cap
//     (Spec.MaxLivePartials) — bounds worker memory and partial traffic:
//     it flushes everything (the cap: oldest windows first, down to half
//     the cap);
//   - the watermark — a SourceMark, or the newest event time, carrying
//     this instance's watermark across a window end — is what makes
//     results fresh: exactly the windows it completed are flushed at
//     once, since no on-time tuple can reach them any more.
//
// Every flush ends with a broadcast watermark mark so the final stage can
// close windows; a watermark that crosses a window end is broadcast even
// when this instance holds nothing for that window, because the final
// stage waits on the minimum across all instances. A completed window is
// flushed once, by whichever trigger comes first, so the watermark
// trigger changes when a partial is sent, never how many are.
type PartialBolt struct {
	plan *Plan
	inst *instrumentation
	// host is set when the bolt runs inside a PartialHandler instead of
	// an engine.Runtime: flushed partials and marks are handed to it as
	// plain arguments, and the Emitter passed to Execute is unused (nil).
	host *PartialHandler

	ctx   engine.Context
	idx   windowIndex
	wins  []int64 // window-assignment scratch
	since int     // tuples since the last aggregation-period flush
	wm    int64   // max event time seen (math.MinInt64: none)
	noted int64   // last watermark fed to the lag gauge
	// srcWMs holds the latest SourceMark watermark per source; once any
	// source reports (or Spec.Sources demands it), the instance
	// watermark becomes the minimum across sources instead of the
	// Lateness-padded maximum event time.
	srcWMs map[int]int64
	// nextEnd is the earliest window end above the last watermark this
	// instance broadcast: a watermark reaching it has completed a window
	// the final stage has not been told about. math.MinInt64 until the
	// first watermark is known.
	nextEnd  int64
	lastLive int // last value published to the stats gauge
	// traced maps the (key, window) slots a traced tuple folded into to
	// its trace ID, so the flush that ships the slot's state downstream
	// can tag the outgoing partial and record the HopFlush span. Lazily
	// allocated — untraced streams never touch it.
	traced map[slot]uint64
}

// Prepare implements engine.Bolt.
func (b *PartialBolt) Prepare(ctx *engine.Context) {
	b.ctx = *ctx
	b.wm = math.MinInt64
	b.noted = math.MinInt64
	b.nextEnd = math.MinInt64
	b.idx = windowIndex{comb: b.plan.comb != nil, spec: &b.plan.spec}
}

// Execute implements engine.Bolt: source marks advance the per-source
// watermark, other ticks flush, data accumulates.
func (b *PartialBolt) Execute(t engine.Tuple, out engine.Emitter) {
	if t.Tick {
		if len(t.Values) == 1 {
			if sm, ok := t.Values[0].(srcMark); ok {
				if b.srcWMs == nil {
					b.srcWMs = map[int]int64{}
				}
				if old, seen := b.srcWMs[sm.src]; !seen || sm.wm > old {
					b.srcWMs[sm.src] = sm.wm
					// The instance watermark (minimum across sources) may
					// have risen with this source's promise — feed the
					// watermark-lag gauge and flush what it completed. Marks
					// are control traffic, so the O(sources) minimum stays
					// off the data path.
					if cur := b.watermark(); cur > b.noted {
						b.noted = cur
						b.inst.noteWM(cur)
						b.advance(out, cur)
					}
				}
				return
			}
		}
		b.flush(out, false)
		return
	}
	if t.LatStamp != 0 {
		// A sampled tuple: observe emit→arrival latency. This is the
		// paper-relevant end-to-end leg — spout emit through routing,
		// queues and (for remote deployments) the wire, to the moment
		// the partial stage takes the tuple.
		b.inst.hist.Observe(engine.LatSince(t.LatStamp))
	}
	sp := &b.plan.spec
	var key string
	var hash uint64
	if !sp.PerInstance {
		if key = t.Key; key == "" {
			hash = t.RouteKey()
		}
	}
	if sp.Size <= 0 {
		// Global window: no event time, no assignment.
		b.wins = append(b.wins[:0], 0)
	} else {
		ts := sp.TimeOf(t)
		if ts > b.wm {
			b.wm = ts
		}
		b.wins = sp.assign(ts, b.wins[:0])
	}
	for _, start := range b.wins {
		w := b.idx.at(start)
		switch {
		case b.plan.comb == nil:
			b.accumulate(w, key, hash, t)
		case key != "":
			w.strCounts[key] += b.plan.comb.Weigh(t)
		default:
			w.intCounts[hash] += b.plan.comb.Weigh(t)
		}
	}
	live := b.idx.live()
	if t.TraceID != 0 {
		if b.traced == nil {
			b.traced = map[slot]uint64{}
		}
		for _, start := range b.wins {
			b.traced[slot{key: key, hash: hash, start: start}] = t.TraceID
		}
		trace.Add(t.TraceID, trace.HopPartial, trace.Now(), 0,
			int64(live), 0, b.ctx.Component)
	}
	b.publishLive(live)
	b.since++
	if sp.EveryTuples > 0 && b.since >= sp.EveryTuples {
		b.flush(out, false)
	} else if sp.MaxLivePartials > 0 && live >= sp.MaxLivePartials {
		b.flushPressure(out)
	}
	if sp.Size > 0 && !b.sourceMarked() {
		// Legacy watermark: the newest event time may have completed a
		// window — one compare when it has not, or when the flush above
		// already announced it.
		if cur := b.wm - int64(sp.Lateness); cur >= b.nextEnd {
			b.advance(out, cur)
		}
	}
}

// accumulate folds t into one general-path accumulator of window w.
func (b *PartialBolt) accumulate(w *openWindow, key string, hash uint64, t engine.Tuple) {
	if key != "" {
		acc, ok := w.strStates[key]
		if !ok {
			acc = b.plan.agg.Init()
		}
		w.strStates[key] = b.plan.agg.Accumulate(acc, t)
		return
	}
	acc, ok := w.intStates[hash]
	if !ok {
		acc = b.plan.agg.Init()
	}
	w.intStates[hash] = b.plan.agg.Accumulate(acc, t)
}

// Cleanup implements engine.Bolt: the last flush, marked final so the
// final stage knows this instance will never send another partial.
func (b *PartialBolt) Cleanup(out engine.Emitter) {
	b.flush(out, true)
}

// WindowStats implements engine.WindowStatsSource.
func (b *PartialBolt) WindowStats() engine.WindowStats { return b.inst.snapshot() }

// LatencySeries implements engine.LatencyStatsSource: the partial
// stage's emit→arrival latency, published under the component's own
// name (empty suffix).
func (b *PartialBolt) LatencySeries() []engine.LatencySeries {
	return []engine.LatencySeries{{Stats: b.inst.hist.Snapshot()}}
}

func (b *PartialBolt) live() int { return b.idx.live() }

// publishLive updates the live-accumulator gauge when it changed.
func (b *PartialBolt) publishLive(live int) {
	if live != b.lastLive {
		b.lastLive = live
		b.inst.setLive(int64(live))
	}
}

// advance reacts to the instance watermark having risen to cur: when it
// has reached a window end the final stage has not been told about, the
// windows it completed are flushed and the watermark is broadcast —
// whether or not this instance held anything for them. The common call,
// a watermark still inside the current window, is one compare.
func (b *PartialBolt) advance(out engine.Emitter, cur int64) {
	if cur < b.nextEnd || b.plan.spec.Size <= 0 {
		return // the global window completes at stream end only
	}
	if b.nextEnd == math.MinInt64 && !b.sourceMarked() {
		// The first tuple of a legacy-watermark instance: nothing earlier
		// exists here, so its event time crosses nothing — it only fixes
		// where the first crossing is. (A first source-marked watermark
		// is announced: the final stage waits for every instance's word,
		// and tuples that ran ahead of the marks may already be complete.)
		b.nextEnd = b.plan.spec.endAfter(cur)
		return
	}
	n := 0
	for w := b.idx.oldest(); w != nil && w.end <= cur; w = b.idx.oldest() {
		n += b.flushWindow(w, out)
		b.idx.dropOldest()
	}
	b.flushed(n)
	b.broadcast(out, cur)
}

// flushPressure handles the live-state cap without evicting everything:
// whole windows are flushed oldest-first until the live count is at or
// below half the cap (headroom, so the very next tuples do not
// immediately re-trigger), keeping the hot — newest — windows resident
// across the flush. The broadcast watermark is capped below the
// earliest *retained* window's end, so the final stage can close the
// evicted old windows but never one this instance still accumulates;
// the straggler semantics are unchanged from a full flush.
//
// A single open window (always the case for the global window) falls
// back to the full flush — there is no older window to prefer.
func (b *PartialBolt) flushPressure(out engine.Emitter) {
	if len(b.idx.open) <= 1 {
		b.flush(out, false)
		return
	}
	target := b.plan.spec.MaxLivePartials / 2
	n := 0
	for w := b.idx.oldest(); w != nil && b.idx.live() > target; w = b.idx.oldest() {
		n += b.flushWindow(w, out)
		b.idx.dropOldest()
	}
	b.flushed(n)
	b.since = 0

	wm := b.watermark()
	if w := b.idx.oldest(); w != nil {
		// Windows from w on stay resident: never advertise a watermark
		// that would let the final stage close them.
		if limit := w.end - 1; limit < wm {
			wm = limit
		}
	}
	b.broadcast(out, wm)
}

// flush sends every live (key, window) partial downstream keyed by the
// original key, clears the local state (the O(1)-memory step: worker
// memory is bounded by one period's key arrivals), and broadcasts this
// instance's watermark.
func (b *PartialBolt) flush(out engine.Emitter, final bool) {
	n := 0
	for _, w := range b.idx.open {
		n += b.flushWindow(w, out)
	}
	b.idx.dropAll()
	b.flushed(n)
	b.since = 0
	wm := b.watermark()
	if final {
		wm = math.MaxInt64
	}
	b.broadcast(out, wm)
}

// flushed settles the counters after a flush round that sent n partials
// (a round that found nothing to send is not counted as one).
func (b *PartialBolt) flushed(n int) {
	if n > 0 {
		b.inst.flushes.Add(1)
		b.inst.partialsOut.Add(int64(n))
		b.publishLive(b.idx.live())
	}
}

// flushWindow sends every accumulator of one window downstream and
// reports how many there were; the caller drops the window.
func (b *PartialBolt) flushWindow(w *openWindow, out engine.Emitter) int {
	for k, c := range w.strCounts {
		b.emit(out, k, 0, w.start, c, nil)
	}
	for h, c := range w.intCounts {
		b.emit(out, "", h, w.start, c, nil)
	}
	for k, st := range w.strStates {
		b.emit(out, k, 0, w.start, 0, st)
	}
	for h, st := range w.intStates {
		b.emit(out, "", h, w.start, 0, st)
	}
	return w.live()
}

// sourceMarked reports whether the watermark follows SourceMark
// promises rather than the newest event time.
func (b *PartialBolt) sourceMarked() bool {
	return len(b.srcWMs) > 0 || b.plan.spec.Sources > 0
}

// watermark returns this instance's current watermark. With source
// marks in play (any seen, or Spec.Sources demanding them) it is the
// exact minimum across per-source promises — no Lateness padding, and
// held at the floor until every expected source has reported. The
// legacy form is the maximum event time seen minus the allowed
// lateness.
func (b *PartialBolt) watermark() int64 {
	sp := &b.plan.spec
	if b.sourceMarked() {
		if len(b.srcWMs) < sp.Sources {
			return math.MinInt64 // some source has not reported yet
		}
		wm := int64(math.MaxInt64)
		for _, v := range b.srcWMs {
			if v < wm {
				wm = v
			}
		}
		return wm
	}
	if b.wm == math.MinInt64 {
		return math.MinInt64
	}
	return b.wm - int64(sp.Lateness)
}

// broadcast sends this instance's watermark mark to every final
// instance and moves the next crossing past it.
func (b *PartialBolt) broadcast(out engine.Emitter, wm int64) {
	if wm != math.MinInt64 {
		b.nextEnd = b.plan.spec.endAfter(wm)
	}
	if b.host != nil {
		b.host.forwardMark(b.ctx.Index, wm)
		return
	}
	out.Emit(engine.Tuple{Tick: true, Values: engine.Values{mark{
		from: b.ctx.Index, of: b.ctx.Parallelism, wm: wm,
	}}})
}

// emit sends one flushed (key, window) partial downstream: the count n
// on the Combiner path, the accumulator st otherwise. String keys travel
// by key (hash 0 here), integer keys and per-instance scopes by hash.
func (b *PartialBolt) emit(out engine.Emitter, key string, hash uint64, start, n int64, st State) {
	var id uint64
	if b.traced != nil {
		sl := slot{key: key, hash: hash, start: start}
		if id = b.traced[sl]; id != 0 {
			// A traced tuple folded into this slot: the flush carries the
			// trace across the final edge.
			delete(b.traced, sl)
			trace.Add(id, trace.HopFlush, trace.Now(), 0, start, 0, b.ctx.Component)
		}
	}
	if b.host != nil {
		if key != "" {
			// The accumulator maps are keyed by the string alone; the
			// routing hash the final edge needs is computed once per
			// flushed partial, not once per tuple.
			hash = route.KeyHash(key)
		}
		b.host.forward(key, hash, start, n, st, id)
		return
	}
	if b.plan.comb != nil {
		st = n
	}
	// The runtime's emitter hashes a string key when the final edge
	// routes on it; integer keys and per-instance scopes forward the raw
	// hash so the edge routes on that.
	out.Emit(engine.Tuple{Key: key, KeyHash: hash, TraceID: id,
		Values: engine.Values{partialState{start: start, state: st}}})
}
