package window

import (
	"fmt"
	"math"
	"slices"
	"time"

	"pkgstream/internal/engine"
	"pkgstream/internal/route"
	"pkgstream/internal/trace"
)

// FinalBolt is the second stage of a windowed aggregation: it merges the
// flushed partials of each (key, window) pair — under PKG at most two
// per flush round, the bounded aggregation cost the paper argues for —
// and emits one Result per pair once the combined watermark (the minimum
// across all partial instances) passes the window's end. Partials
// arriving for an already-closed window are dropped and counted as late.
type FinalBolt struct {
	plan *Plan
	inst *instrumentation
	// host is set when the bolt runs inside a FinalHandler instead of an
	// engine.Runtime: closed results are handed to it as plain arguments,
	// and the Emitter passed along is unused (nil).
	host *FinalHandler

	ctx      engine.Context
	idx      windowIndex
	wms      map[int]int64 // watermark per partial instance
	closed   int64         // windows ending ≤ closed have been emitted
	noted    int64         // last combined watermark fed to the lag gauge
	lastLive int           // last value published to the stats gauge
	// traced maps the (key, window) slots a traced partial merged into
	// to its trace ID, so the window close that emits the slot's Result
	// can finish the trace. Lazily allocated.
	traced map[slot]uint64
	// keys and hashes are the close-order scratch of one window.
	keys   []string
	hashes []uint64
}

// Prepare implements engine.Bolt.
func (b *FinalBolt) Prepare(ctx *engine.Context) {
	b.ctx = *ctx
	b.idx = windowIndex{comb: b.plan.comb != nil, spec: &b.plan.spec}
	b.wms = map[int]int64{}
	b.closed = math.MinInt64
	b.noted = math.MinInt64
}

// Execute implements engine.Bolt: marks advance the watermark, partials
// merge.
func (b *FinalBolt) Execute(t engine.Tuple, out engine.Emitter) {
	if t.Tick {
		if len(t.Values) == 1 {
			if m, ok := t.Values[0].(mark); ok {
				b.advance(m, out)
			}
		}
		return // engine timer ticks carry no values and are ignored
	}
	ps, ok := t.Values[0].(partialState)
	if !ok {
		panic(fmt.Sprintf("window: final stage received a non-partial tuple (values %v); "+
			"subscribe downstream bolts to the final stage, not the reverse", t.Values))
	}
	var hash uint64
	if t.Key == "" {
		hash = t.RouteKey()
	}
	if b.plan.comb != nil {
		b.merge(t.Key, hash, ps.start, ps.state.(int64), nil, t.TraceID)
	} else {
		b.merge(t.Key, hash, ps.start, 0, ps.state, t.TraceID)
	}
}

// merge folds one flushed partial into its (key, window) accumulator:
// the count n on the Combiner path, the state st otherwise. String keys
// are identified by key alone (their hash is recomputed once per closed
// result), integer keys by hash.
func (b *FinalBolt) merge(key string, hash uint64, start, n int64, st State, traceID uint64) {
	sp := &b.plan.spec
	if sp.end(start) <= b.closed {
		b.inst.late.Add(1)
		return
	}
	// The accumulator's coordinates: the instance scope, the key alone,
	// or an integer key's hash.
	if sp.PerInstance {
		key, hash = "", 0
	} else if key != "" {
		hash = 0
	}
	w := b.idx.at(start)
	b.inst.merged.Add(1)
	switch {
	case b.plan.comb != nil && key != "":
		w.strCounts[key] += n
	case b.plan.comb != nil:
		w.intCounts[hash] += n
	case key != "":
		// The first partial of a pair is adopted as is (the emitting
		// instance dropped its reference at flush, so no aliasing).
		if cur, ok := w.strStates[key]; ok {
			st = b.plan.agg.Merge(cur, st)
		}
		w.strStates[key] = st
	default:
		if cur, ok := w.intStates[hash]; ok {
			st = b.plan.agg.Merge(cur, st)
		}
		w.intStates[hash] = st
	}
	if traceID != 0 {
		// A second traced partial for the same slot overwrites the first —
		// one trace per Result is enough for assembly.
		if b.traced == nil {
			b.traced = map[slot]uint64{}
		}
		b.traced[slot{key: key, hash: hash, start: start}] = traceID
		trace.Add(traceID, trace.HopMerge, trace.Now(), 0, start, 0, b.ctx.Component)
	}
	b.publishLive()
}

// publishLive updates the live-slot gauge when it changed.
func (b *FinalBolt) publishLive() {
	if live := b.idx.live(); live != b.lastLive {
		b.lastLive = live
		b.inst.setLive(int64(live))
	}
}

// Cleanup implements engine.Bolt: every remaining window closes at
// stream end.
func (b *FinalBolt) Cleanup(out engine.Emitter) {
	b.closeUpTo(math.MaxInt64, out)
}

// WindowStats implements engine.WindowStatsSource.
func (b *FinalBolt) WindowStats() engine.WindowStats { return b.inst.snapshot() }

// LatencySeries implements engine.LatencyStatsSource: the final stage's
// window-close staleness, published under component + ".staleness".
func (b *FinalBolt) LatencySeries() []engine.LatencySeries {
	return []engine.LatencySeries{{Suffix: ".staleness", Stats: b.inst.hist.Snapshot()}}
}

// wallClockFloor separates wall-clock event times from logical ones:
// only window ends at or above it (≈ year 2001 in Unix nanoseconds)
// produce staleness observations. Topologies that drive windows off a
// small logical clock would otherwise record "now − tiny end" garbage.
const wallClockFloor = 1e15

// advance folds one partial instance's watermark in and, once every
// instance has reported, closes all windows the combined (minimum)
// watermark has passed.
func (b *FinalBolt) advance(m mark, out engine.Emitter) {
	if old, ok := b.wms[m.from]; !ok || m.wm > old {
		b.wms[m.from] = m.wm
	}
	if len(b.wms) < m.of {
		return // some partial instance has not reported yet
	}
	wm := int64(math.MaxInt64)
	for _, v := range b.wms {
		if v < wm {
			wm = v
		}
	}
	if wm > b.noted {
		// The combined watermark rose: feed the lag gauge (marks are
		// control traffic, so this stays off the merge hot path).
		b.noted = wm
		b.inst.noteWM(wm)
	}
	b.closeUpTo(wm, out)
}

// closeUpTo emits and forgets every (key, window) whose end the
// watermark has passed, in deterministic (start, key, hash) order. The
// common advance that closes nothing is one look at the oldest open
// window.
func (b *FinalBolt) closeUpTo(wm int64, out engine.Emitter) {
	if wm <= b.closed {
		return
	}
	b.closed = wm
	for w := b.idx.oldest(); w != nil && w.end <= wm; w = b.idx.oldest() {
		b.closeWindow(w, out)
		b.idx.dropOldest()
	}
	b.publishLive()
}

// closeWindow emits every (key, window) result of w: integer keys (key
// "") by hash, then string keys in lexicographic order.
func (b *FinalBolt) closeWindow(w *openWindow, out engine.Emitter) {
	n := w.live()
	if w.end >= wallClockFloor {
		// Staleness: how far behind the window's end the watermark that
		// closed it ran — what a consumer waits beyond the window itself
		// (paper §V Q4). Only meaningful for wall-clock event time.
		stale := time.Now().UnixNano() - w.end
		for i := 0; i < n; i++ {
			b.inst.hist.Observe(stale)
		}
	}
	b.hashes = b.hashes[:0]
	for h := range w.intCounts {
		b.hashes = append(b.hashes, h)
	}
	for h := range w.intStates {
		b.hashes = append(b.hashes, h)
	}
	slices.Sort(b.hashes)
	for _, h := range b.hashes {
		b.emitResult(out, "", h, w, w.num(h), n)
	}
	b.keys = b.keys[:0]
	for k := range w.strCounts {
		b.keys = append(b.keys, k)
	}
	for k := range w.strStates {
		b.keys = append(b.keys, k)
	}
	slices.Sort(b.keys)
	for _, k := range b.keys {
		b.emitResult(out, k, 0, w, w.str(k), n)
	}
	clear(b.keys) // drop the key references until the next close
	b.inst.windowsClosed.Add(int64(n))
}

// emitResult ships one closed (key, window) downstream; closing is the
// number of results its window closes with.
func (b *FinalBolt) emitResult(out engine.Emitter, key string, hash uint64, w *openWindow, st State, closing int) {
	var id uint64
	if b.traced != nil {
		sl := slot{key: key, hash: hash, start: w.start}
		if id = b.traced[sl]; id != 0 {
			delete(b.traced, sl)
			now := trace.Now()
			trace.Add(id, trace.HopWindowClose, now, 0, w.start, int64(closing), b.ctx.Component)
			trace.Add(id, trace.HopResult, now, 0, 0, 0, b.ctx.Component)
		}
	}
	if key != "" {
		// The Result carries the key's routing hash; the per-window maps
		// are keyed by the string alone, so it is computed here, once per
		// closed result instead of once per merged partial.
		hash = route.KeyHash(key)
	}
	v := b.plan.agg.Output(key, st)
	if b.host != nil {
		b.host.collect(key, hash, w.start, w.end, v)
		return
	}
	t := engine.Tuple{Key: key, TraceID: id, Values: engine.Values{Result{
		Key: key, KeyHash: hash, Start: w.start, End: w.end, Value: v,
	}}}
	if key == "" {
		t.KeyHash = hash
	}
	out.Emit(t)
}
