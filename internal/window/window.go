// Package window is the windowed two-phase aggregation subsystem for
// PKG topologies. Key splitting (paper §III.A) deliberately spreads each
// key over up to d workers, so every PKG topology needs a second
// aggregation phase that periodically merges partial per-key state
// downstream (§IV); the aggregation period T is the lever trading worker
// memory against throughput (§V Q4, Figure 5(b)), and the journal
// version (arXiv:1510.07623) formalizes the windowed O(1)-memory
// variant this package implements. Instead of every application
// hand-rolling its own counter/aggregator bolt pair, the phase is a
// first-class topology construct:
//
//   - Aggregator: init / accumulate / merge / emit, with a Combiner
//     fast path for commutative int64 counters (counts, sums) that
//     stores one machine word per live key instead of a boxed state;
//   - Spec: tumbling, sliding, or global windows over event time,
//     an aggregation period T (wall-clock ticks or a deterministic
//     tuple count), an allowed lateness, and a live-state memory cap
//     (flush-on-pressure);
//   - Plan: the PartialBolt/FinalBolt operator pair behind
//     engine.Builder.WindowedAggregate — partials accumulate under any
//     grouping, flush every T keyed by the original key, and the final
//     stage merges the ≤d partials per key, closing each window once
//     the combined watermark (minimum over partial instances) passes
//     its end. T bounds memory and traffic; result freshness does not
//     wait for it — a watermark that completes a window flushes that
//     window at once (see PartialBolt).
//
// Both stages keep their state window-indexed (windowIndex): a short
// start-ordered list of open windows, each holding plain per-key maps.
package window

import (
	"fmt"
	"math"
	"time"

	"pkgstream/internal/engine"
)

// Spec configures window assignment and flushing for one windowed
// aggregation. The zero value declares a single global window that is
// flushed only when the stream ends — the shape of a streaming running
// total.
type Spec struct {
	// Size is the window length in event time; 0 declares one global
	// window spanning the whole stream.
	Size time.Duration
	// Slide is the spacing between window starts; 0 means tumbling
	// (Slide = Size). Slide < Size yields overlapping sliding windows
	// (a tuple lands in ⌈Size/Slide⌉ windows); Slide > Size samples the
	// stream, leaving gaps no window covers.
	Slide time.Duration
	// Period is the aggregation period T in wall-clock time: every
	// Period the engine ticks the partial stage and all live partial
	// state is flushed downstream. 0 disables timer flushes (count- or
	// pressure-driven flushes may still fire; Cleanup always flushes).
	Period time.Duration
	// EveryTuples flushes a partial instance after it accumulated this
	// many tuples — a deterministic, count-based stand-in for Period
	// (the form the paper's experiments sweep as T).
	EveryTuples int
	// Lateness is subtracted from the partial stage's watermark before
	// it is reported downstream, so windows stay open at the final
	// stage for stragglers up to this much behind the newest tuple.
	// Partials that still arrive for a closed window are dropped and
	// counted (WindowStats.LateDropped).
	Lateness time.Duration
	// MaxLivePartials caps the live (key, window) accumulators held by
	// one partial instance: reaching the cap triggers an immediate
	// flush (flush-on-pressure), bounding worker memory regardless of
	// T. The check runs after each tuple, so the instantaneous count
	// can overshoot by the tuple's window fan-out minus one (sliding
	// windows assign one tuple to ⌈Size/Slide⌉ windows). 0 means
	// uncapped.
	MaxLivePartials int
	// Sources is the number of distinct stream sources expected to
	// advertise their event-time progress with SourceMark tuples. When
	// set (or when any source mark arrives), the partial stage's
	// watermark is the MINIMUM over the per-source marks instead of the
	// maximum event time seen minus Lateness — exact for parallel
	// sources with arbitrarily skewed clocks, no manual lateness knob.
	// The watermark holds still until every expected source has
	// reported at least once. 0 with no marks keeps the legacy
	// max-minus-Lateness watermark.
	Sources int
	// PerInstance scopes the accumulator per (instance, window) instead
	// of per (key, window) — for sketch-like aggregators (e.g. one
	// SpaceSaving summary per worker, §VI.C) whose state covers every
	// key the instance sees. The final stage then runs as a single
	// instance and merges the per-instance partials.
	PerInstance bool
	// FinalParallelism is the final-stage instance count (default 1;
	// forced to 1 when PerInstance is set).
	FinalParallelism int
	// TimeOf extracts a tuple's event time in nanoseconds; nil reads
	// Tuple.EmitNanos (stamped by the runtime at spout emit; spouts may
	// pre-stamp a logical clock for deterministic windows — starting at
	// a nonzero value, since EmitNanos 0 means "unset" and gets the
	// wall clock).
	TimeOf func(t engine.Tuple) int64
}

// normalized validates the spec and fills defaults.
func (s Spec) normalized() (Spec, error) {
	if s.Size < 0 || s.Slide < 0 || s.Period < 0 || s.Lateness < 0 {
		return s, fmt.Errorf("window: negative Size, Slide, Period or Lateness")
	}
	if s.EveryTuples < 0 || s.MaxLivePartials < 0 {
		return s, fmt.Errorf("window: negative EveryTuples or MaxLivePartials")
	}
	if s.Sources < 0 {
		return s, fmt.Errorf("window: negative Sources")
	}
	if s.Size == 0 && s.Slide != 0 {
		return s, fmt.Errorf("window: Slide set without Size")
	}
	if s.Slide == 0 {
		s.Slide = s.Size
	}
	if s.FinalParallelism < 0 {
		return s, fmt.Errorf("window: negative FinalParallelism")
	}
	if s.FinalParallelism == 0 || s.PerInstance {
		s.FinalParallelism = 1
	}
	if s.TimeOf == nil {
		s.TimeOf = func(t engine.Tuple) int64 { return t.EmitNanos }
	}
	return s, nil
}

// assign appends the start time of every window containing ts (latest
// start first). Windows are half-open [start, start+Size): a tuple whose
// timestamp equals a boundary belongs to the window starting there, not
// the one ending there.
func (s *Spec) assign(ts int64, into []int64) []int64 {
	if s.Size <= 0 {
		return append(into, 0)
	}
	size, slide := int64(s.Size), int64(s.Slide)
	// Latest window start ≤ ts; walk backwards while the window still
	// covers ts. When Slide > Size the first candidate may already have
	// ended (a gap) and the loop adds nothing.
	for st := floorDiv(ts, slide) * slide; st > ts-size; st -= slide {
		into = append(into, st)
	}
	return into
}

// end returns the exclusive end of the window starting at start; the
// global window never ends.
func (s *Spec) end(start int64) int64 {
	if s.Size <= 0 {
		return math.MaxInt64
	}
	return start + int64(s.Size)
}

// endAfter returns the earliest window end strictly above wm — the
// next point at which a rising watermark completes a window. Ends sit
// on the grid k·Slide + Size; past the last representable one it
// saturates at math.MaxInt64, which no watermark but the end-of-stream
// promise reaches.
func (s *Spec) endAfter(wm int64) int64 {
	size, slide := int64(s.Size), int64(s.Slide)
	if s.Size <= 0 || wm > math.MaxInt64-size-slide {
		return math.MaxInt64
	}
	if wm < math.MinInt64+size {
		wm = math.MinInt64 + size
	}
	return (floorDiv(wm-size, slide)+1)*slide + size
}

// floorDiv is integer division rounding towards negative infinity, so
// window starts align on the slide grid for negative timestamps too.
func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

// slot names one live accumulator for trace tagging — the same
// coordinates the per-window maps use: a string key (hash 0), or an
// integer key's hash (key ""), or neither for a per-instance scope,
// plus the window start.
type slot struct {
	hash  uint64
	key   string
	start int64
}

// Result is the payload (Values[0]) of a final-stage output tuple: one
// closed (key, window) pair with the aggregator's output value.
type Result struct {
	// Key is the original tuple key ("" for integer-keyed streams and
	// per-instance aggregations).
	Key string
	// KeyHash is the 64-bit routing hash of the key (0 for per-instance
	// aggregations).
	KeyHash uint64
	// Start and End delimit the window [Start, End) in event-time
	// nanoseconds; the global window reports [0, math.MaxInt64).
	Start, End int64
	// Value is the Aggregator's Output for the merged state.
	Value any
}

// partialState is the payload of one flushed partial: the window it
// belongs to and the accumulator (an int64 on the Combiner fast path).
type partialState struct {
	start int64
	state State
}

// srcMark is the watermark control tuple a SPOUT emits (via SourceMark)
// to advertise its own event-time progress: the source promises to
// never again emit a tuple with event time below wm. The partial stage
// records the maximum per source and takes the minimum across sources
// as its watermark — the end-to-end form of "track per-source minima"
// that replaces the Spec.Lateness knob for multi-source topologies.
type srcMark struct {
	src int
	wm  int64
}

// SourceMark returns the control tuple a spout emits to advertise that
// source `source` will never again emit a tuple with event time below
// wm. Emit it on an edge wrapped with SourceAware so it reaches every
// partial instance. Distinct parallel sources must use distinct IDs
// (the spout's Context.Index is the natural choice).
func SourceMark(source int, wm int64) engine.Tuple {
	return engine.Tuple{Tick: true, Values: engine.Values{srcMark{src: source, wm: wm}}}
}

// SourceAware wraps a spout→partial grouping factory so SourceMark
// tuples (engine Tick tuples) broadcast to every partial instance while
// data tuples route through g unchanged — every partial instance must
// hear every source to take a minimum across them.
func SourceAware(g engine.GroupingFactory) engine.GroupingFactory {
	return func(n int, seed uint64, emitter int) engine.Grouping {
		return markBroadcast{data: g(n, seed, emitter)}
	}
}

// mark is the watermark control tuple a partial instance broadcasts
// after every flush and whenever its watermark crosses a window end. It
// rides with Tick set so the engine ships it
// immediately (never stuck behind a partial batch); the final stage
// closes a window once the minimum watermark across all partial
// instances passes its end.
type mark struct {
	// from and of identify the emitting partial instance and the
	// partial parallelism, so the final stage knows when every instance
	// has reported.
	from, of int
	// wm is the instance's watermark: max event time seen minus the
	// allowed lateness. The cleanup flush at stream end reports
	// math.MaxInt64 — "this instance will never send another partial".
	wm int64
}
