package engine

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"pkgstream/internal/edge"
	"pkgstream/internal/hash"
	"pkgstream/internal/hotkey"
	"pkgstream/internal/metrics"
	"pkgstream/internal/trace"
)

// Options configures a Runtime.
type Options struct {
	// QueueSize is the per-instance input buffer in tuples (default
	// 1024). Smaller queues apply backpressure sooner.
	QueueSize int
	// BatchSize is the number of tuples moved per channel operation
	// (default 64). Emitters buffer routed tuples per destination and
	// send a batch when it fills, when the instance finishes, for ticks
	// immediately, and — bolts — whenever the instance has worked off
	// its input queue: a bolt that has nothing left to read has nothing
	// more to add to a partial batch, so holding it would only delay
	// what it carries (a closed window's last results, say) until
	// unrelated later input. Saturated edges never see an empty queue
	// and keep shipping full batches; batching amortizes the channel
	// synchronization that dominates the per-tuple send path. Spouts
	// have no input queue: a trickling spout still holds up to
	// BatchSize−1 tuples until it emits a tick (a SourceMark is one) or
	// finishes, and its timestamps (EmitNanos) are read once per batch,
	// so they can be up to BatchSize−1 emits stale; set BatchSize to 1
	// for per-tuple delivery and stamping, which degenerates to the
	// unbatched tuple-at-a-time engine. BatchSize is clamped to
	// QueueSize so small queues keep bounding in-flight tuples.
	BatchSize int
	// LatencySample is the spout-emit sampling interval for end-to-end
	// latency measurement: one in every LatencySample data tuples gets
	// a wall-clock stamp (Tuple.LatStamp) that the observation points —
	// sink delivery, the windowed partial stage, remote partial
	// handlers — turn into a latency histogram observation. Sampling
	// bounds both the clock-call cost on the emit path and the +4 bytes
	// a stamp adds to a tuple's wire body. 0 means the default of 64;
	// negative disables latency stamping entirely.
	LatencySample int
	// MetricsAddr, when non-empty, serves GET /metrics (the Prometheus
	// text exposition of MetricsRegistry) and /debug/pprof/* on this
	// address for the duration of Run.
	MetricsAddr string
	// TraceSample is the spout-emit sampling interval for distributed
	// tracing: one in every TraceSample data tuples gets a fresh trace
	// ID (Tuple.TraceID) and every layer it passes appends a span to
	// the process's ring buffer (internal/trace). Independent of
	// LatencySample so the two measurements never fight over sampling
	// budget. 0 or negative disables tracing — unlike latency stamping
	// it is strictly opt-in, so the default emit path pays only the
	// countdown decrement that never reaches zero.
	TraceSample int
	// TraceRing, when positive, resizes the process-global span ring
	// (trace.Default) to keep the last TraceRing spans — the flight
	// recorder depth. 0 keeps trace.DefaultRingSpans.
	TraceRing int
}

// InstanceStats are the counters of one processing element instance.
type InstanceStats struct {
	// Executed is the number of tuples processed (bolts only).
	Executed int64
	// Emitted is the number of tuples emitted downstream.
	Emitted int64
}

// WindowStats are the windowed-aggregation counters of one bolt
// instance (see internal/window): gauges and counters of the two-phase
// partial → final plan, surfaced through Stats so the aggregation period
// T's memory/throughput trade-off (paper §V Q4, Figure 5(b)) is
// observable on the live engine.
type WindowStats struct {
	// Live is the number of live (key, window) accumulators right now.
	Live int64
	// MaxLive is the high-water mark of Live — the instance's memory
	// footprint in partial counters.
	MaxLive int64
	// Flushes counts flush rounds (timer tick, tuple count, memory
	// pressure, or cleanup).
	Flushes int64
	// PartialsOut counts partial states emitted downstream (partial
	// stage only).
	PartialsOut int64
	// Merged counts partial states merged (final stage only).
	Merged int64
	// WindowsClosed counts (key, window) results emitted (final stage).
	WindowsClosed int64
	// LateDropped counts partials that arrived for an already-closed
	// window and were dropped (final stage).
	LateDropped int64
	// WMLagNs is the instance's watermark lag in nanoseconds at
	// snapshot time: for wall-clock event timelines, how far the
	// watermark trails wall clock; for logical timelines, how long ago
	// the watermark last advanced. 0 until the first advance.
	WMLagNs int64
}

// WindowStatsSource is implemented by bolts that expose windowing
// counters (the window subsystem's partial and final stages). The
// runtime snapshots every instance that implements it into
// Stats.Windows; implementations must be safe to read while the
// topology runs.
type WindowStatsSource interface {
	WindowStats() WindowStats
}

// HotkeyStats are the frequency-aware routing counters of one emitting
// instance on one edge (see internal/hotkey): the hot/head key
// populations its classifier currently tracks and the number of
// messages routed per class. Aliased so engine consumers need not
// import internal/hotkey separately.
type HotkeyStats = hotkey.Stats

// HotkeyStatsSource is implemented by groupings whose router classifies
// keys by frequency (D-Choices, W-Choices). The runtime snapshots every
// edge grouping that reports ok into Stats.Hotkeys; implementations
// must be safe to read while the topology runs.
type HotkeyStatsSource interface {
	// HotkeyStats returns the counters and whether this grouping is
	// frequency-aware at all (a plain PKG edge reports false).
	HotkeyStats() (HotkeyStats, bool)
}

// EdgeStats are the counters of one flow-controlled edge (see
// internal/edge): frames shipped, watermark broadcasts, credit stalls
// (the visible form of remote backpressure reaching this process), and
// the retry/failure tally of the reconnect path. Aliased so engine
// consumers need not import internal/edge separately.
type EdgeStats = edge.Stats

// EdgeStatsSource is implemented by bolts that drive a remote edge (the
// window subsystem's forwarders). The runtime snapshots every instance
// that implements it into Stats.Edges; implementations must be safe to
// read while the topology runs.
type EdgeStatsSource interface {
	EdgeStats() EdgeStats
}

// LatencyStats is one latency histogram snapshot (nanosecond
// observations): mergeable across instances, quantile-queryable for
// p50/p99/p999, and subtractable so two reads yield interval rates.
// Aliased so engine consumers need not import internal/metrics.
type LatencyStats = metrics.HistSnapshot

// LatencySeries is one named latency histogram a bolt exposes. Suffix
// is appended to the component name to form the Stats.Latency key:
// "" for the component's own arrival latency, ".staleness" for the
// final stage's window-close staleness.
type LatencySeries struct {
	Suffix string
	Stats  LatencyStats
}

// LatencyStatsSource is implemented by bolts that observe per-tuple
// latency (the window subsystem's partial stage) or window-close
// staleness (the final stage). The runtime snapshots every instance
// that implements it into Stats.Latency; implementations must be safe
// to read while the topology runs.
type LatencyStatsSource interface {
	LatencySeries() []LatencySeries
}

// Stats is a snapshot of per-instance counters, keyed by component name.
type Stats struct {
	PerInstance map[string][]InstanceStats
	// Windows holds the per-instance windowing counters of components
	// whose bolts implement WindowStatsSource.
	Windows map[string][]WindowStats
	// Hotkeys holds the per-emitting-instance hot-key counters of every
	// frequency-aware edge, keyed "from→to" (one slice entry per
	// emitting instance of the upstream component).
	Hotkeys map[string][]HotkeyStats
	// Edges holds the per-instance remote-edge counters of components
	// whose bolts implement EdgeStatsSource (the forwarders of
	// RemotePartial / RemoteFinal topologies).
	Edges map[string][]EdgeStats
	// Latency holds per-instance latency histograms keyed by series
	// name: a sink component's name for emit→sink delivery latency, a
	// windowed partial stage's name for emit→partial arrival latency,
	// and a final stage's name + ".staleness" for window-close
	// staleness (flush wall time − window end). Only sampled tuples
	// (Options.LatencySample) contribute.
	Latency map[string][]LatencyStats
}

// Loads returns the executed-tuple counts of a component's instances —
// the per-PEI load vector the paper's imbalance metric is computed on.
func (s Stats) Loads(component string) []int64 {
	insts := s.PerInstance[component]
	out := make([]int64, len(insts))
	for i, st := range insts {
		out[i] = st.Executed
	}
	return out
}

// TotalExecuted sums the executed counts of a component.
func (s Stats) TotalExecuted(component string) int64 {
	var t int64
	for _, st := range s.PerInstance[component] {
		t += st.Executed
	}
	return t
}

// Fold accumulates another instance's counters into w: counters and the
// Live gauge sum, MaxLive takes the maximum across instances (the worst
// single-instance footprint, the quantity Figure 5(b) plots). It is the
// single aggregation rule for WindowStats, shared by WindowTotals and
// the window subsystem's plan-level folds.
func (w *WindowStats) Fold(x WindowStats) {
	w.Live += x.Live
	if x.MaxLive > w.MaxLive {
		w.MaxLive = x.MaxLive
	}
	w.Flushes += x.Flushes
	w.PartialsOut += x.PartialsOut
	w.Merged += x.Merged
	w.WindowsClosed += x.WindowsClosed
	w.LateDropped += x.LateDropped
	if x.WMLagNs > w.WMLagNs {
		// The fold keeps the worst lag: the slowest instance is the one
		// holding results back (window close waits for the minimum
		// watermark).
		w.WMLagNs = x.WMLagNs
	}
}

// WindowTotals folds a component's per-instance window counters into
// one summary (see WindowStats.Fold).
func (s Stats) WindowTotals(component string) WindowStats {
	var t WindowStats
	for _, w := range s.Windows[component] {
		t.Fold(w)
	}
	return t
}

// HotkeyTotals folds an edge's per-emitter hot-key counters into one
// summary (see hotkey.Stats.Fold). The edge is named "from→to".
func (s Stats) HotkeyTotals(edge string) HotkeyStats {
	var t HotkeyStats
	for _, h := range s.Hotkeys[edge] {
		t.Fold(h)
	}
	return t
}

// EdgeTotals folds a component's per-instance remote-edge counters
// into one summary (see edge.Stats.Fold).
func (s Stats) EdgeTotals(component string) EdgeStats {
	var t EdgeStats
	for _, e := range s.Edges[component] {
		t.Fold(e)
	}
	return t
}

// LatencyTotals merges a series' per-instance latency histograms into
// one snapshot, ready for Quantile(0.5/0.99/0.999).
func (s Stats) LatencyTotals(series string) LatencyStats {
	var t LatencyStats
	for _, h := range s.Latency[series] {
		t = t.Merge(h)
	}
	return t
}

// Imbalance returns max − avg of a component's executed counts.
func (s Stats) Imbalance(component string) float64 {
	loads := s.Loads(component)
	if len(loads) == 0 {
		return 0
	}
	var max, sum int64
	for _, l := range loads {
		if l > max {
			max = l
		}
		sum += l
	}
	return float64(max) - float64(sum)/float64(len(loads))
}

// instStats is the live, atomically updated form of InstanceStats.
type instStats struct {
	executed atomic.Int64
	emitted  atomic.Int64
	// lat is the emit→delivery latency histogram of a SINK instance (a
	// bolt with no downstream edges) — nil everywhere else. Sampled
	// tuples carrying a LatStamp observe into it on arrival.
	lat *metrics.Histogram
}

// Runtime executes a Topology: one goroutine per instance, bounded
// channels per bolt instance, cascading channel closure when upstream
// components finish.
type Runtime struct {
	top  *Topology
	opts Options

	stats map[string][]*instStats

	// winMu guards winSrc, hkSrc and edgeSrc: bolt instances and edge
	// groupings register themselves as stats sources when they are
	// created (instances start concurrently and Stats may be called
	// while the topology runs).
	winMu   sync.Mutex
	winSrc  map[string][]WindowStatsSource
	hkSrc   map[string][]HotkeyStatsSource
	edgeSrc map[string][]EdgeStatsSource
	latSrc  map[string][]LatencyStatsSource

	regOnce sync.Once
	reg     *metrics.Registry

	mu       sync.Mutex
	firstErr error
}

// NewRuntime prepares a runtime for the topology.
func NewRuntime(top *Topology, opts Options) *Runtime {
	if opts.QueueSize <= 0 {
		opts.QueueSize = 1024
	}
	if opts.BatchSize <= 0 {
		opts.BatchSize = 64
	}
	if opts.BatchSize > opts.QueueSize {
		// A batch larger than the queue would let emit buffers hold far
		// more tuples than the caller's backpressure budget; clamp so
		// QueueSize keeps bounding in-flight tuples.
		opts.BatchSize = opts.QueueSize
	}
	if opts.LatencySample == 0 {
		opts.LatencySample = 64
	}
	if opts.LatencySample < 0 {
		opts.LatencySample = 0 // disabled
	}
	if opts.TraceSample < 0 {
		opts.TraceSample = 0 // disabled (and the opt-out default)
	}
	if opts.TraceRing > 0 {
		trace.Default.Resize(opts.TraceRing)
	}
	r := &Runtime{top: top, opts: opts, stats: map[string][]*instStats{},
		winSrc:  map[string][]WindowStatsSource{},
		hkSrc:   map[string][]HotkeyStatsSource{},
		edgeSrc: map[string][]EdgeStatsSource{},
		latSrc:  map[string][]LatencyStatsSource{}}
	for _, s := range top.spouts {
		r.stats[s.name] = newInstStats(s.parallelism)
	}
	for _, b := range top.bolts {
		r.stats[b.name] = newInstStats(b.parallelism)
	}
	if opts.LatencySample > 0 {
		// Sink instances (bolts nothing subscribes to) observe sampled
		// tuples' emit→delivery latency on arrival.
		hasDown := map[string]bool{}
		for _, b := range top.bolts {
			for _, in := range b.inputs {
				hasDown[in.from] = true
			}
		}
		for _, b := range top.bolts {
			if hasDown[b.name] {
				continue
			}
			for _, st := range r.stats[b.name] {
				st.lat = metrics.NewHistogram()
			}
		}
	}
	return r
}

func newInstStats(n int) []*instStats {
	out := make([]*instStats, n)
	for i := range out {
		out[i] = &instStats{}
	}
	return out
}

// Stats returns a snapshot of the per-instance counters. It may be called
// while the topology runs (counters are read atomically) or after Run.
func (r *Runtime) Stats() Stats {
	snap := Stats{PerInstance: map[string][]InstanceStats{},
		Windows: map[string][]WindowStats{}, Hotkeys: map[string][]HotkeyStats{},
		Edges: map[string][]EdgeStats{}, Latency: map[string][]LatencyStats{}}
	for name, insts := range r.stats {
		out := make([]InstanceStats, len(insts))
		for i, st := range insts {
			out[i] = InstanceStats{
				Executed: st.executed.Load(),
				Emitted:  st.emitted.Load(),
			}
			if st.lat != nil {
				if snap.Latency[name] == nil {
					snap.Latency[name] = make([]LatencyStats, len(insts))
				}
				snap.Latency[name][i] = st.lat.Snapshot()
			}
		}
		snap.PerInstance[name] = out
	}
	r.winMu.Lock()
	for name, srcs := range r.winSrc {
		out := make([]WindowStats, len(srcs))
		for i, src := range srcs {
			if src != nil {
				out[i] = src.WindowStats()
			}
		}
		snap.Windows[name] = out
	}
	for edgeName, srcs := range r.hkSrc {
		out := make([]HotkeyStats, len(srcs))
		for i, src := range srcs {
			if src != nil {
				out[i], _ = src.HotkeyStats()
			}
		}
		snap.Hotkeys[edgeName] = out
	}
	for name, srcs := range r.edgeSrc {
		out := make([]EdgeStats, len(srcs))
		for i, src := range srcs {
			if src != nil {
				out[i] = src.EdgeStats()
			}
		}
		snap.Edges[name] = out
	}
	for comp, srcs := range r.latSrc {
		for i, src := range srcs {
			if src == nil {
				continue
			}
			for _, se := range src.LatencySeries() {
				name := comp + se.Suffix
				if snap.Latency[name] == nil {
					snap.Latency[name] = make([]LatencyStats, len(srcs))
				}
				snap.Latency[name][i] = se.Stats
			}
		}
	}
	r.winMu.Unlock()
	return snap
}

// registerWindowSource records a bolt instance that exposes windowing
// counters, so Stats can snapshot it.
func (r *Runtime) registerWindowSource(component string, index, parallelism int, src WindowStatsSource) {
	r.winMu.Lock()
	defer r.winMu.Unlock()
	if r.winSrc[component] == nil {
		r.winSrc[component] = make([]WindowStatsSource, parallelism)
	}
	r.winSrc[component][index] = src
}

// registerHotkeySource records a frequency-aware edge grouping (one per
// emitting instance), so Stats can snapshot its hot-key counters.
func (r *Runtime) registerHotkeySource(edgeName string, index, parallelism int, src HotkeyStatsSource) {
	if _, ok := src.HotkeyStats(); !ok {
		return // a plain router edge: nothing to report
	}
	r.winMu.Lock()
	defer r.winMu.Unlock()
	if r.hkSrc[edgeName] == nil {
		r.hkSrc[edgeName] = make([]HotkeyStatsSource, parallelism)
	}
	r.hkSrc[edgeName][index] = src
}

// registerEdgeSource records a bolt instance that drives a remote edge,
// so Stats can snapshot its flow-control counters.
func (r *Runtime) registerEdgeSource(component string, index, parallelism int, src EdgeStatsSource) {
	r.winMu.Lock()
	defer r.winMu.Unlock()
	if r.edgeSrc[component] == nil {
		r.edgeSrc[component] = make([]EdgeStatsSource, parallelism)
	}
	r.edgeSrc[component][index] = src
}

// registerLatencySource records a bolt instance that observes latency,
// so Stats can snapshot its histograms.
func (r *Runtime) registerLatencySource(component string, index, parallelism int, src LatencyStatsSource) {
	r.winMu.Lock()
	defer r.winMu.Unlock()
	if r.latSrc[component] == nil {
		r.latSrc[component] = make([]LatencyStatsSource, parallelism)
	}
	r.latSrc[component][index] = src
}

// MetricsRegistry returns the runtime's metrics registry — executed/
// emitted counters per component and every latency series, all read
// live from Stats at scrape time. Options.MetricsAddr serves it over
// HTTP for the duration of Run; embedders can also mount it themselves.
func (r *Runtime) MetricsRegistry() *metrics.Registry {
	r.regOnce.Do(func() {
		reg := metrics.NewRegistry()
		register := func(name string) {
			insts := r.stats[name]
			labels := fmt.Sprintf("component=%q", name)
			reg.Counter("pkgstream_tuples_executed_total", labels, func() int64 {
				var t int64
				for _, st := range insts {
					t += st.executed.Load()
				}
				return t
			})
			reg.Counter("pkgstream_tuples_emitted_total", labels, func() int64 {
				var t int64
				for _, st := range insts {
					t += st.emitted.Load()
				}
				return t
			})
		}
		for _, s := range r.top.spouts {
			register(s.name)
		}
		for _, b := range r.top.bolts {
			register(b.name)
		}
		reg.HistogramVec("pkgstream_latency_seconds", func() map[string]metrics.HistSnapshot {
			st := r.Stats()
			out := make(map[string]metrics.HistSnapshot, len(st.Latency))
			for name := range st.Latency {
				out[name] = st.LatencyTotals(name)
			}
			return out
		})
		// The paper's headline metric, live: per-worker load (executed
		// tuples per bolt instance — the load vector I(t) is computed
		// on) and the imbalance fraction (max − avg) / total of each
		// component, the normalization of the paper's figures.
		bolts := make([]string, 0, len(r.top.bolts))
		for _, b := range r.top.bolts {
			bolts = append(bolts, b.name)
		}
		reg.GaugeVec("pkgstream_worker_load", func() map[string]float64 {
			out := map[string]float64{}
			for _, name := range bolts {
				for i, st := range r.stats[name] {
					out[fmt.Sprintf("component=%q,instance=\"%d\"", name, i)] =
						float64(st.executed.Load())
				}
			}
			return out
		})
		reg.GaugeVec("pkgstream_imbalance_fraction", func() map[string]float64 {
			out := map[string]float64{}
			for _, name := range bolts {
				var max, sum int64
				n := len(r.stats[name])
				for _, st := range r.stats[name] {
					l := st.executed.Load()
					if l > max {
						max = l
					}
					sum += l
				}
				if n == 0 || sum == 0 {
					out[fmt.Sprintf("component=%q", name)] = 0
					continue
				}
				imb := float64(max) - float64(sum)/float64(n)
				out[fmt.Sprintf("component=%q", name)] = imb / float64(sum)
			}
			return out
		})
		// Backpressure and progress gauges: per-component watermark lag
		// and window backlog (from every WindowStatsSource) plus edge
		// queue depth, in-flight credit and cumulative credit-wait time
		// (from every EdgeStatsSource). All read live at scrape time.
		reg.GaugeVec("pkgstream_watermark_lag_seconds", func() map[string]float64 {
			st := r.Stats()
			out := make(map[string]float64, len(st.Windows))
			for name := range st.Windows {
				out[fmt.Sprintf("component=%q", name)] =
					float64(st.WindowTotals(name).WMLagNs) / 1e9
			}
			return out
		})
		reg.GaugeVec("pkgstream_window_backlog", func() map[string]float64 {
			st := r.Stats()
			out := make(map[string]float64, len(st.Windows))
			for name := range st.Windows {
				out[fmt.Sprintf("component=%q", name)] =
					float64(st.WindowTotals(name).Live)
			}
			return out
		})
		reg.GaugeVec("pkgstream_edge_queue_depth", func() map[string]float64 {
			st := r.Stats()
			out := make(map[string]float64, len(st.Edges))
			for name := range st.Edges {
				out[fmt.Sprintf("component=%q", name)] =
					float64(st.EdgeTotals(name).Queue)
			}
			return out
		})
		reg.GaugeVec("pkgstream_edge_inflight_tuples", func() map[string]float64 {
			st := r.Stats()
			out := make(map[string]float64, len(st.Edges))
			for name := range st.Edges {
				out[fmt.Sprintf("component=%q", name)] =
					float64(st.EdgeTotals(name).InFlight)
			}
			return out
		})
		reg.GaugeVec("pkgstream_edge_credit_wait_seconds_total", func() map[string]float64 {
			st := r.Stats()
			out := make(map[string]float64, len(st.Edges))
			for name := range st.Edges {
				out[fmt.Sprintf("component=%q", name)] =
					float64(st.EdgeTotals(name).WaitNs) / 1e9
			}
			return out
		})
		// Flow-control actuation gauges: the live summed credit window
		// of each remote edge (static edges scrape as connections ×
		// configured window; adaptive edges move with their AIMD
		// controllers) and the per-destination-node service-time
		// estimates the edges learned from ack piggybacks (the weighted
		// argmin's input — a slowed node stands out immediately).
		reg.GaugeVec("pkgstream_edge_credit_window", func() map[string]float64 {
			st := r.Stats()
			out := make(map[string]float64, len(st.Edges))
			for name := range st.Edges {
				out[fmt.Sprintf("component=%q", name)] =
					float64(st.EdgeTotals(name).Window)
			}
			return out
		})
		reg.GaugeVec("pkgstream_edge_service_seconds", func() map[string]float64 {
			st := r.Stats()
			out := map[string]float64{}
			for name := range st.Edges {
				for node, ns := range st.EdgeTotals(name).ServiceNs {
					if ns > 0 {
						out[fmt.Sprintf("component=%q,node=\"%d\"", name, node)] =
							float64(ns) / 1e9
					}
				}
			}
			return out
		})
		r.reg = reg
	})
	return r.reg
}

func (r *Runtime) recordErr(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.firstErr == nil {
		r.firstErr = err
	}
}

// instanceErr converts a recovered panic value into the instance's
// topology error. Panic values that are themselves errors are wrapped
// (not stringified), so typed failures — a remote forwarder's
// *EdgeError after exhausted retries — survive to the Run caller's
// errors.As.
func instanceErr(kind, name string, index int, p any) error {
	if err, ok := p.(error); ok {
		return fmt.Errorf("engine: %s %s[%d] failed: %w", kind, name, index, err)
	}
	return fmt.Errorf("engine: %s %s[%d] panicked: %v", kind, name, index, p)
}

// subscription is one downstream edge of an emitting instance. Routed
// tuples accumulate in a per-destination buffer and move downstream a
// batch at a time through the edge abstraction — in-process topologies
// wire an edge.Local here (one bounded channel per destination, the
// unchanged PR 1 hot path: the interface costs one virtual call per
// BATCH, not per tuple).
type subscription struct {
	out edge.Edge[Tuple]
	// chans is the devirtualized view of a local edge (nil for any
	// other Edge implementation): at BatchSize 1 the interface call
	// per batch is an interface call per TUPLE, so the hot loop sends
	// straight into the channel when it can. Today Run wires ONLY
	// Local edges into subscriptions — remote hops ride forwarder
	// bolts (window.tupleForwarder/remoteFinal), which own their Wire
	// edge directly — so the interface branch below is the seam for a
	// future non-Local subscription edge, not a path the current
	// runtime exercises.
	chans []chan []Tuple
	n     int // destination parallelism
	group Grouping
	bufs  [][]Tuple
	// traced collects, per destination, the trace IDs buffered in bufs
	// awaiting the batch send — when the batch ships, each gets a
	// HopEnqueue span whose duration is the channel-send block time
	// (i.e. the backpressure a traced tuple actually experienced).
	traced [][]uint64
}

// send moves one batch through the subscription's edge. A Send that
// fails breaks the emitting instance (the panic is caught by the
// instance guard); Local edges never fail.
func (s *subscription) send(dst int, batch []Tuple) {
	if s.chans != nil {
		s.chans[dst] <- batch
		return
	}
	if err := s.out.Send(dst, batch); err != nil {
		panic(err)
	}
}

// emitter routes the tuples of one instance. stamp is true for spouts,
// which timestamp tuples for end-to-end latency measurement; the
// timestamp is read once per batch, not once per tuple, so a saturated
// spout pays one clock call per BatchSize emits.
type emitter struct {
	stats   *instStats
	subs    []subscription
	stamp   bool
	keyed   bool // some edge routes by key: hash once per tuple
	batch   int
	stamped int
	pending int // emits not yet added to the shared counter
	now     int64
	// comp is the emitting component's name — the note of HopEmit spans.
	comp string
	// latEvery samples spout emits for latency measurement: every
	// latEvery-th data tuple gets a wall-clock LatStamp (one
	// clock call per latEvery emits — the emit-path overhead knob).
	// Zero (bolts, or sampling disabled) stamps nothing.
	latEvery int
	// sinceLat counts DOWN to the next stamp so the per-tuple cost is
	// one decrement and one zero test; emitters that never stamp
	// (bolts, sampling disabled) start at MaxInt64 and simply never
	// reach zero. A tuple that can't take the stamp (a tick, or a
	// caller-stamped replay) defers it to the next emit.
	sinceLat int64
	// traceEvery / sinceTrace sample spout emits into distributed
	// traces, the same countdown idiom as latEvery / sinceLat: every
	// traceEvery-th data tuple gets a fresh TraceID and a HopEmit span.
	traceEvery int
	sinceTrace int64
}

// Emit implements Emitter. It blocks when a destination queue is full
// and a batch is ready for it.
func (e *emitter) Emit(t Tuple) {
	if e.stamp && t.EmitNanos == 0 {
		// The refresh counter tracks tuples actually stamped — not all
		// emits — so pre-stamped tuples (replays) can never consume a
		// refresh slot and leave fresh tuples with a zero or stale clock.
		if e.stamped%e.batch == 0 {
			e.now = time.Now().UnixNano()
		}
		e.stamped++
		t.EmitNanos = e.now
	}
	if e.sinceLat--; e.sinceLat == 0 {
		if t.Tick || t.LatStamp != 0 {
			e.sinceLat = 1
		} else {
			e.sinceLat = int64(e.latEvery)
			t.LatStamp = LatStampNow()
		}
	}
	if e.sinceTrace--; e.sinceTrace == 0 {
		if t.Tick || t.TraceID != 0 {
			e.sinceTrace = 1 // defer to the next emit
		} else {
			e.sinceTrace = int64(e.traceEvery)
			t.TraceID = trace.NewID()
			trace.Add(t.TraceID, trace.HopEmit, trace.Now(), 0, 0, 0, e.comp)
		}
	}
	if e.keyed {
		t.RouteKey() // hash the key once; every edge routes on the cached hash
	}
	// The shared emitted counter is updated once per batch, not per
	// tuple (Flush settles the remainder), keeping atomics off the
	// per-tuple path.
	e.pending++
	if e.pending >= e.batch {
		e.stats.emitted.Add(int64(e.pending))
		e.pending = 0
	}
	for i := range e.subs {
		s := &e.subs[i]
		var dst int
		if t.TraceID != 0 {
			dst = e.traceSelect(s, t)
		} else {
			dst = s.group.Select(t)
		}
		if dst == BroadcastAll {
			for d := 0; d < s.n; d++ {
				e.push(s, d, t)
			}
			continue
		}
		e.push(s, dst, t)
	}
}

// explainer is implemented by groupings that can render a routing
// decision for a trace span (routerGrouping, i.e. every key-based
// strategy); unknown groupings trace the chosen destination alone.
type explainer interface {
	explainNote(t *Tuple) string
}

// traceSelect is Select for traced tuples: it times the routing
// decision and records a HopRoute span carrying the chosen worker and
// — for key-based strategies — the strategy, key class, candidate set
// and per-candidate loads. It takes the tuple by value so the copy,
// whose address explainNote needs, escapes HERE — in Emit, &t would
// force every tuple onto the heap, traced or not (measured ~90 ns and
// an allocation per emit on the batched path).
func (e *emitter) traceSelect(s *subscription, t Tuple) int {
	start := trace.Now()
	dst := s.group.Select(t)
	dur := trace.Now() - start
	note := ""
	if ex, ok := s.group.(explainer); ok {
		note = ex.explainNote(&t)
	}
	trace.Add(t.TraceID, trace.HopRoute, start, dur, int64(dst), 0, note)
	return dst
}

// push appends t to the destination's pending batch, sending the batch
// downstream when it reaches the flush threshold. Ticks flush the
// destination immediately (after any buffered data, preserving edge
// FIFO) so forwarded timer signals are never delayed behind a partial
// batch. A Send that blocks IS the backpressure signal — local edges
// block on a full channel, wire edges on an exhausted credit window —
// and a Send that fails breaks the emitting instance (the panic is
// caught by the instance guard and surfaces as the topology error).
func (e *emitter) push(s *subscription, dst int, t Tuple) {
	buf := s.bufs[dst]
	if buf == nil {
		buf = make([]Tuple, 0, e.batch)
	}
	buf = append(buf, t)
	if t.TraceID != 0 {
		s.traced[dst] = append(s.traced[dst], t.TraceID)
	}
	if len(buf) >= e.batch || t.Tick {
		e.send(s, dst, buf)
		buf = nil
	}
	s.bufs[dst] = buf
}

// send moves one batch through the subscription, recording a HopEnqueue
// span for every traced tuple it carries (Dur = send block time, Arg1 =
// batch size, Arg2 = destination instance). Untraced batches pay one
// empty-slice check.
func (e *emitter) send(s *subscription, dst int, batch []Tuple) {
	ids := s.traced[dst]
	if len(ids) == 0 {
		s.send(dst, batch)
		return
	}
	start := trace.Now()
	s.send(dst, batch)
	dur := trace.Now() - start
	for _, id := range ids {
		trace.Add(id, trace.HopEnqueue, start, dur, int64(len(batch)), int64(dst), "")
	}
	s.traced[dst] = ids[:0]
}

// Flush sends every pending partial batch downstream and settles the
// emitted counter. The runtime calls it when the emitting instance
// finishes (spout exhausted, bolt cleaned up) and when a bolt has
// drained its input queue, so no tuple is ever stranded in an emit
// buffer behind input that may be long in coming.
func (e *emitter) Flush() {
	if e.pending > 0 {
		e.stats.emitted.Add(int64(e.pending))
		e.pending = 0
	}
	for i := range e.subs {
		s := &e.subs[i]
		for d, buf := range s.bufs {
			if len(buf) > 0 {
				e.send(s, d, buf)
				s.bufs[d] = nil
			}
		}
	}
}

// Run executes the topology to completion: spouts run until exhausted,
// queues drain, bolts flush via Cleanup, and Run returns the first
// instance error (a recovered panic), if any.
func (r *Runtime) Run() error {
	top := r.top

	if r.opts.MetricsAddr != "" {
		srv, err := metrics.ListenAndServe(r.opts.MetricsAddr, r.MetricsRegistry())
		if err != nil {
			return fmt.Errorf("engine: metrics server: %w", err)
		}
		defer srv.Close()
	}

	// One local edge per bolt: a bounded batch channel per instance.
	// The capacity is the tuple budget divided by the batch size, so
	// QueueSize keeps meaning "about this many buffered tuples".
	qcap := r.opts.QueueSize / r.opts.BatchSize
	if qcap < 1 {
		qcap = 1
	}
	edges := map[string]*edge.Local[Tuple]{}
	for _, b := range top.bolts {
		edges[b.name] = edge.NewLocal[Tuple](b.parallelism, qcap)
	}

	// Upstream sender counts per bolt: when all senders (upstream
	// instances plus the bolt's ticker, if any) are done, the bolt's
	// channels close.
	senders := map[string]*sync.WaitGroup{}
	for _, b := range top.bolts {
		senders[b.name] = &sync.WaitGroup{}
	}
	// Downstream subscriptions per component.
	downstream := map[string][]boltDecl{}
	for _, b := range top.bolts {
		for _, in := range b.inputs {
			downstream[in.from] = append(downstream[in.from], b)
		}
	}
	// Count real upstream senders.
	parallelism := map[string]int{}
	for _, s := range top.spouts {
		parallelism[s.name] = s.parallelism
	}
	for _, b := range top.bolts {
		parallelism[b.name] = b.parallelism
	}
	for _, b := range top.bolts {
		for _, in := range b.inputs {
			senders[b.name].Add(parallelism[in.from])
		}
	}

	// realDone[bolt] closes when every real upstream sender finished —
	// the signal for the bolt's ticker (if any) to stop.
	realDone := map[string]chan struct{}{}
	for _, b := range top.bolts {
		done := make(chan struct{})
		realDone[b.name] = done
		wg := senders[b.name]
		go func() {
			wg.Wait()
			close(done)
		}()
	}

	// Tickers count as senders too, so channels close only after the
	// ticker goroutine has exited (no send-on-closed-channel races).
	var tickers sync.WaitGroup
	closers := map[string]*sync.WaitGroup{}
	for _, b := range top.bolts {
		closerWG := &sync.WaitGroup{}
		closers[b.name] = closerWG
		if b.tickEvery > 0 {
			closerWG.Add(1)
			tickers.Add(1)
			go r.runTicker(b, edges[b.name], realDone[b.name], closerWG, &tickers)
		}
	}
	// Edge closers: wait for real senders + ticker, then close the
	// receive side.
	for _, b := range top.bolts {
		b := b
		go func() {
			senders[b.name].Wait()
			closers[b.name].Wait()
			edges[b.name].CloseRecv()
		}()
	}

	newEmitter := func(comp string, index int, stamp bool) *emitter {
		em := &emitter{stats: r.stats[comp][index], stamp: stamp, batch: r.opts.BatchSize, comp: comp}
		em.sinceLat = math.MaxInt64
		em.sinceTrace = math.MaxInt64
		if stamp {
			em.latEvery = r.opts.LatencySample
			if em.latEvery > 0 {
				em.sinceLat = int64(em.latEvery)
			}
			em.traceEvery = r.opts.TraceSample
			if em.traceEvery > 0 {
				em.sinceTrace = int64(em.traceEvery)
			}
		}
		for _, dst := range downstream[comp] {
			for _, in := range dst.inputs {
				if in.from != comp {
					continue
				}
				seed := edgeSeed(top.seed, comp, dst.name)
				group := in.factory(dst.parallelism, seed, index)
				if !keyOblivious(group) {
					em.keyed = true
				}
				if hs, ok := group.(HotkeyStatsSource); ok {
					r.registerHotkeySource(comp+"→"+dst.name, index, parallelism[comp], hs)
				}
				em.subs = append(em.subs, subscription{
					out:    edges[dst.name],
					chans:  edges[dst.name].Chans(),
					n:      dst.parallelism,
					group:  group,
					bufs:   make([][]Tuple, dst.parallelism),
					traced: make([][]uint64, dst.parallelism),
				})
			}
		}
		return em
	}

	var peis sync.WaitGroup

	// Bolts first (they block on their queues).
	for _, b := range top.bolts {
		for i := 0; i < b.parallelism; i++ {
			b, i := b, i
			peis.Add(1)
			go func() {
				defer peis.Done()
				defer func() {
					// Signal our downstream edges after Cleanup.
					for _, dst := range downstream[b.name] {
						for _, in := range dst.inputs {
							if in.from == b.name {
								senders[dst.name].Done()
							}
						}
					}
				}()
				r.runBolt(b, i, edges[b.name].Recv(i), newEmitter(b.name, i, false))
			}()
		}
	}

	// Spouts.
	for _, s := range top.spouts {
		for i := 0; i < s.parallelism; i++ {
			s, i := s, i
			peis.Add(1)
			go func() {
				defer peis.Done()
				defer func() {
					for _, dst := range downstream[s.name] {
						for _, in := range dst.inputs {
							if in.from == s.name {
								senders[dst.name].Done()
							}
						}
					}
				}()
				r.runSpout(s, i, newEmitter(s.name, i, true))
			}()
		}
	}

	peis.Wait()
	tickers.Wait()

	r.mu.Lock()
	defer r.mu.Unlock()
	if r.firstErr != nil {
		// Flight-recorder post-mortem: what the process was doing in the
		// spans leading up to the failure, on stderr next to the error.
		trace.DumpFailure(r.firstErr.Error())
	}
	return r.firstErr
}

func (r *Runtime) runTicker(b boltDecl, e *edge.Local[Tuple], done <-chan struct{},
	closerWG, tickers *sync.WaitGroup) {
	defer tickers.Done()
	defer closerWG.Done()
	ticker := time.NewTicker(b.tickEvery)
	defer ticker.Stop()
	for {
		select {
		case <-done:
			return
		case <-ticker.C:
			for i := 0; i < e.Instances(); i++ {
				// Ticks are timing signals: each ships immediately as its
				// own singleton batch instead of waiting behind data.
				if !e.SendUnlessDone(i, []Tuple{{Tick: true}}, done) {
					return
				}
			}
		}
	}
}

func (r *Runtime) runSpout(decl spoutDecl, index int, em *emitter) {
	defer em.Flush() // registered first so it runs after the recover below
	defer func() {
		if p := recover(); p != nil {
			r.recordErr(instanceErr("spout", decl.name, index, p))
		}
	}()
	sp := decl.factory()
	ctx := &Context{Topology: r.top.name, Component: decl.name, Index: index, Parallelism: decl.parallelism}
	sp.Open(ctx)
	defer sp.Close()
	for sp.Next(em) {
	}
}

func (r *Runtime) runBolt(decl boltDecl, index int, in <-chan []Tuple, em *emitter) {
	defer em.Flush() // after Cleanup, before the caller signals downstream
	st := r.stats[decl.name][index]
	bolt := decl.factory()
	if src, ok := bolt.(WindowStatsSource); ok {
		r.registerWindowSource(decl.name, index, decl.parallelism, src)
	}
	if src, ok := bolt.(EdgeStatsSource); ok {
		r.registerEdgeSource(decl.name, index, decl.parallelism, src)
	}
	if src, ok := bolt.(LatencyStatsSource); ok {
		r.registerLatencySource(decl.name, index, decl.parallelism, src)
	}
	ctx := &Context{Topology: r.top.name, Component: decl.name, Index: index, Parallelism: decl.parallelism}

	broken := false
	guard := func(f func()) {
		defer func() {
			if p := recover(); p != nil {
				broken = true
				r.recordErr(instanceErr("bolt", decl.name, index, p))
			}
		}()
		f()
	}
	guard(func() { bolt.Prepare(ctx) })
	for batch := range in {
		if broken {
			continue // keep draining so upstream does not block forever
		}
		r.execBatch(bolt, batch, em, st, &broken, decl.name, index)
		if len(in) == 0 {
			// Idle input: whatever this batch made the bolt emit goes out
			// now rather than with the next batch, whenever that comes.
			em.Flush()
		}
	}
	if !broken {
		guard(func() { bolt.Cleanup(em) })
	}
}

// execBatch runs one input batch through the bolt under a single panic
// guard, and settles the executed counter with one atomic add covering
// the batch's data tuples (ticks are timer signals, not load — the
// paper's imbalance is computed on data tuples only). A panic abandons
// the rest of the batch: the bolt is broken from that tuple on, and
// runBolt drains every later batch without executing.
func (r *Runtime) execBatch(bolt Bolt, batch []Tuple, em *emitter, st *instStats,
	broken *bool, name string, index int) {
	data := 0
	defer func() {
		if data > 0 {
			st.executed.Add(int64(data))
		}
		if p := recover(); p != nil {
			*broken = true
			r.recordErr(instanceErr("bolt", name, index, p))
		}
	}()
	lat := st.lat
	for _, t := range batch {
		if !t.Tick {
			data++
			if lat != nil && t.LatStamp != 0 {
				// A sampled tuple arriving at a sink: the end of its
				// emit→delivery measurement.
				lat.Observe(LatSince(t.LatStamp))
			}
		}
		if t.TraceID != 0 {
			// A traced tuple reaching this worker: Dur is the handler
			// time, the note names the component the trace crossed into.
			start := trace.Now()
			bolt.Execute(t, em)
			trace.Add(t.TraceID, trace.HopDispatch, start, trace.Now()-start,
				int64(index), 0, name)
			continue
		}
		bolt.Execute(t, em)
	}
}

// edgeSeed derives the hash seed of an edge from the topology seed and
// the endpoint names, so every emitter on the edge agrees on its hash
// functions while distinct edges stay independent.
func edgeSeed(seed uint64, from, to string) uint64 {
	h := hash.String64(from+"\x00"+to, uint32(seed))
	return h ^ hash.Fmix64(seed)
}
