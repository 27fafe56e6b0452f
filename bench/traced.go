package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"pkgstream/internal/obs"
	"pkgstream/internal/trace"
)

const (
	// traceEvery is the sampling interval of both traced legs: one word
	// in this many carries a trace ID through every hop.
	traceEvery = 256
	// traceRing keeps every span of a traced open leg (about a dozen per
	// trace) instead of the flight recorder's last 4096.
	traceRing = 1 << 18
	// chromeTraces bounds the Chrome trace file to this many traces.
	chromeTraces = 200
)

// traced is the -trace 1 run. End-to-end numbers never come from here:
// it exists to say where the time goes.
//
//  1. closed leg: a warm-up, then untraced and engine-traced
//     repetitions alternating — live counters, process costs and what
//     the program's own tracing costs;
//  2. an untraced open leg — generator lag, first-hop latency, results
//     per frame;
//  3. a traced open leg — the spout assigns the trace IDs itself so the
//     bench can put its own spans (spout Emit, result collection) under
//     the same IDs as the program's;
//  4. the isolated per-layer replays and the budget they add up to.
func (r *run) traced() {
	wl, v := r.cfg.wl, r.vals
	closed := legOptions{words: r.sc.closedWords, sampleEmit: true}
	withTrace := closed
	withTrace.engineTrace = traceEvery
	r.leg(closed, false)
	var plain, traced []float64
	var cpu []float64
	var last legResult
	for i := 0; i < 2; i++ {
		if res := r.leg(closed, true); res.err == nil {
			plain = append(plain, float64(res.words)/res.wall.Seconds())
			cpu = append(cpu, float64(res.cpuNs)/float64(res.words))
			last = res
		}
		if res := r.leg(withTrace, true); res.err == nil {
			traced = append(traced, float64(res.words)/res.wall.Seconds())
		}
	}
	if p := median(plain); p > 0 {
		v["trace.overhead_pct"] = 100 * (p - median(traced)) / p
	}
	if last.words > 0 {
		words := float64(last.words)
		_, v["imbalance_frac"] = obs.Imbalance(last.loads)
		v["gen.emit_blocked_share"] = float64(last.blocked) / float64(last.wall)
		v["window.partials_per_word"] = float64(last.partial.PartialsOut) / words
		v["window.flushes"] = float64(last.partial.Flushes)
		v["window.live_max"] = float64(last.partial.MaxLive)
		v["window.windows_closed"] = float64(last.final.WindowsClosed)
		v["window.late_dropped"] = float64(last.final.LateDropped)
		if wl.dist {
			v["edge.wire_tuples_per_frame"] = float64(last.edge.Tuples) / float64(max(1, last.edge.Frames))
			v["edge.wire_stalls"] = float64(last.edge.Stalls)
			v["edge.wire_credit_wait_share"] = float64(last.edge.WaitNs) / float64(last.wall)
			v["edge.wire_retries"] = float64(last.edge.Retries)
			v["edge.wire_failures"] = float64(last.edge.Failures)
		}
		m0, m1 := &last.mem0, &last.mem1
		v["proc.allocs_per_word"] = float64(m1.Mallocs-m0.Mallocs) / words
		v["proc.bytes_per_word"] = float64(m1.TotalAlloc-m0.TotalAlloc) / words
		v["proc.gc_cycles"] = float64(m1.NumGC - m0.NumGC)
		v["proc.gc_pause_ms"] = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6
		v["proc.heap_peak_mb"] = float64(m1.HeapSys) / (1 << 20)
		v["proc.sys_cpu_share"] = float64(last.sysNs) / float64(max(1, last.cpuNs))
	}

	half := max(r.sc.openWords/2/r.st.perWindow(), 1) * r.st.perWindow()
	open := r.openLeg(legOptions{words: half, paced: true, wallScale: 1})
	v["gen.lag_p99_ms"] = quantileOf(open.lagsMs, 0.99)
	v["engine.emit_to_partial_p50_ms"] = float64(open.toPartial.Quantile(0.50)) / 1e6
	v["engine.emit_to_partial_p99_ms"] = float64(open.toPartial.Quantile(0.99)) / 1e6
	if wl.dist {
		var frames, results int
		for _, c := range open.finals {
			frames += len(c.frames)
			results += len(c.entries)
		}
		v["transport.results_per_frame"] = float64(results) / float64(max(1, frames))
	}
	r.info.LatSamples = len(open.lat)
	v["result_lat_p95_ms"] = quantile(sortedMs(open.lat), 0.95)

	trace.Default.Resize(traceRing)
	mark := trace.Default.Total()
	topen := r.openLeg(legOptions{words: half, paced: true, wallScale: 1, benchTrace: traceEvery})
	if topen.err == nil {
		spans := trace.Default.Snapshot()
		if fresh := int(trace.Default.Total() - mark); fresh < len(spans) {
			spans = spans[len(spans)-fresh:] // only this leg's
		}
		r.traceMetrics(topen, spans)
	}
	trace.Default.Resize(trace.DefaultRingSpans)

	runtime.GC() // the replays time single calls: start them with the collector idle
	layers, err := replayLayers(r.st, r.sc, last.edgeSeed)
	if err != nil {
		r.note("per-layer replay failed: %v", err)
		r.failed++ // a replay that cannot run is a failed operation, not a silent gap
		r.attempted++
	}
	for k, x := range layers {
		v[k] = x
	}
	r.budget(median(cpu), last)

	if len(r.cfg.rates) > 0 {
		r.sweep()
	}
}

// budget adds the isolated layer costs up, each weighted by how often
// the layer runs per word, and compares the sum with what a word cost
// the process end to end. Reported, not gated: the replays time each
// layer alone and hand-offs in wall time, so contention and the
// scheduler are exactly what the gap holds.
func (r *run) budget(cpuNsPerWord float64, last legResult) {
	v := r.vals
	if last.words == 0 {
		return
	}
	ppw := v["window.partials_per_word"]
	rpw := float64(last.final.WindowsClosed) / float64(last.words)
	sum := v["hash.keyhash_ns"] + v["route.route_ns"] + v["engine.emit_ns"] + v["window.partial_accum_ns"] +
		ppw*(v["window.flush_ns_per_partial"]+v["window.final_merge_ns"]) +
		rpw*v["window.close_ns_per_result"]
	if r.cfg.wl.dist {
		// The tuple crosses edge.Wire (encode, kernel, decode inside that
		// replay); partials cross transport.Source one frame each.
		sum += v["edge.wire_send_ns"] + ppw*v["transport.partial_send_ns"]
	} else {
		// Partials and results each cross one more local edge.
		sum += (ppw + rpw) * v["engine.emit_ns"]
	}
	v["budget.layer_sum_ns"] = sum
	if cpuNsPerWord > 0 {
		v["budget.coverage"] = sum / cpuNsPerWord
	}
}

// Hops whose spans time a call: the metric is the median duration.
var durationHops = map[trace.Hop]string{
	trace.HopEmit:     "trace.emit_us", // the bench's span around the spout's Emit
	trace.HopRoute:    "trace.route_us",
	trace.HopEnqueue:  "trace.enqueue_us",
	trace.HopWireSend: "trace.wire_send_us",
	trace.HopDispatch: "trace.dispatch_us",
}

// stageHops are the instants a word passes on its way to a result, in
// causal order; the metric of each is the median time since the stage
// before it, so the five add up to the traced word's result latency:
// emit → accumulated (the whole tuple hop) → flushed (the wait for the
// aggregation period) → merged (the partial hop) → window closed (the
// wait for the watermark) → collected (the result hop).
var stageHops = []struct {
	hop  trace.Hop
	name string
}{
	{trace.HopPartial, "trace.partial_us"},
	{trace.HopFlush, "trace.flush_us"},
	{trace.HopMerge, "trace.merge_us"},
	{trace.HopWindowClose, "trace.window_close_us"},
	{trace.HopResult, "trace.result_us"}, // the bench's collect span
}

// traceMetrics turns the traced open leg's spans into one median per
// hop and writes a Chrome trace of the first complete traces.
func (r *run) traceMetrics(leg legResult, spans []trace.Span) {
	if r.cfg.wl.dist {
		spans = append(spans, collectSpans(r.st, leg, spans)...)
	}
	byID := trace.ByTrace(spans)
	samples := map[string][]float64{}
	var complete []uint64
	for id, g := range byID {
		stage, at := 0, int64(0) // next stage to reach, and when the last one was
		for _, s := range g {
			if name, ok := durationHops[s.Hop]; ok && s.Dur > 0 {
				samples[name] = append(samples[name], float64(s.Dur)/1e3)
			}
			if s.Hop == trace.HopEmit && at == 0 {
				at = s.Start
			}
			if at == 0 || stage == len(stageHops) || s.Hop != stageHops[stage].hop ||
				(s.Hop == trace.HopResult && s.Note != "bench.collect") {
				continue
			}
			samples[stageHops[stage].name] = append(samples[stageHops[stage].name], float64(s.Start-at)/1e3)
			stage, at = stage+1, s.Start
		}
		if stage == len(stageHops) {
			complete = append(complete, id)
		}
	}
	for _, name := range durationHops {
		r.vals[name] = median(samples[name])
	}
	for _, st := range stageHops {
		r.vals[st.name] = median(samples[st.name])
	}
	r.vals["trace.complete_traces"] = float64(len(complete))

	if r.cfg.traceDir == "" {
		return
	}
	sort.Slice(complete, func(i, j int) bool { return byID[complete[i]][0].Start < byID[complete[j]][0].Start })
	var out []trace.Span
	for _, id := range complete[:min(len(complete), chromeTraces)] {
		out = append(out, byID[id]...)
	}
	for _, s := range spans {
		if s.Trace == 0 && s.Note == "bench.verify" {
			out = append(out, s) // the oracle check, on the event row
		}
	}
	if err := writeChrome(filepath.Join(r.cfg.traceDir, r.cfg.wl.name+".trace.json"), out); err != nil {
		r.note("chrome trace not written: %v", err)
	}
}

// collectSpans gives every traced word whose result reached a final
// node the bench's own span for the last hop: the arrival, at the
// subscriber, of the frame carrying that (word, window). Result frames
// carry no trace IDs, so the match is by the pair — which the bench
// knows, having assigned the ID.
func collectSpans(st *stream, leg legResult, spans []trace.Span) []trace.Span {
	closed := map[uint64]bool{} // traces that reached a window close
	for _, s := range spans {
		if s.Hop == trace.HopResult {
			closed[s.Trace] = true
		}
	}
	want := map[uint64]uint64{} // (window, word) → trace ID
	for _, tw := range leg.traced {
		if closed[tw.id] {
			want[uint64(tw.index/st.perWindow())<<32|uint64(st.keys[tw.index])] = tw.id
		}
	}
	var out []trace.Span
	for f := range leg.finals {
		c := &leg.finals[f]
		for _, fr := range c.frames {
			for _, e := range c.entries[fr.first : fr.first+fr.entries] {
				if id, ok := want[uint64(e.win)<<32|uint64(e.key)]; ok {
					out = append(out, trace.Span{Trace: id, Hop: trace.HopResult, Start: fr.at,
						Arg1: int64(fr.entries), Arg2: int64(f), Note: "bench.collect"})
				}
			}
		}
	}
	return out
}

func writeChrome(path string, spans []trace.Span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteChrome(json.NewEncoder(f), "bench", spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// sweep is the diagnostic rate ladder: an open leg at each requested
// fraction of the workload's seed capacity. A step's p95 is reported
// only if the rate was sustained (0 otherwise), and sustainable_frac is
// the highest fraction that was.
func (r *run) sweep() {
	wl := r.cfg.wl
	words := max(r.sc.openWords/2/r.st.perWindow(), 1) * r.st.perWindow()
	r.sweepVals = map[string]metricValue{}
	best := 0.0
	for _, frac := range r.cfg.rates {
		res := r.leg(legOptions{words: words, paced: true,
			wallScale: float64(wl.rate) / (frac * float64(wl.capacity))}, false)
		p95 := 0.0 // an unsustained step is a finding, not a failure
		if res.err == nil && unsustainable(res) == "" {
			p95 = quantile(sortedMs(res.lat), 0.95)
			best = max(best, frac)
		}
		name := "sweep.result_lat_p95_ms_at_" + strconv.FormatFloat(frac, 'g', -1, 64)
		r.sweepVals[name] = metricValue{Value: p95, Unit: "ms"}
	}
	r.sweepVals["sweep.sustainable_frac"] = metricValue{Value: best, Unit: "ratio"}
}

func parseRates(s string) ([]float64, error) {
	if s == "" {
		return nil, nil
	}
	var out []float64
	for _, f := range strings.Split(s, ",") {
		x, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil || x <= 0 || x > 1.5 {
			return nil, fmt.Errorf("bad -rates entry %q (want fractions of capacity like 0.5,0.8,0.95)", f)
		}
		out = append(out, x)
	}
	return out, nil
}
