package main

import (
	"sort"

	"pkgstream/internal/metrics"
)

// metricDef declares one metric: BENCHMARK.json at the repository root
// carries the same list (bench_test.go holds the two together).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: tolerated worsening, as a share of the baseline median
}

// endToEnd are the metrics a user of the pipeline would see, measured
// with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"words_per_s", "1/s", "higher", 0.25},
	{"cpu_ns_per_word", "ns", "lower", 0.25},
	{"result_lat_p50_ms", "ms", "lower", 0.20},
	{"result_lat_p75_ms", "ms", "lower", 0.25},
	{"max_load_ratio", "ratio", "lower", 0.05},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// perLayer are the single-layer metrics of a traced run (-trace 1).
var perLayer = []metricDef{
	{Name: "imbalance_frac", Unit: "ratio", Better: "lower"},
	{Name: "result_lat_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "gen.lag_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "gen.emit_blocked_share", Unit: "ratio", Better: "lower"},
	{Name: "hash.keyhash_ns", Unit: "ns", Better: "lower"},
	{Name: "route.route_ns", Unit: "ns", Better: "lower"},
	{Name: "route.imbalance_frac", Unit: "ratio", Better: "lower"},
	{Name: "route.imbalance_frac_pkg2", Unit: "ratio", Better: "lower"},
	{Name: "route.avg_candidates", Unit: "count", Better: "lower"},
	{Name: "route.hot_keys", Unit: "count", Better: "lower"},
	{Name: "route.head_keys", Unit: "count", Better: "lower"},
	{Name: "route.class_changes", Unit: "count", Better: "lower"},
	{Name: "sketch.offer_ns", Unit: "ns", Better: "lower"},
	{Name: "engine.emit_ns", Unit: "ns", Better: "lower"},
	{Name: "engine.emit_to_partial_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.emit_to_partial_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "edge.local_send_ns", Unit: "ns", Better: "lower"},
	{Name: "edge.wire_send_ns", Unit: "ns", Better: "lower"},
	{Name: "edge.wire_tuples_per_frame", Unit: "count", Better: "higher"},
	{Name: "edge.wire_stalls", Unit: "count", Better: "lower"},
	{Name: "edge.wire_credit_wait_share", Unit: "ratio", Better: "lower"},
	{Name: "edge.wire_retries", Unit: "count", Better: "lower"},
	{Name: "edge.wire_failures", Unit: "count", Better: "lower"},
	{Name: "wire.tuple_encode_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.tuple_decode_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.tuple_bytes", Unit: "B", Better: "lower"},
	{Name: "wire.partial_encode_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.partial_decode_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.partial_bytes", Unit: "B", Better: "lower"},
	{Name: "transport.partial_send_ns", Unit: "ns", Better: "lower"},
	{Name: "transport.results_per_frame", Unit: "count", Better: "higher"},
	{Name: "transport.result_push_ms", Unit: "ms", Better: "lower"},
	{Name: "window.partial_accum_ns", Unit: "ns", Better: "lower"},
	{Name: "window.flush_ns_per_partial", Unit: "ns", Better: "lower"},
	{Name: "window.final_merge_ns", Unit: "ns", Better: "lower"},
	{Name: "window.close_ns_per_result", Unit: "ns", Better: "lower"},
	{Name: "window.partials_per_word", Unit: "ratio", Better: "lower"},
	{Name: "window.flushes", Unit: "count", Better: "lower"},
	{Name: "window.live_max", Unit: "count", Better: "lower"},
	{Name: "window.windows_closed", Unit: "count", Better: "higher"},
	{Name: "window.late_dropped", Unit: "count", Better: "lower"},
	{Name: "proc.allocs_per_word", Unit: "count", Better: "lower"},
	{Name: "proc.bytes_per_word", Unit: "B", Better: "lower"},
	{Name: "proc.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "proc.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "proc.heap_peak_mb", Unit: "MB", Better: "lower"},
	{Name: "proc.sys_cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "budget.layer_sum_ns", Unit: "ns", Better: "lower"},
	{Name: "budget.coverage", Unit: "ratio", Better: "higher"},
	{Name: "trace.emit_us", Unit: "us", Better: "lower"},
	{Name: "trace.route_us", Unit: "us", Better: "lower"},
	{Name: "trace.enqueue_us", Unit: "us", Better: "lower"},
	{Name: "trace.wire_send_us", Unit: "us", Better: "lower"},
	{Name: "trace.dispatch_us", Unit: "us", Better: "lower"},
	{Name: "trace.partial_us", Unit: "us", Better: "lower"},
	{Name: "trace.flush_us", Unit: "us", Better: "lower"},
	{Name: "trace.merge_us", Unit: "us", Better: "lower"},
	{Name: "trace.window_close_us", Unit: "us", Better: "lower"},
	{Name: "trace.result_us", Unit: "us", Better: "lower"},
	{Name: "trace.complete_traces", Unit: "count", Better: "higher"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line a single-workload run prints.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// withUnits attaches the declared unit to every declared metric; a
// value the run did not produce reads 0.
func withUnits(defs []metricDef, vals map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.Name] = metricValue{Value: vals[d.Name], Unit: d.Unit}
	}
	return out
}

// quantile is the p-quantile (p in [0, 1]) of an ascending slice,
// linearly interpolated; an empty slice — a leg that failed — reads 0.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return metrics.Percentile(sorted, 100*p)
}

// quantileOf is quantile for values in any order.
func quantileOf(vals []float64, p float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return quantile(s, p)
}

func median(vals []float64) float64 { return quantileOf(vals, 0.5) }
