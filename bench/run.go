package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"

	"pkgstream/internal/obs"
)

// Sustainability limits of an open leg: past either, the rate is not
// one the pipeline holds and every word of the leg counts as failed.
const (
	// A generator that cannot hold the schedule falls further behind
	// tick after tick, so the lag of the leg's last quarter tells: its
	// median is half a millisecond of timer slack when the rate is held
	// and hundreds when it is not. The limit is one window length. (The
	// p99 over the whole leg is reported as gen.lag_p99_ms but not
	// gated: on two cores one 70 ms scheduler stall that is fully
	// recovered still owns that percentile of a 10 s leg.)
	maxEndLagMs = float64(windowSize / time.Millisecond)
	// A growing backlog also shows as result latency rising through the
	// leg: the last quarter's median against the first quarter's, with
	// an absolute allowance so two small medians cannot trip it on noise.
	backlogRatio   = 2.0
	backlogSlackMs = 10.0
)

// runConfig is one invocation's command line.
type runConfig struct {
	wl      workload
	seed    uint64
	seconds float64
	trace   bool
	// setups is how many times set-up is repeated and timed (the median
	// is reported); the last one's stream feeds the measured legs.
	setups int
	// rates, when set, adds the diagnostic rate sweep to a traced run:
	// fractions of the workload's seed capacity.
	rates []float64
	// traceDir receives <workload>.trace.json from a traced run.
	traceDir string
}

// runInfo is what a run knows beyond its metrics.
type runInfo struct {
	Workload   string   `json:"workload"`
	Seed       uint64   `json:"seed"`
	Seconds    float64  `json:"seconds"`
	InputSHA   string   `json:"input_sha"`
	OpenWords  int      `json:"open_words"`
	ClosedReps int      `json:"closed_reps"`
	LatSamples int      `json:"result_lat_samples"`
	Pairs      int      `json:"oracle_pairs_matched"`
	Notes      []string `json:"notes,omitempty"`
}

// run is the state of one workload run.
type run struct {
	cfg       runConfig
	sc        scale
	st        *stream
	info      runInfo
	attempted int64
	failed    int64
	vals      map[string]float64
	sweepVals map[string]metricValue // -rates only
}

func (r *run) note(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.info.Notes = append(r.info.Notes, msg)
	fmt.Fprintln(os.Stderr, "bench:", r.cfg.wl.name+":", msg)
}

// leg runs one leg and books its words and failures.
func (r *run) leg(opt legOptions, measured bool) legResult {
	res := runLeg(r.st, opt)
	if res.err != nil {
		r.note("leg failed: %v", res.err)
	} else if res.failed > 0 {
		r.note("leg delivered counts %d off the oracle", res.failed)
	}
	if measured {
		r.attempted += int64(opt.words)
		r.failed += res.failed
		r.info.Pairs += res.pairs
	}
	return res
}

// setup generates the inputs and proves a deployment end to end on one
// window of them: generation, the oracle's index, listen, dial,
// subscribe, first use of every layer, teardown.
func (r *run) setup() {
	r.st = generate(r.cfg.wl, r.cfg.seed, r.sc.streamWords())
	r.leg(legOptions{words: min(r.st.perWindow(), r.sc.closedWords)}, false)
}

func runWorkload(cfg runConfig) (report, runInfo) {
	r := &run{cfg: cfg, sc: cfg.wl.scaleFor(cfg.seconds), vals: map[string]float64{}}
	r.info = runInfo{Workload: cfg.wl.name, Seed: cfg.seed, Seconds: cfg.seconds,
		OpenWords: r.sc.openWords, ClosedReps: r.sc.closedReps}
	var setups []float64
	for i := 0; i < max(1, cfg.setups); i++ {
		t0 := time.Now()
		r.setup()
		setups = append(setups, time.Since(t0).Seconds())
		if i+1 < cfg.setups {
			r.st = nil
			runtime.GC() // each set-up starts from an empty heap, like the first
		}
	}
	r.info.InputSHA = r.st.sha
	r.vals["setup_s"] = median(setups)

	defs := endToEnd
	if cfg.trace {
		defs = perLayer
		r.traced()
	} else {
		r.untraced()
	}
	rep := report{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: withUnits(defs, r.vals)}
	for name, v := range r.sweepVals { // the diagnostic rate sweep rides along, undeclared
		rep.Metrics[name] = v
	}
	return rep, r.info
}

// untraced is the default run: the closed leg (one warm-up, then the
// measured repetitions) and the open leg, tracing off.
func (r *run) untraced() {
	closed := legOptions{words: r.sc.closedWords}
	r.leg(closed, false)
	var wps, cpu []float64
	var last legResult
	for i := 0; i < r.sc.closedReps; i++ {
		last = r.leg(closed, true)
		if last.err == nil {
			wps = append(wps, float64(last.words)/last.wall.Seconds())
			cpu = append(cpu, float64(last.cpuNs)/float64(last.words))
		}
	}
	r.vals["words_per_s"] = median(wps)
	r.vals["cpu_ns_per_word"] = median(cpu)
	r.vals["max_load_ratio"] = maxLoadRatio(last.loads)

	open := r.openLeg(legOptions{words: r.sc.openWords, paced: true, wallScale: 1})
	ms := sortedMs(open.lat)
	r.info.LatSamples = len(ms)
	r.vals["result_lat_p50_ms"] = quantile(ms, 0.50)
	r.vals["result_lat_p75_ms"] = quantile(ms, 0.75)

	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	r.vals["peak_rss_mb"] = float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// openLeg runs a paced leg and fails all of its words if the pipeline
// did not sustain the rate.
func (r *run) openLeg(opt legOptions) legResult {
	res := r.leg(opt, true)
	if res.err != nil {
		return res
	}
	if why := unsustainable(res); why != "" {
		r.note("open leg unsustainable: %s", why)
		r.failed += int64(opt.words) - res.failed
	}
	return res
}

// unsustainable says why an open leg's rate was not held ("" if it was).
func unsustainable(res legResult) string {
	if end := median(res.lagsMs[len(res.lagsMs)*3/4:]); end > maxEndLagMs {
		return fmt.Sprintf("the generator ran a median of %.2f ms late over the last quarter (limit %.0f ms)", end, maxEndLagMs)
	}
	if q := len(res.lat) / 4; q >= 4 {
		first := median(sortedMs(res.lat[:q]))
		lastQ := median(sortedMs(res.lat[len(res.lat)-q:]))
		if lastQ > backlogRatio*first+backlogSlackMs {
			return fmt.Sprintf("result latency grew from a median of %.2f ms in the first quarter to %.2f ms in the last", first, lastQ)
		}
	}
	return ""
}

func sortedMs(lat []latSample) []float64 {
	ms := make([]float64, len(lat))
	for i, l := range lat {
		ms[i] = l.ms
	}
	sort.Float64s(ms)
	return ms
}

// maxLoadRatio is the busiest partial worker's load over the average —
// the paper's imbalance fraction (max − avg) / total, rescaled as
// 1 + workers × fraction so that perfect balance reads 1, not 0, and a
// relative bound means something.
func maxLoadRatio(loads []int64) float64 {
	_, frac := obs.Imbalance(loads)
	return 1 + float64(len(loads))*frac
}
