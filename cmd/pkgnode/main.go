// Command pkgnode is the worker daemon of a distributed PKG topology:
// one process per node, speaking the internal/wire protocol over TCP.
// It hosts one of three handler modes:
//
//	-mode counter   the classic PKG worker (§V): per-key partial counts
//	                for the tuples routed to it, answering OpCount point
//	                queries with its share of a key;
//	-mode partial   the windowed PARTIAL stage (§IV fully distributed):
//	                accumulates per-(key, window) state for the raw
//	                tuples the engine's flow-controlled wire edge routes
//	                to it, flushes every aggregation period, and
//	                forwards the partials — key-grouped, with bounded
//	                retry — to the final nodes given by -final;
//	-mode final     the windowed final stage: merges flushed partials,
//	                closes windows once the minimum watermark across all
//	                upstream sources passes their end, and serves the
//	                closed (key, window) results to OpResults queries
//	                and Subscribe push sessions. Results every push
//	                subscriber has been sent are released; the shutdown
//	                line counts them, and only the rest are printed.
//
// A three-process windowed wordcount (the `pipeline` experiment's fully
// distributed shape — start finals first, partials dial them):
//
//	pkgnode -mode final -addr 127.0.0.1:7411 -sources 2 &
//	pkgnode -mode final -addr 127.0.0.1:7412 -sources 2 &
//	pkgnode -mode partial -addr 127.0.0.1:7421 -id 0 -nodes 2 \
//	    -final 127.0.0.1:7411,127.0.0.1:7412 &
//	pkgnode -mode partial -addr 127.0.0.1:7422 -id 1 -nodes 2 \
//	    -final 127.0.0.1:7411,127.0.0.1:7412 &
//	PKGNODE_PARTIAL_ADDRS=127.0.0.1:7421,127.0.0.1:7422 \
//	PKGNODE_FINAL_ADDRS=127.0.0.1:7411,127.0.0.1:7412 \
//	    go run ./cmd/pkgbench -exp pipeline -scale quick
//
// A final node's -sources is the number of nodes/instances feeding it:
// the upstream partial stage's parallelism for the engine-side
// remote-final shape, or -nodes for the fully distributed shape. A
// partial node's -sources is the number of engine STREAM sources
// (spouts advertising SourceMark watermarks). The window shape
// (-win-size/-win-slide/-every) and -seed must match the engine
// process's declaration; the defaults match the pipeline experiment.
//
// Diagnostics are structured JSON lines on stderr (log/slog), each
// stamped with the node's role, addr and (partial mode) id; closed
// window results — program output — stay on stdout. With -metrics set,
// the HTTP listener additionally serves /healthz (liveness: 200 while
// the process serves) and /readyz (readiness: 503 once the node is
// done or its forwarder has latched a fatal error, 200 otherwise).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"pkgstream/internal/metrics"
	"pkgstream/internal/trace"
	"pkgstream/internal/transport"
	"pkgstream/internal/window"
)

func main() {
	var (
		addr    = flag.String("addr", "127.0.0.1:7411", "TCP listen address")
		mode    = flag.String("mode", "final", "counter | partial | final")
		mAddr   = flag.String("metrics", "", "serve GET /metrics (Prometheus text), /healthz, /readyz and /debug/pprof/* on this address (empty: off)")
		statsEv = flag.Duration("stats-every", 0, "log a JSON stats snapshot on this period (0: off)")
		sources = flag.Int("sources", -1, "final: upstream sources feeding this node (default 4 — the engine partial parallelism; use -nodes for the fully distributed shape); partial: engine stream sources (default 1)")
		winSize = flag.Duration("win-size", time.Second, "partial/final: window size in event time (0: one global window)")
		slide   = flag.Duration("win-slide", 0, "partial/final: window slide (0: tumbling)")
		every   = flag.Int("every", 2000, "partial: flush after this many tuples (the aggregation period T)")
		period  = flag.Duration("period", 0, "partial: also flush on this wall-clock period (0: off)")
		finals  = flag.String("final", "", "partial: comma-separated final node addresses (required)")
		id      = flag.Int("id", 0, "partial: this node's index among the partial nodes")
		nodes   = flag.Int("nodes", 2, "partial: total number of partial nodes")
		seed    = flag.Uint64("seed", 3, "partial: key→final-node hash seed (must match across partial nodes)")
		once    = flag.Bool("once", false, "partial/final: exit once every source has sent its final mark")
		quiet   = flag.Bool("quiet", false, "suppress the per-window result summary at shutdown")
		tRing   = flag.Int("trace-ring", 0, "flight-recorder depth in spans (0: the default, 4096)")
		slow    = flag.Duration("slow-worker", 0, "inject a fixed per-tuple handler delay (fault injection: makes this node a reproducible slow worker; 0: off)")
	)
	flag.Parse()

	// Every diagnostic line carries the node's identity — aggregating
	// the fleet's stderr into one stream stays greppable by node.
	logger := slog.New(slog.NewJSONHandler(os.Stderr, nil)).With(
		slog.String("role", *mode), slog.String("addr", *addr))
	if *mode == "partial" {
		logger = logger.With(slog.Int("id", *id))
	}

	// Name this process in trace spans and flight-recorder dumps before
	// anything records: the engine queries them back by OpTrace and
	// groups cross-process traces by these names.
	trace.SetProcess(fmt.Sprintf("pkgnode-%s@%s", *mode, *addr))
	if *tRing > 0 {
		trace.Default.Resize(*tRing)
	}
	// SIGQUIT dumps the flight recorder and keeps serving — the
	// live-inspection idiom (`kill -QUIT <pid>`).
	defer trace.HandleSIGQUIT()()

	var (
		worker  *transport.Worker
		final   *window.FinalHandler
		partial *window.PartialHandler
		err     error
	)
	done := func() bool { return false }
	switch *mode {
	case "counter":
		worker, err = transport.ListenWorkerSlow(*addr, *slow)
	case "partial":
		srcs := *sources
		if srcs < 0 {
			srcs = 1 // one engine stream source, the pipeline experiment's shape
		}
		var plan *window.Plan
		plan, err = window.NewPlan(window.Count{}, window.Spec{
			Size: *winSize, Slide: *slide, EveryTuples: *every, Sources: srcs,
		})
		if err == nil {
			partial, err = plan.NewPartialHandler(window.PartialHandlerOptions{
				ID: *id, Nodes: *nodes, Seed: *seed,
				FinalAddrs: transport.SplitAddrs(*finals),
			})
		}
		if err == nil {
			worker, err = transport.ListenHandler(*addr, transport.Slow(partial, *slow))
		}
		if err == nil {
			done = partial.Done
			if *period > 0 {
				go func() {
					t := time.NewTicker(*period)
					defer t.Stop()
					for range t.C {
						partial.Tick()
					}
				}()
			}
		}
	case "final":
		srcs := *sources
		if srcs < 0 {
			srcs = 4 // the engine-side partial parallelism of the pipeline experiment
		}
		var plan *window.Plan
		plan, err = window.NewPlan(window.Count{}, window.Spec{Size: *winSize, Slide: *slide})
		if err == nil {
			final, err = plan.NewFinalHandler(srcs)
		}
		if err == nil {
			worker, err = transport.ListenHandler(*addr, transport.Slow(final, *slow))
		}
		if err == nil {
			done = final.Done
		}
	default:
		err = fmt.Errorf("unknown mode %q (counter | partial | final)", *mode)
	}
	if err != nil {
		logger.Error("startup failed", "err", err)
		os.Exit(1)
	}

	snap := nodeSnapshot(*mode, worker, partial, final)
	var msrv *metrics.Server
	if *mAddr != "" {
		msrv, err = metrics.ListenAndServeMux(*mAddr, nodeRegistry(worker, partial, final),
			map[string]http.Handler{
				"/debug/pktrace": trace.Handler(trace.Default),
				"/healthz":       healthHandler(),
				"/readyz":        readyHandler(done, partial),
			})
		if err != nil {
			logger.Error("metrics listener failed", "err", err)
			os.Exit(1)
		}
	}
	if *slow > 0 {
		// Loud on purpose: a fault-injected node must never masquerade
		// as a healthy one in aggregated logs.
		logger.Warn("slow-worker fault injection active", "per_tuple", slow.String())
	}
	if msrv != nil {
		logger.Info("listening", "metrics", "http://"+msrv.Addr()+"/metrics")
	} else {
		logger.Info("listening")
	}
	if *statsEv > 0 {
		go func() {
			t := time.NewTicker(*statsEv)
			defer t.Stop()
			for range t.C {
				logger.Info("stats", "snap", snap())
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	if *once && (final != nil || partial != nil) {
		finished := make(chan struct{})
		go func() {
			for !done() {
				time.Sleep(10 * time.Millisecond)
			}
			close(finished)
		}()
		select {
		case <-sig:
		case <-finished:
		}
	} else {
		<-sig
	}

	if msrv != nil {
		// Drain any in-flight scrape before the process goes away — a
		// SIGTERM'd node never strands a scraper mid-response.
		_ = msrv.Close()
	}
	_ = worker.Close()
	exit := 0
	switch {
	case partial != nil:
		st := partial.Stats()
		es := partial.EdgeStats()
		// frames counts what arrived on the wire; tuples/frames is the
		// effective inbound batching ratio.
		logger.Info("shutdown",
			"done", partial.Done(), "tuples", partial.Processed(),
			"frames", worker.Frames(), "flushes", st.Flushes,
			"partials_out", es.Frames, "retries", es.Retries,
			"bad", partial.BadFrames())
		if err := partial.Err(); err != nil {
			logger.Error("forwarding failed", "err", err)
			exit = 1
		}
	case final != nil:
		st := final.Stats()
		// released counts the results already sent to every push
		// subscriber and dropped from the log; only the rest can print.
		released, kept := final.Retained()
		logger.Info("shutdown",
			"done", final.Done(), "merged", st.Merged,
			"windows", st.WindowsClosed, "late", st.LateDropped,
			"released", released, "bad", final.BadFrames())
		if !*quiet {
			fmt.Printf("results from log offset %d on (earlier ones were released to subscribers):\n", released)
			for _, r := range kept {
				fmt.Printf("  %s [%d, %d) = %d\n", r.Key, r.Start, r.End, r.Value)
			}
		}
	default:
		logger.Info("shutdown",
			"tuples", worker.Processed(), "frames", worker.Frames(),
			"distinct_keys", worker.DistinctKeys())
	}
	os.Exit(exit)
}

// healthHandler is the liveness probe: 200 as long as the process can
// serve HTTP at all. A node that is done but still serving queries is
// alive — use /readyz to gate traffic.
func healthHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
}

// readyHandler is the readiness probe: 503 once the node has absorbed
// its final source marks (done — it will take no new work) or, on a
// partial node, once the forwarder has latched a fatal error; 200
// otherwise. The JSON body carries both facts either way.
func readyHandler(done func() bool, partial *window.PartialHandler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		var ferr error
		if partial != nil {
			ferr = partial.Err()
		}
		body := map[string]any{"ready": ferr == nil && !done(), "done": done()}
		if ferr != nil {
			body["err"] = ferr.Error()
		}
		w.Header().Set("Content-Type", "application/json")
		if !body["ready"].(bool) {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		_ = json.NewEncoder(w).Encode(body)
	})
}

// nodeRegistry builds the node's /metrics registry: wire-edge counters,
// window counters and latency histograms, pull-model — every scrape
// reads the live atomics, nothing is pushed or buffered.
func nodeRegistry(worker *transport.Worker, partial *window.PartialHandler, final *window.FinalHandler) *metrics.Registry {
	reg := metrics.NewRegistry()
	reg.Counter("pkgnode_frames_total", "", worker.Frames)
	reg.Gauge("pkgnode_service_time_seconds", "", func() float64 {
		return float64(worker.ServiceNanos()) / 1e9
	})
	switch {
	case partial != nil:
		reg.Counter("pkgnode_tuples_total", "", partial.Processed)
		reg.Counter("pkgnode_bad_frames_total", "", partial.BadFrames)
		reg.Gauge("pkgnode_tuples_per_frame", "", func() float64 {
			if f := worker.Frames(); f > 0 {
				return float64(partial.Processed()) / float64(f)
			}
			return 0
		})
		reg.Gauge("pkgnode_live_partials", "", func() float64 {
			return float64(partial.Stats().Live)
		})
		reg.Gauge("pkgnode_watermark_lag_seconds", "", func() float64 {
			return float64(partial.Stats().WMLagNs) / 1e9
		})
		reg.Counter("pkgnode_flushes_total", "", func() int64 { return partial.Stats().Flushes })
		reg.Counter("pkgnode_partials_out_total", "", func() int64 { return partial.Stats().PartialsOut })
		reg.Counter("pkgnode_edge_frames_total", "", func() int64 { return partial.EdgeStats().Frames })
		reg.Counter("pkgnode_edge_stalls_total", "", func() int64 { return partial.EdgeStats().Stalls })
		reg.Counter("pkgnode_edge_retries_total", "", func() int64 { return partial.EdgeStats().Retries })
		reg.Histogram("pkgnode_latency_seconds", "", partial.LatencyStats)
	case final != nil:
		reg.Counter("pkgnode_tuples_total", "", worker.Processed)
		reg.Counter("pkgnode_bad_frames_total", "", final.BadFrames)
		reg.Counter("pkgnode_merged_total", "", func() int64 { return final.Stats().Merged })
		reg.Counter("pkgnode_windows_closed_total", "", func() int64 { return final.Stats().WindowsClosed })
		reg.Counter("pkgnode_late_dropped_total", "", func() int64 { return final.Stats().LateDropped })
		reg.Gauge("pkgnode_live_partials", "", func() float64 {
			return float64(final.Stats().Live)
		})
		reg.Gauge("pkgnode_watermark_lag_seconds", "", func() float64 {
			return float64(final.Stats().WMLagNs) / 1e9
		})
		reg.Histogram("pkgnode_staleness_seconds", "", final.StalenessStats)
	default: // counter worker
		reg.Counter("pkgnode_tuples_total", "", worker.Processed)
		reg.Gauge("pkgnode_distinct_keys", "", func() float64 {
			return float64(worker.DistinctKeys())
		})
	}
	return reg
}

// nodeSnapshot returns a closure producing the -stats-every snapshot:
// a flat map rendered as one nested JSON object per slog line, grep-
// and jq-friendly (`jq .snap`). Latency quantiles ride alongside the
// edge's credit counters (stalls, cumulative wait, in-flight, queued)
// and the watermark-lag gauge, so one line answers both "how fast" and
// "what is it waiting on".
func nodeSnapshot(mode string, worker *transport.Worker, partial *window.PartialHandler, final *window.FinalHandler) func() map[string]any {
	return func() map[string]any {
		m := map[string]any{"mode": mode, "frames": worker.Frames(),
			"service_us": float64(worker.ServiceNanos()) / 1e3}
		switch {
		case partial != nil:
			st := partial.Stats()
			es := partial.EdgeStats()
			lat := partial.LatencyStats()
			m["tuples"] = partial.Processed()
			m["done"] = partial.Done()
			m["flushes"] = st.Flushes
			m["partials_out"] = st.PartialsOut
			m["live"] = st.Live
			m["wm_lag_ms"] = float64(st.WMLagNs) / 1e6
			m["edge_frames"] = es.Frames
			m["edge_stalls"] = es.Stalls
			m["edge_retries"] = es.Retries
			m["edge_inflight"] = es.InFlight
			m["edge_queue"] = es.Queue
			m["edge_wait_ms"] = float64(es.WaitNs) / 1e6
			if lat.Count > 0 {
				m["lat_count"] = lat.Count
				m["lat_p50_ms"] = float64(lat.Quantile(0.5)) / 1e6
				m["lat_p99_ms"] = float64(lat.Quantile(0.99)) / 1e6
				m["lat_p999_ms"] = float64(lat.Quantile(0.999)) / 1e6
			}
		case final != nil:
			st := final.Stats()
			stale := final.StalenessStats()
			m["tuples"] = worker.Processed()
			m["done"] = final.Done()
			m["merged"] = st.Merged
			m["windows_closed"] = st.WindowsClosed
			m["late_dropped"] = st.LateDropped
			m["live"] = st.Live
			m["wm_lag_ms"] = float64(st.WMLagNs) / 1e6
			if stale.Count > 0 {
				m["stale_count"] = stale.Count
				m["stale_p50_ms"] = float64(stale.Quantile(0.5)) / 1e6
				m["stale_p99_ms"] = float64(stale.Quantile(0.99)) / 1e6
				m["stale_p999_ms"] = float64(stale.Quantile(0.999)) / 1e6
			}
		default:
			m["tuples"] = worker.Processed()
			m["distinct_keys"] = worker.DistinctKeys()
		}
		return m
	}
}
