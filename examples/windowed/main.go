// Sliding-window trending words: a skewed stream whose hot word shifts
// over (logical) time, counted by the windowed two-phase aggregation —
// PKG-partial counters flushed every aggregation period, merged
// downstream, windows closed by watermark. Each 30s window reports its
// own top words, so the trend is visible window by window: something the
// repo's running-total word count cannot express.
//
//	go run ./examples/windowed
package main

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"pkgstream"
)

const (
	// Two sources with deliberately skewed logical clocks: source 1 runs
	// a full clockSkew behind source 0. Each source advertises its own
	// event-time progress with SourceMark tuples, so the aggregation's
	// watermark is the exact minimum across sources — no
	// WindowSpec.Lateness sizing, and still zero late drops.
	sources   = 2
	clockSkew = 5 * time.Second
	workers   = 9
	perSource = 150_000                // words per source
	tick      = 500 * time.Microsecond // logical time between words
	hotEvery  = 50 * time.Second       // the trending word changes every 50s
	winSize   = 30 * time.Second
	winSlide  = 15 * time.Second
	markEvery = 1_000 // words between SourceMark progress updates
)

var trending = []string{"gopher", "heron", "kraken"}

// trendSpout emits a Zipf-ish tail plus a per-epoch hot word carrying
// ~20% of the stream, with a pre-stamped logical clock (EmitNanos starts
// nonzero — zero means "unset" and would be wall-clock stamped).
type trendSpout struct {
	i, n int
	idx  int
}

func (s *trendSpout) Open(ctx *pkgstream.Context) { s.idx = ctx.Index }
func (s *trendSpout) Close()                      {}

func (s *trendSpout) Next(out pkgstream.Emitter) bool {
	if s.i >= s.n {
		return false
	}
	s.i++
	at := time.Duration(s.i)*tick + time.Duration(s.idx)*clockSkew
	word := trending[int(at/hotEvery)%len(trending)]
	if r := (s.i*7919 + s.idx*104729) % 100; r >= 20 {
		// The tail: a crude skewed draw over 5000 words.
		word = fmt.Sprintf("w%d", r*r*(s.i%71)%5000)
	}
	out.Emit(pkgstream.Tuple{Key: word, EmitNanos: int64(at)})
	if s.i%markEvery == 0 {
		// This source promises to never emit below `at` again.
		out.Emit(pkgstream.SourceMark(s.idx, int64(at)))
	}
	if s.i == s.n {
		// Final promise: release the watermark from this source's clock.
		out.Emit(pkgstream.SourceMark(s.idx, int64(1)<<62))
	}
	return s.i < s.n
}

// windowSink collects each closed window's per-word totals.
type windowSink struct {
	mu   *sync.Mutex
	wins map[int64][]pkgstream.WordCount
}

func (b *windowSink) Prepare(*pkgstream.Context) {}
func (b *windowSink) Cleanup(pkgstream.Emitter)  {}

func (b *windowSink) Execute(t pkgstream.Tuple, _ pkgstream.Emitter) {
	if t.Tick {
		return
	}
	res := t.Values[0].(pkgstream.WindowResult)
	b.mu.Lock()
	b.wins[res.Start] = append(b.wins[res.Start],
		pkgstream.WordCount{Word: res.Key, Count: res.Value.(int64)})
	b.mu.Unlock()
}

func main() {
	var mu sync.Mutex
	wins := map[int64][]pkgstream.WordCount{}

	plan := pkgstream.MustWindowPlan(pkgstream.CountAggregator(), pkgstream.WindowSpec{
		Size:        winSize,
		Slide:       winSlide,
		EveryTuples: 5_000,   // aggregation period T (count-based, deterministic)
		Sources:     sources, // watermark = min over per-source marks, exactly
	})

	b := pkgstream.NewTopologyBuilder("trending", 42)
	b.AddSpout("words", func() pkgstream.Spout { return &trendSpout{n: perSource} }, sources)
	b.WindowedAggregate("trend", plan, workers).
		Input("words", pkgstream.GroupSourceAware(pkgstream.GroupPartial()))
	b.AddBolt("sink", func() pkgstream.Bolt {
		return &windowSink{mu: &mu, wins: wins}
	}, 1).Input("trend", pkgstream.GroupGlobal())
	top, err := b.Build()
	if err != nil {
		panic(err)
	}
	rt := pkgstream.NewRuntime(top, pkgstream.RuntimeOptions{QueueSize: 2048})
	start := time.Now()
	if err := rt.Run(); err != nil {
		panic(err)
	}
	elapsed := time.Since(start)

	total := sources * perSource
	fmt.Printf("%d words over %v of stream time, %d sliding windows (%v size, %v slide)\n",
		total, time.Duration(perSource)*tick, len(wins), winSize, winSlide)
	fmt.Printf("processed in %v (%.0f words/s)\n\n",
		elapsed.Round(time.Millisecond), float64(total)/elapsed.Seconds())

	starts := make([]int64, 0, len(wins))
	for s := range wins {
		starts = append(starts, s)
	}
	sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
	fmt.Println("top-3 per window (watch the trending word change):")
	for _, s := range starts {
		counts := wins[s]
		sort.Slice(counts, func(i, j int) bool {
			if counts[i].Count != counts[j].Count {
				return counts[i].Count > counts[j].Count
			}
			return counts[i].Word < counts[j].Word
		})
		top := counts
		if len(top) > 3 {
			top = top[:3]
		}
		fmt.Printf("  [%4.0fs, %4.0fs)", time.Duration(s).Seconds(),
			(time.Duration(s) + winSize).Seconds())
		for _, wc := range top {
			fmt.Printf("  %-8s %6d", wc.Word, wc.Count)
		}
		fmt.Println()
	}

	st := rt.Stats()
	parts := st.WindowTotals("trend.partial")
	final := st.WindowTotals("trend")
	fmt.Printf("\naggregation: %d flush rounds, %d partials flushed, %d merged downstream\n",
		parts.Flushes, parts.PartialsOut, final.Merged)
	fmt.Printf("memory: max %d live (word, window) counters on one worker; %d windows closed, %d late partials dropped\n",
		parts.MaxLive, final.WindowsClosed, final.LateDropped)
	// Source-aware watermarks make the skewed clocks safe without any
	// Lateness, so a dropped partial is a lost count.
	if final.LateDropped != 0 {
		panic(fmt.Sprintf("%d late partials dropped: their counts are missing from the windows above", final.LateDropped))
	}
}
