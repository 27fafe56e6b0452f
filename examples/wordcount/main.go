// Streaming top-k word count — the paper's running example — executed on
// the built-in Storm-like engine under all three groupings, reproducing
// the §II trade-off: KG is skewed, SG is balanced but memory-hungry, PKG
// is balanced at bounded memory and aggregation cost.
//
//	go run ./examples/wordcount
package main

import (
	"fmt"
	"slices"

	"pkgstream"
)

func run(cfg pkgstream.WordCountConfig) (*pkgstream.WordCountOutput, float64) {
	top, out, err := pkgstream.BuildWordCount(cfg)
	if err != nil {
		panic(err)
	}
	rt := pkgstream.NewRuntime(top, pkgstream.RuntimeOptions{QueueSize: 1024})
	if err := rt.Run(); err != nil {
		panic(err)
	}
	loads := rt.Stats().Loads("counter.partial")
	var max, sum int64
	for _, l := range loads {
		if l > max {
			max = l
		}
		sum += l
	}
	return out, float64(max) - float64(sum)/float64(len(loads))
}

func main() {
	base := pkgstream.WordCountConfig{
		Words: 150_000, Vocab: 30_000, P1: 0.0932, // WP-like skew
		Sources: 2, Workers: 9, FlushEvery: 10_000, K: 5, Seed: 42,
	}

	fmt.Println("streaming top-k word count: 300k words, 9 counters, WP-like skew")
	fmt.Printf("%-4s  %12s  %14s  %14s\n", "", "imbalance", "partials/word", "max counters")

	// Every grouping counts the same words, so any difference between
	// their top-k lists means the runtime lost or duplicated tuples.
	var top []pkgstream.WordCount
	for i, cfg := range []pkgstream.WordCountConfig{
		{Grouping: pkgstream.WordCountKG},
		{Grouping: pkgstream.WordCountSG},
		{Grouping: pkgstream.WordCountPKG},
	} {
		grouping := cfg.Grouping
		cfg = base
		cfg.Grouping = grouping
		out, imb := run(cfg)
		fmt.Printf("%-4s  %12.1f  %14.2f  %14d\n",
			string(grouping), imb,
			float64(out.PartialsMerged)/float64(out.TotalWords),
			out.MaxCounterResidency)
		if i == 0 {
			top = out.Top
		} else if !slices.Equal(out.Top, top) {
			panic(fmt.Sprintf("top words under %s %v differ from %v", grouping, out.Top, top))
		}
	}

	fmt.Println("\ntop words (identical under every grouping):")
	for i, wc := range top {
		fmt.Printf("%2d. %-8s %6d\n", i+1, wc.Word, wc.Count)
	}
}
