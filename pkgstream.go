// Package pkgstream is a from-scratch Go reproduction of "The Power of
// Both Choices: Practical Load Balancing for Distributed Stream
// Processing Engines" (Nasir, De Francisci Morales, García-Soriano,
// Kourtellis, Serafini; ICDE 2015, arXiv:1504.00788).
//
// Its subject is PARTIAL KEY GROUPING (PKG): the power of two choices
// with key splitting and local load estimation. This package is the
// surface the commands and examples use: the PKG and key-grouping
// partitioners; a Storm-like engine whose GroupPartial grouping is PKG,
// with windowed two-phase aggregation and remote stages over TCP; the
// Table I datasets and the §V simulation; and the paper's applications
// (word count, heavy hitters, naive Bayes, the streaming decision tree,
// in-degree). The PoTC, On-Greedy and Off-Greedy baselines, D-Choices
// and W-Choices, the cluster simulation and the experiments live in
// internal/; cmd/pkgbench prints the paper's tables and figures.
//
// Quick start — balance a skewed stream over 10 workers:
//
//	view := pkgstream.NewLoad(10)          // local load estimate
//	p := pkgstream.NewPKG(10, 2, seed, view)
//	w := p.Route(key)                      // least-loaded of 2 candidates
//	view.Add(w)                            // charge the local estimate
//
// Each source keeps its own view (local load estimation): the paper
// proves balancing every source's own portion balances the total.
package pkgstream

import (
	"pkgstream/internal/metrics"
	"pkgstream/internal/route"
)

type (
	// PKG is partial key grouping: the power of d choices (default 2)
	// with key splitting, deciding by a load view. See route.PKG.
	PKG = route.PKG
	// KeyGrouping is single-choice hash partitioning (the KG baseline).
	KeyGrouping = route.KeyGrouping
	// Load is a per-worker load vector: the true loads of a stream edge,
	// or a source's local estimate of them.
	Load = metrics.Load
)

// NewLoad returns a zeroed load vector over n workers.
func NewLoad(n int) *Load { return metrics.NewLoad(n) }

// NewPKG returns a PKG partitioner over `workers` workers with `choices`
// hash choices (the paper uses 2), deciding by `view`. Give every
// source its own view updated with its own routed messages (local load
// estimation), or share the true loads for a global oracle.
func NewPKG(workers, choices int, seed uint64, view *Load) *PKG {
	return route.NewPKG(workers, choices, seed, view)
}

// NewKeyGrouping returns hash partitioning over `workers` workers.
func NewKeyGrouping(workers int, seed uint64) *KeyGrouping {
	return route.NewKeyGrouping(workers, seed)
}
