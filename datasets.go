package pkgstream

import (
	"pkgstream/internal/dataset"
	"pkgstream/internal/simulate"
)

// Dataset surface: the paper's eight Table I workloads as synthetic
// generators matched on (messages, keys, p1), plus the simulation
// harness that reproduces the paper's §V measurements.
type (
	// Dataset describes one workload (Table I row) and opens streams of it.
	Dataset = dataset.Spec
	// Stream produces a dataset's messages in timestamp order.
	Stream = dataset.Stream
	// DatasetStats summarizes an observed stream prefix.
	DatasetStats = dataset.Stats
)

// Table I datasets at full scale; scale down with WithCap. Datasets and
// DatasetBySymbol reach all eight.
var (
	// Wikipedia is the WP page-view log shape (22M msgs, 2.9M keys, p1 9.32%).
	Wikipedia = dataset.WP
	// Twitter is the TW tweet-word shape (1.2G msgs, 31M keys, p1 2.67%).
	Twitter = dataset.TW
	// Cashtags is the CT drifting-popularity shape (690k msgs, 2.9k keys, p1 3.29%).
	Cashtags = dataset.CT
	// Synthetic2 is the LN2 log-normal shape (µ=2.245, σ=1.133).
	Synthetic2 = dataset.LN2
	// LiveJournal is the LJ graph edge stream (69M edges, 4.9M vertices).
	LiveJournal = dataset.LJ
)

// Datasets lists the eight Table I workloads in order.
func Datasets() []Dataset { return append([]Dataset(nil), dataset.All...) }

// DatasetBySymbol resolves a Table I symbol (WP, TW, CT, LN1, LN2, LJ,
// SL1, SL2).
func DatasetBySymbol(symbol string) (Dataset, error) { return dataset.BySymbol(symbol) }

// MeasureStream consumes up to maxMessages of a stream (all if ≤ 0) and
// returns empirical statistics (regenerates Table I).
func MeasureStream(s Stream, maxMessages int64) DatasetStats {
	return dataset.Measure(s, maxMessages)
}

// Simulation surface (the §V methodology).
type (
	// SimOptions configures a load-balancing simulation run.
	SimOptions = simulate.Options
	// SimResult reports a simulation's measurements.
	SimResult = simulate.Result
)

// PKG with per-source local load estimation — the paper's L model.
const (
	// SimPKG is partial key grouping.
	SimPKG = simulate.PKG
	// InfoLocal gives each source only its own estimate (L).
	InfoLocal = simulate.Local
)

// Simulate routes a dataset's stream under the given options and returns
// the paper's measurements (imbalance averages, series, memory).
func Simulate(spec Dataset, opts SimOptions) SimResult { return simulate.Run(spec, opts) }
