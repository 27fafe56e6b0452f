package pkgstream

import (
	"pkgstream/internal/graphstream"
	"pkgstream/internal/heavyhitters"
	"pkgstream/internal/naivebayes"
	"pkgstream/internal/spdt"
	"pkgstream/internal/wordcount"
)

// Heavy hitters (§VI.C).
type (
	// SpaceSaving is the Metwally et al. top-k sketch with O(1) updates.
	SpaceSaving = heavyhitters.SpaceSaving
	// HeavyHitters is the distributed top-k tracker: one SpaceSaving
	// summary per worker; PKG queries probe two workers per item.
	HeavyHitters = heavyhitters.Distributed
	// HHStrategy selects the heavy hitters routing strategy.
	HHStrategy = heavyhitters.Strategy
)

// Heavy-hitter routing strategies.
const (
	// HHByPKG tracks each item on at most two workers.
	HHByPKG = heavyhitters.ByPKG
	// HHByKey tracks each item on exactly one worker.
	HHByKey = heavyhitters.ByKey
	// HHByShuffle spreads items over all workers.
	HHByShuffle = heavyhitters.ByShuffle
)

// NewSpaceSaving returns a SpaceSaving summary of capacity k.
func NewSpaceSaving(k int) *SpaceSaving { return heavyhitters.New(k) }

// NewHeavyHitters returns a top-k tracker over w workers of capacity k.
func NewHeavyHitters(w, k int, strategy HHStrategy, seed uint64) *HeavyHitters {
	return heavyhitters.NewDistributed(w, k, strategy, seed)
}

// Word count (the paper's running example, §II.A).
type (
	// WordCount is a word with its count.
	WordCount = wordcount.WordCount
	// WordCountConfig parameterizes a streaming top-k word count topology.
	WordCountConfig = wordcount.Config
	// WordCountOutput collects a topology run's results.
	WordCountOutput = wordcount.Output
)

// Word count grouping choices.
const (
	// WordCountPKG runs the counters under partial key grouping.
	WordCountPKG = wordcount.UsePKG
	// WordCountKG runs the counters under key grouping.
	WordCountKG = wordcount.UseKG
	// WordCountSG runs the counters under shuffle grouping.
	WordCountSG = wordcount.UseSG
)

// BuildWordCount assembles the streaming top-k word count topology.
func BuildWordCount(cfg WordCountConfig) (*Topology, *WordCountOutput, error) {
	return wordcount.Build(cfg)
}

// Naive Bayes (§VI.A).
type (
	// NBModel is the exact sequential naive Bayes baseline.
	NBModel = naivebayes.Model
	// NBDistributed is the vertically parallelized classifier; PKG
	// queries probe two workers per token.
	NBDistributed = naivebayes.Distributed
	// NBStrategy selects the token-routing strategy.
	NBStrategy = naivebayes.Strategy
	// NBGenerator produces synthetic text-like classification data.
	NBGenerator = naivebayes.Generator
)

// Naive Bayes routing strategies.
const (
	// NBByPKG tracks each token on at most two workers.
	NBByPKG = naivebayes.ByPKG
	// NBByKey tracks each token on exactly one worker.
	NBByKey = naivebayes.ByKey
	// NBByShuffle spreads tokens over all workers (broadcast queries).
	NBByShuffle = naivebayes.ByShuffle
)

// NewNBModel returns an empty sequential model.
func NewNBModel(classes int, vocab uint64, alpha float64) *NBModel {
	return naivebayes.NewModel(classes, vocab, alpha)
}

// NewNBDistributed returns a distributed classifier over w workers.
func NewNBDistributed(w, classes int, vocab uint64, alpha float64, strategy NBStrategy, seed uint64) *NBDistributed {
	return naivebayes.NewDistributed(w, classes, vocab, alpha, strategy, seed)
}

// NewNBGenerator returns a deterministic sample generator.
func NewNBGenerator(classes int, vocab uint64, docLen int, p1 float64, seed uint64) *NBGenerator {
	return naivebayes.NewGenerator(classes, vocab, docLen, p1, seed)
}

// Streaming parallel decision tree (§VI.B).
type (
	// SPDTParams configures a streaming decision tree.
	SPDTParams = spdt.Params
	// SPDTTree is the sequential streaming decision tree.
	SPDTTree = spdt.Tree
	// SPDTTrainer is the parallel trainer (workers + aggregator).
	SPDTTrainer = spdt.Trainer
	// SPDTStrategy selects the data-parallelization strategy.
	SPDTStrategy = spdt.Strategy
	// SPDTDataGen produces synthetic Gaussian classification data.
	SPDTDataGen = spdt.DataGen
)

// SPDT parallelization strategies.
const (
	// SPDTShuffle sends whole samples round-robin (W·D·C·L histograms).
	SPDTShuffle = spdt.ShuffleSamples
	// SPDTPKG routes per-feature sub-messages with PKG (2·D·C·L).
	SPDTPKG = spdt.PKGFeatures
	// SPDTKey routes per-feature sub-messages by hash (D·C·L).
	SPDTKey = spdt.KeyFeatures
)

// NewSPDTTree returns a single-leaf sequential tree.
func NewSPDTTree(params SPDTParams) (*SPDTTree, error) { return spdt.New(params) }

// NewSPDTTrainer returns a trainer over w workers syncing every batchSize
// samples.
func NewSPDTTrainer(params SPDTParams, w int, strategy SPDTStrategy, batchSize int, seed uint64) (*SPDTTrainer, error) {
	return spdt.NewTrainer(params, w, strategy, batchSize, seed)
}

// NewSPDTDataGen returns a deterministic Gaussian data generator.
func NewSPDTDataGen(features, classes, informative int, shift float64, seed uint64) *SPDTDataGen {
	return spdt.NewDataGen(features, classes, informative, shift, seed)
}

// Graph streaming (§V Q3).
type (
	// InDegree is the streaming in-degree computation over PKG workers.
	InDegree = graphstream.InDegree
	// InDegreeConfig parameterizes an in-degree run.
	InDegreeConfig = graphstream.Config
)

// Source assignment choices for InDegree.
const (
	// InDegreeUniformSources deals edges to sources round-robin.
	InDegreeUniformSources = graphstream.UniformSources
	// InDegreeKeyedSources key-groups edges onto sources (skewed).
	InDegreeKeyedSources = graphstream.KeyedSources
)

// NewInDegree returns an empty in-degree computation.
func NewInDegree(cfg InDegreeConfig) *InDegree { return graphstream.New(cfg) }
