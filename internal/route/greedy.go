package route

import (
	"sort"

	"pkgstream/internal/metrics"
)

// PoTC is the power of two choices applied to key grouping *without* key
// splitting ("static PoTC", §III.A): the first time a key is seen it is
// assigned to the less-loaded of its two candidates, and that choice is
// remembered in a routing table forever after. It preserves key-grouping
// atomicity but needs per-key state and, in a real distributed setting,
// coordination among sources — the costs the paper's key splitting
// removes. The paper evaluates it with global load information; give it
// the true load vector as its view.
type PoTC struct {
	w     int
	seeds []uint64
	view  *metrics.Load
	table map[uint64]int32
	cands []int
}

// NewPoTC returns a static-PoTC partitioner over w workers. It panics on
// invalid arguments (see NewPKG).
func NewPoTC(w int, seed uint64, view *metrics.Load) *PoTC {
	if w <= 0 {
		panic("route: NewPoTC with w <= 0")
	}
	if view == nil || view.N() != w {
		panic("route: NewPoTC with nil or mismatched view")
	}
	return &PoTC{
		w:     w,
		seeds: choiceSeeds(seed, 2),
		view:  view,
		table: make(map[uint64]int32),
		cands: make([]int, 2),
	}
}

// Route implements Router.
func (g *PoTC) Route(key uint64) int {
	if w, ok := g.table[key]; ok {
		return int(w)
	}
	candidates(g.cands, key, g.seeds, g.w)
	best := leastLoaded(g.view, g.cands)
	g.table[key] = int32(best)
	return best
}

// TableSize returns the number of routing-table entries — the per-key
// state the paper argues is impractical at billions of keys.
func (g *PoTC) TableSize() int { return len(g.table) }

// Workers implements Router.
func (g *PoTC) Workers() int { return g.w }

// Name implements Router.
func (g *PoTC) Name() string { return "PoTC" }

// OnGreedy is the online greedy baseline: a never-seen key is assigned to
// the least-loaded worker overall (all W workers are candidates) and the
// assignment is remembered. It is the d → ∞ limit of static PoTC and
// needs both a full routing table and global load knowledge.
type OnGreedy struct {
	w     int
	view  *metrics.Load
	table map[uint64]int32
}

// NewOnGreedy returns an online-greedy partitioner over w workers.
func NewOnGreedy(w int, view *metrics.Load) *OnGreedy {
	if w <= 0 {
		panic("route: NewOnGreedy with w <= 0")
	}
	if view == nil || view.N() != w {
		panic("route: NewOnGreedy with nil or mismatched view")
	}
	return &OnGreedy{w: w, view: view, table: make(map[uint64]int32)}
}

// Route implements Router.
func (g *OnGreedy) Route(key uint64) int {
	if w, ok := g.table[key]; ok {
		return int(w)
	}
	best := g.view.ArgMin()
	g.table[key] = int32(best)
	return best
}

// TableSize returns the number of routing-table entries.
func (g *OnGreedy) TableSize() int { return len(g.table) }

// Workers implements Router.
func (g *OnGreedy) Workers() int { return g.w }

// Name implements Router.
func (g *OnGreedy) Name() string { return "On-Greedy" }

// KeyFreq is a key with its total frequency in the stream, the input to
// the offline greedy baseline.
type KeyFreq struct {
	Key   uint64
	Count int64
}

// OffGreedy is the offline greedy baseline (LPT scheduling): given the
// *whole* key-frequency distribution up front, keys are sorted by
// decreasing frequency and each is assigned to the worker with the
// smallest total assigned frequency. It is clairvoyant — "an unfair
// comparison for online algorithms" — yet the paper shows PKG beats it,
// because no severed-key assignment can compensate for a single key
// whose frequency exceeds the ideal per-worker share, while key
// splitting spreads that key over two workers.
type OffGreedy struct {
	w        int
	table    map[uint64]int32
	fallback *KeyGrouping
}

// NewOffGreedy builds the LPT assignment for the given frequency
// distribution over w workers. Keys not present in freqs fall back to
// hashing (they should not occur when the distribution is complete).
func NewOffGreedy(w int, seed uint64, freqs []KeyFreq) *OffGreedy {
	if w <= 0 {
		panic("route: NewOffGreedy with w <= 0")
	}
	sorted := make([]KeyFreq, len(freqs))
	copy(sorted, freqs)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Count != sorted[j].Count {
			return sorted[i].Count > sorted[j].Count
		}
		return sorted[i].Key < sorted[j].Key
	})
	assigned := metrics.NewLoad(w)
	table := make(map[uint64]int32, len(sorted))
	for _, kf := range sorted {
		best := assigned.ArgMin()
		table[kf.Key] = int32(best)
		assigned.AddN(best, kf.Count)
	}
	return &OffGreedy{w: w, table: table, fallback: NewKeyGrouping(w, seed)}
}

// Route implements Router.
func (g *OffGreedy) Route(key uint64) int {
	if w, ok := g.table[key]; ok {
		return int(w)
	}
	return g.fallback.Route(key)
}

// Workers implements Router.
func (g *OffGreedy) Workers() int { return g.w }

// Name implements Router.
func (g *OffGreedy) Name() string { return "Off-Greedy" }

// Assignment returns the worker assigned to key and whether the key was
// part of the offline distribution.
func (g *OffGreedy) Assignment(key uint64) (int, bool) {
	w, ok := g.table[key]
	return int(w), ok
}

var (
	_ Router = (*KeyGrouping)(nil)
	_ Router = (*ShuffleGrouping)(nil)
	_ Router = (*PKG)(nil)
	_ Router = (*PoTC)(nil)
	_ Router = (*OnGreedy)(nil)
	_ Router = (*OffGreedy)(nil)
)
