package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"time"
	"unsafe"

	"pkgstream/internal/engine"
	"pkgstream/internal/hotkey"
	"pkgstream/internal/rng"
	"pkgstream/internal/route"
)

// Fixed shape shared by every workload. Event time is the tuple's due
// time at rate, so a window always holds the same tuples whether a
// leg runs closed (as fast as backpressure allows) or open (paced).
const (
	windowSize = 50 * time.Millisecond
	tickNs     = int64(time.Millisecond) // arrival schedule granularity, one SourceMark per tick
	ticksPerWn = int(windowSize / time.Millisecond)
	// eventBase is the event time of tuple 0: nonzero (EmitNanos 0 means
	// "unset"), on the window grid, and far below the engine's
	// wall-clock floor so no staleness observations are taken.
	eventBase = int64(time.Second)
	// topoSeed derives every edge's hash functions. It is deployment
	// configuration, not input: -seed selects the stream only.
	topoSeed = 1
	// finalNodes is the final-stage parallelism of every workload.
	finalNodes = 2
	keyWidth   = 8 // "w" + 7 digits
)

// workload is one benchmark input set plus the deployment it drives.
type workload struct {
	name string
	why  string
	// dist selects the distributed shape (spout → edge.Wire → partial
	// nodes → final nodes over loopback TCP); otherwise everything runs
	// inside one engine.Runtime.
	dist bool
	// vocab keys drawn Zipf with exponent zipfS, or — when p1 > 0 — with
	// the exponent that gives the most frequent key that probability.
	vocab int
	zipfS float64
	p1    float64
	// everyTuples is the aggregation period T of the partial stage.
	everyTuples int
	// partials is the partial-stage width: engine instances in-process,
	// nodes when distributed.
	partials int
	// strategy routes spout → partial (PKG d=2 or D-Choices).
	strategy route.Strategy
	// rate is the open-leg arrival rate in words/s, a multiple of 1000
	// (whole tuples per tick), and capacity what the seed sustains
	// closed-loop on the reference box, both rounded to two digits.
	// They are constants on purpose — calibrating at run time would
	// hide a regression behind a slower schedule. rate also fixes the
	// stream's event times, so it sets how many tuples a window holds.
	rate, capacity int
}

var workloads = []workload{
	{
		name: "wc-dist-zipf",
		why:  "ROADMAP headline: Zipf words (p1 9.32%) over TCP to 2 partial and 2 final nodes; the tuple hop (edge.Wire, wire, transport) does most of the work",
		dist: true, vocab: 100_000, p1: 0.0932, everyTuples: 2000, partials: 2,
		strategy: route.StrategyPKG, rate: 400_000, capacity: 1_300_000,
	},
	{
		name:  "wc-local-zipf",
		why:   "same stream inside one engine.Runtime (4 partials, 2 finals): bypasses edge.Wire, wire and transport, so a wire-path change predicts no change here",
		vocab: 100_000, p1: 0.0932, everyTuples: 2000, partials: 4,
		strategy: route.StrategyPKG, rate: 650_000, capacity: 2_100_000,
	},
	{
		name: "wc-dist-flushheavy",
		why:  "2M near-uniform keys, T=500: about one partial per word, so the partial-to-final hop and window close carry as much as the tuple hop; state maps are cache-cold",
		dist: true, vocab: 2_000_000, zipfS: 0.5, everyTuples: 500, partials: 2,
		strategy: route.StrategyPKG, rate: 85_000, capacity: 600_000,
	},
	{
		name:  "wc-local-hotkey",
		why:   "10k keys at Zipf z=1.4 (p1 about 0.33) over 16 partials under D-Choices: PKG-2 cannot balance this, and the sketch and classifier sit on the per-tuple path",
		vocab: 10_000, zipfS: 1.4, everyTuples: 2000, partials: 16,
		strategy: route.StrategyDChoices, rate: 400_000, capacity: 2_000_000,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// grouping is the spout → partial grouping of the in-process shape.
func (w workload) grouping() engine.GroupingFactory {
	if w.strategy == route.StrategyDChoices {
		return engine.DChoices(hotkey.Config{})
	}
	return engine.Partial()
}

// scale sizes one run from its -seconds budget: the open leg gets
// four tenths of it, and the closed leg's warm-up and five measured
// repetitions a tenth each (at the seed's closed-loop capacity).
type scale struct {
	openWords   int // words of the open leg
	closedWords int // words per closed repetition
	closedReps  int // measured closed repetitions, after one warm-up
	replayWords int // words each per-layer replay times
}

// streamWords is how many tuples a run generates.
func (sc scale) streamWords() int { return max(sc.openWords, sc.closedWords) }

func (w workload) scaleFor(seconds float64) scale {
	perWindow := w.rate / 1000 * ticksPerWn
	windows := func(words float64) int { return max(1, int(words)/perWindow) * perWindow }
	sc := scale{
		openWords:   windows(0.4 * seconds * float64(w.rate)),
		closedWords: windows(0.1 * seconds * float64(w.capacity)),
		closedReps:  5,
		replayWords: 1_000_000,
	}
	sc.replayWords = min(sc.replayWords, sc.streamWords())
	return sc
}

// stream is the pre-generated input of one run: everything the spout
// reads and everything the oracle is computed from.
type stream struct {
	wl      workload
	seed    uint64
	perTick int      // tuples per 1 ms tick at rate
	stepNs  int64    // event-time spacing inside a tick
	vocab   []string // pre-formatted words, sharing one backing buffer
	keys    []uint32 // vocabulary index of tuple i
	sha     string   // input_sha: hash of all of the above
}

func generate(wl workload, seed uint64, n int) *stream {
	st := &stream{wl: wl, seed: seed, perTick: wl.rate / 1000}
	st.stepNs = tickNs / int64(st.perTick)

	// One allocation for the whole vocabulary: the words are substrings
	// of it, so a 2M-word vocabulary costs 16 MB, not 2M objects.
	buf := make([]byte, wl.vocab*keyWidth)
	for i := 0; i < wl.vocab; i++ {
		word := buf[i*keyWidth : (i+1)*keyWidth]
		word[0] = 'w'
		for d, n := keyWidth-1, i; d > 0; d, n = d-1, n/10 {
			word[d] = byte('0' + n%10)
		}
	}
	all := unsafe.String(unsafe.SliceData(buf), len(buf))
	st.vocab = make([]string, wl.vocab)
	for i := range st.vocab {
		st.vocab[i] = all[i*keyWidth : (i+1)*keyWidth]
	}

	s := wl.zipfS
	if wl.p1 > 0 {
		s = rng.SolveZipfExponent(uint64(wl.vocab), wl.p1)
	}
	z := rng.NewZipf(rng.New(seed), s, uint64(wl.vocab))
	st.keys = make([]uint32, n)
	for i := range st.keys {
		st.keys[i] = uint32(z.Next() - 1)
	}

	h := sha256.New()
	fmt.Fprintf(h, "%s seed=%d n=%d rate=%d window=%d base=%d\n",
		wl.name, seed, n, wl.rate, windowSize, eventBase)
	h.Write(buf)
	h.Write(unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(st.keys))), 4*len(st.keys)))
	var last [8]byte
	binary.LittleEndian.PutUint64(last[:], uint64(st.eventTime(n-1)))
	h.Write(last[:])
	st.sha = hex.EncodeToString(h.Sum(nil))[:16]
	return st
}

// eventTime is tuple i's due time at rate — its event time in every
// leg, and (offset by the leg's start) its wall-clock due time in the
// open leg.
func (st *stream) eventTime(i int) int64 {
	return eventBase + int64(i/st.perTick)*tickNs + int64(i%st.perTick)*st.stepNs
}

// perWindow is the number of tuples in every full window.
func (st *stream) perWindow() int { return st.perTick * ticksPerWn }

// keyIndex recovers the vocabulary index from a word.
func keyIndex(word string) (int, bool) {
	if len(word) != keyWidth || word[0] != 'w' {
		return 0, false
	}
	n := 0
	for _, c := range []byte(word[1:]) {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	return n, true
}
