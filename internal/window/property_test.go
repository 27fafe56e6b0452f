package window

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"pkgstream/internal/engine"
)

// propEvent is one step of a generated stream: a tuple for one partial
// instance, or a source's watermark promise (which every instance hears).
type propEvent struct {
	src  int
	mark bool
	wm   int64
	t    engine.Tuple
	inst int
}

// propCase is one randomly drawn plan and stream.
type propCase struct {
	spec     Spec
	agg      Aggregator
	partials int
	finals   int
	sources  int
	events   []propEvent
	// want is the brute-force oracle: every (key, window) pair and its
	// count, as if nothing were flushed before the stream's end.
	want map[resKey]int64
}

type resKey struct {
	key   string
	hash  uint64
	start int64
}

func drawCase(r *rand.Rand) propCase {
	sizes := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 50 * time.Millisecond}
	c := propCase{partials: 1 + r.Intn(4), finals: 1 + r.Intn(2), sources: 1 + r.Intn(3)}
	c.spec = Spec{
		Size:            sizes[r.Intn(len(sizes))],
		EveryTuples:     []int{0, 1, 3, 7, 50}[r.Intn(5)],
		MaxLivePartials: []int{0, 0, 4, 16}[r.Intn(4)],
		Sources:         c.sources,
	}
	switch r.Intn(4) {
	case 0:
		c.spec.Slide = c.spec.Size / 2 // overlapping
	case 1:
		c.spec.Slide = c.spec.Size * 2 // gaps no window covers
	}
	switch r.Intn(3) {
	case 0:
		c.agg = Count{}
	case 1:
		c.agg = genericCount{} // the general (boxed-state) path
	case 2:
		c.agg = Count{}
		c.spec.PerInstance = true
	}
	c.spec.FinalParallelism = c.finals
	if c.spec.PerInstance {
		c.finals = 1
	}
	norm, err := c.spec.normalized()
	if err != nil {
		panic(err)
	}
	intKeys := r.Intn(2) == 0
	nKeys := 1 + r.Intn(12)

	// Each source has its own clock, up to 5 s apart, and keeps its
	// promise: after a mark at wm it never emits below wm.
	type source struct {
		now  int64
		left int
	}
	srcs := make([]source, c.sources)
	for i := range srcs {
		srcs[i] = source{now: int64(time.Second) + r.Int63n(int64(5*time.Second)), left: 40 + r.Intn(160)}
	}
	c.want = map[resKey]int64{}
	for remaining := c.sources; remaining > 0; {
		s := r.Intn(c.sources)
		src := &srcs[s]
		if src.left == 0 {
			continue
		}
		if r.Intn(5) == 0 {
			c.events = append(c.events, propEvent{src: s, mark: true, wm: src.now})
			continue
		}
		src.now += r.Int63n(int64(4 * time.Millisecond))
		t := engine.Tuple{EmitNanos: src.now}
		k := r.Intn(nKeys)
		if intKeys {
			t.KeyHash = uint64(k)*0x9e3779b97f4a7c15 + 1
		} else {
			t.Key = fmt.Sprintf("k%d", k)
		}
		c.events = append(c.events, propEvent{src: s, t: t, inst: r.Intn(c.partials)})
		rk := resKey{key: t.Key, hash: t.RouteKey()}
		if c.spec.PerInstance {
			rk = resKey{}
		}
		for _, start := range norm.assign(src.now, nil) {
			rk.start = start
			c.want[rk]++
		}
		if src.left--; src.left == 0 {
			remaining--
			// The source's last word: everything it will ever send is out.
			c.events = append(c.events, propEvent{src: s, mark: true, wm: src.now + 1})
		}
	}
	return c
}

// propRun is what one pass of a case through real bolts produced.
type propRun struct {
	results  []Result
	partials int64
	late     int64
}

// wiring connects partial instances to final instances the way the
// runtime's edges do — marks to every final, partials by key — but
// synchronously, so "what is out after this step" is well defined.
type wiring struct {
	finals []*FinalBolt
	out    *resultLog
	sent   *int64
}

func (w wiring) Emit(t engine.Tuple) {
	if t.Tick {
		for _, f := range w.finals {
			f.Execute(t, w.out)
		}
		return
	}
	*w.sent++
	w.finals[t.RouteKey()%uint64(len(w.finals))].Execute(t, w.out)
}

type resultLog struct{ res []Result }

func (l *resultLog) Emit(t engine.Tuple) { l.res = append(l.res, t.Values[0].(Result)) }

// run drives the case through real PartialBolts and FinalBolts. With
// holdMarks the sources' promises arrive only after all data — the
// schedule on which nothing but the aggregation period and the cap can
// flush, and nothing closes before the end. afterMark, when set, is
// called after every delivered mark with the watermark all instances
// now share and the results so far.
func (c propCase) run(t *testing.T, holdMarks bool, afterMark func(wm int64, res []Result)) propRun {
	t.Helper()
	plan := MustPlan(c.agg, c.spec)
	log := &resultLog{}
	var sent int64
	w := wiring{out: log, sent: &sent}
	for i := 0; i < c.finals; i++ {
		f := plan.NewFinal().(*FinalBolt)
		f.Prepare(&engine.Context{Component: "f", Index: i, Parallelism: c.finals})
		w.finals = append(w.finals, f)
	}
	parts := make([]*PartialBolt, c.partials)
	for i := range parts {
		parts[i] = plan.NewPartial().(*PartialBolt)
		parts[i].Prepare(&engine.Context{Component: "p", Index: i, Parallelism: c.partials})
	}
	srcWM := make([]int64, c.sources)
	for i := range srcWM {
		srcWM[i] = math.MinInt64
	}
	deliver := func(ev propEvent) {
		for _, p := range parts {
			p.Execute(SourceMark(ev.src, ev.wm), w)
		}
		srcWM[ev.src] = max(srcWM[ev.src], ev.wm)
		if afterMark != nil {
			wm := int64(math.MaxInt64)
			for _, v := range srcWM {
				wm = min(wm, v)
			}
			afterMark(wm, log.res)
		}
	}
	var held []propEvent
	for _, ev := range c.events {
		switch {
		case !ev.mark:
			parts[ev.inst].Execute(ev.t, w)
		case holdMarks:
			held = append(held, ev)
		default:
			deliver(ev)
		}
	}
	for _, ev := range held {
		deliver(ev)
	}
	for _, p := range parts {
		p.Cleanup(w)
	}
	for _, f := range w.finals {
		f.Cleanup(log)
	}
	return propRun{results: log.res, partials: sent, late: plan.FinalStats().LateDropped}
}

// check compares one run's results with the oracle, pair by pair.
func (c propCase) check(t *testing.T, label string, got propRun) {
	t.Helper()
	seen := map[resKey]bool{}
	for _, r := range got.results {
		rk := resKey{key: r.Key, hash: r.KeyHash, start: r.Start}
		if seen[rk] {
			t.Errorf("%s: (%q, %#x, %d) emitted twice", label, r.Key, r.KeyHash, r.Start)
		}
		seen[rk] = true
		if want := c.want[rk]; r.Value != want {
			t.Errorf("%s: (%q, %#x, %d) = %v, want %d", label, r.Key, r.KeyHash, r.Start, r.Value, want)
		}
	}
	if len(seen) != len(c.want) {
		t.Errorf("%s: %d results, want %d", label, len(seen), len(c.want))
	}
	if got.late != 0 {
		t.Errorf("%s: %d partials dropped as late", label, got.late)
	}
}

// TestWatermarkFlushEquivalenceAndFreshness is the contract of the
// watermark-driven flush, over random plans and streams (window shape,
// aggregation period, live-state cap, 1–3 sources with skewed clocks,
// string or integer keys, Combiner / general / per-instance state):
//
//   - equivalence: per-(key, window) results equal a flush-only-at-end
//     oracle, nothing is dropped as late, and — where only the period
//     flushes, no cap — exactly as many partials travel as on the
//     count-only schedule;
//   - freshness: the moment the watermark every instance shares passes a
//     window's end, that window's results are out — not at some
//     instance's next count flush.
func TestWatermarkFlushEquivalenceAndFreshness(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		c := drawCase(rand.New(rand.NewSource(seed)))
		label := fmt.Sprintf("seed %d (%+v, %T, %d partials, %d finals)", seed, c.spec, c.agg, c.partials, c.finals)
		norm, _ := c.spec.normalized()

		// Oracle pairs by window end, for the freshness check.
		ends := make([]int64, 0, len(c.want))
		for rk := range c.want {
			ends = append(ends, norm.end(rk.start))
		}
		sort.Slice(ends, func(i, j int) bool { return ends[i] < ends[j] })
		stale := 0
		live := c.run(t, false, func(wm int64, res []Result) {
			due := sort.Search(len(ends), func(i int) bool { return ends[i] > wm })
			out := 0
			for _, r := range res {
				if r.End <= wm {
					out++
				}
			}
			if out != due && stale == 0 {
				stale++
				t.Errorf("%s: watermark %d has passed %d (key, window) pairs, only %d are out",
					label, wm, due, out)
			}
		})
		c.check(t, label, live)

		counted := c.run(t, true, nil)
		c.check(t, label+" marks held back", counted)
		if c.spec.MaxLivePartials == 0 && live.partials > counted.partials {
			t.Errorf("%s: %d partials sent, the count-only schedule sends %d",
				label, live.partials, counted.partials)
		}
		if t.Failed() {
			return
		}
	}
}
