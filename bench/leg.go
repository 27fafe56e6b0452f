package main

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"pkgstream/internal/engine"
	"pkgstream/internal/metrics"
	"pkgstream/internal/obs"
	"pkgstream/internal/trace"
	"pkgstream/internal/transport"
	"pkgstream/internal/window"
	"pkgstream/internal/wire"
)

// legDeadline bounds one repetition: past it the flight recorder is
// dumped, the deployment is torn down and the leg's words count as
// failed — a run may lose a leg, never hang.
const legDeadline = 30 * time.Second

// blockedEmit is the Emit duration above which a sampled call counts as
// blocked on a full queue or an exhausted credit window.
const blockedEmit = 10 * time.Microsecond

// emitSampleStride times one Emit call in this many (prime, so it does
// not beat against the engine's 64-tuple batches).
const emitSampleStride = 61

// legOptions selects how one leg drives the deployment.
type legOptions struct {
	words int
	// paced runs open-loop: each tick's tuples leave at the tick's due
	// time (never earlier, never thinned when late). wallScale
	// stretches the schedule — 1 is rate, 0.5 twice that.
	paced     bool
	wallScale float64
	// engineTrace is engine.Options.TraceSample (the program's own
	// sampling, used to price tracing); benchTrace makes the spout
	// assign a trace ID to one in that many words itself, so the bench
	// can add its own spans under the same IDs.
	engineTrace int
	benchTrace  int
	// sampleEmit times one Emit call in emitSampleStride.
	sampleEmit bool
}

// resEntry is one delivered (word, window) result.
type resEntry struct {
	win uint32
	key uint32
	val int64
}

// frameRec is one result frame as the collector saw it: the arrival
// time and the entries it carried.
type frameRec struct {
	at      int64 // UnixNano
	first   int   // index of its first entry
	entries int
}

// collected is everything one final node delivered during a leg.
type collected struct {
	entries []resEntry
	frames  []frameRec
	bad     int64 // results that name no known word
	err     error
}

// legResult is what one leg measured.
type legResult struct {
	words    int
	start    int64 // UnixNano of the first emit
	wall     time.Duration
	cpuNs    int64
	sysNs    int64
	timedOut bool
	err      error
	failed   int64
	pairs    int

	loads   []int64     // tuples absorbed per partial worker
	lat     []latSample // open leg only, in window order
	lagsMs  []float64   // how late each tick of an open leg started
	blocked int64       // estimated ns inside blocked Emit calls
	finals  []collected
	traced  []tracedWord

	partial, final engine.WindowStats
	edge           engine.EdgeStats
	toPartial      metrics.HistSnapshot
	mem0, mem1     runtime.MemStats

	// edgeSeed is the hash seed the engine derived for the spout →
	// partial edge (in-process shape), for replaying the router alone.
	edgeSeed uint64
}

// latSample is the result freshness of one (final node, window).
type latSample struct {
	win uint32
	ms  float64
}

// tracedWord is one word the spout gave a trace ID.
type tracedWord struct {
	id    uint64
	index int
}

// spout replays the pre-generated stream: an array lookup per tuple.
type spout struct {
	st   *stream
	opt  legOptions
	stop *atomic.Bool
	// drained, when set, reports whether the partial nodes have absorbed
	// the given number of words; the spout holds its end of stream until
	// they have. The seed's edge.Wire closes its connections without
	// waiting for outstanding acks, and an ack that lands on the closed
	// socket makes the kernel reset the connection, which can discard
	// the frames the node had not read yet — the stream's tail and its
	// final mark, so the run never completes (seen once in ~45 legs at
	// test scale). Ending the stream only after the nodes caught up
	// keeps that teardown race out of a throughput benchmark; the leg
	// deadline still reports it if it ever fires.
	drained func(words int) bool

	i       int
	start   int64
	lagsMs  []float64
	blocked int64
	traced  []tracedWord
}

func (s *spout) Open(*engine.Context) {}
func (s *spout) Close()               {}

// Next emits one tick: its tuples, each stamped with its own due time,
// then the source's watermark promise.
func (s *spout) Next(out engine.Emitter) bool {
	if s.i == 0 {
		s.start = time.Now().UnixNano()
	}
	if s.i >= s.opt.words || s.stop.Load() {
		return false
	}
	st := s.st
	tick := s.i / st.perTick
	if s.opt.paced {
		due := s.start + int64(float64(int64(tick)*tickNs)*s.opt.wallScale)
		if d := due - time.Now().UnixNano(); d > 0 {
			time.Sleep(time.Duration(d))
		}
		s.lagsMs = append(s.lagsMs, float64(time.Now().UnixNano()-due)/1e6)
	}
	end := s.i + st.perTick
	if end > s.opt.words {
		end = s.opt.words
	}
	ev := eventBase + int64(tick)*tickNs
	if s.opt.sampleEmit || s.opt.benchTrace > 0 {
		s.emitInstrumented(out, end, ev)
	} else {
		for ; s.i < end; s.i++ {
			out.Emit(engine.Tuple{Key: st.vocab[st.keys[s.i]], EmitNanos: ev})
			ev += st.stepNs
		}
	}
	out.Emit(window.SourceMark(0, eventBase+int64(tick+1)*tickNs))
	if s.i < s.opt.words {
		return true
	}
	for s.drained != nil && !s.drained(s.i) && !s.stop.Load() {
		time.Sleep(100 * time.Microsecond)
	}
	return false
}

// emitInstrumented is the tick loop of the traced run: it times a
// sample of the Emit calls and, for words the bench traces itself,
// records the spout's own span under the word's trace ID.
func (s *spout) emitInstrumented(out engine.Emitter, end int, ev int64) {
	st := s.st
	for ; s.i < end; s.i++ {
		t := engine.Tuple{Key: st.vocab[st.keys[s.i]], EmitNanos: ev}
		ev += st.stepNs
		switch {
		case s.opt.benchTrace > 0 && s.i%s.opt.benchTrace == s.opt.benchTrace-1:
			t.TraceID = trace.NewID()
			s.traced = append(s.traced, tracedWord{id: t.TraceID, index: s.i})
			t0 := trace.Now()
			out.Emit(t)
			trace.Add(t.TraceID, trace.HopEmit, t0, trace.Now()-t0, int64(s.i), 0, "bench.spout")
		case s.opt.sampleEmit && s.i%emitSampleStride == 0:
			t0 := time.Now()
			out.Emit(t)
			if d := time.Since(t0); d > blockedEmit {
				s.blocked += int64(d) * emitSampleStride
			}
		default:
			out.Emit(t)
		}
	}
}

// sink is the in-process collector: the bolt the final stage's results
// land on. One instance, so no locking.
type sink struct {
	col    *collected
	nvocab int
}

func (k *sink) Prepare(*engine.Context) {}
func (k *sink) Cleanup(engine.Emitter)  {}

func (k *sink) Execute(t engine.Tuple, _ engine.Emitter) {
	if t.Tick {
		return
	}
	at := time.Now().UnixNano()
	res, ok := t.Values[0].(window.Result)
	if !ok {
		k.col.bad++
		return
	}
	val, _ := res.Value.(int64)
	e, ok := entryOf(res.Key, res.Start, val, k.nvocab)
	if !ok {
		k.col.bad++
		return
	}
	k.col.frames = append(k.col.frames, frameRec{at: at, first: len(k.col.entries), entries: 1})
	k.col.entries = append(k.col.entries, e)
	if t.TraceID != 0 {
		trace.Add(t.TraceID, trace.HopResult, at, trace.Now()-at, res.Start, 0, "bench.collect")
	}
}

func entryOf(key string, start, val int64, nvocab int) (resEntry, bool) {
	idx, ok := keyIndex(key)
	if !ok || idx >= nvocab || start < eventBase {
		return resEntry{}, false
	}
	return resEntry{win: uint32((start - eventBase) / int64(windowSize)), key: uint32(idx), val: val}, true
}

// subscribe is the bench-owned push subscriber of one final node: it
// registers before the stream starts and timestamps every result frame
// as it arrives, until the node's Done frame.
func subscribe(addr string, nvocab int, col *collected, wg *sync.WaitGroup) (net.Conn, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("subscribe dial %s: %w", addr, err)
	}
	if _, err := conn.Write(wire.AppendSubscribe(nil, wire.Subscribe{})); err != nil {
		conn.Close()
		return nil, fmt.Errorf("subscribe %s: %w", addr, err)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		r := bufio.NewReaderSize(conn, 1<<17)
		var payload []byte
		for {
			kind, p, err := wire.ReadFrame(r, payload)
			at := time.Now().UnixNano()
			if err != nil {
				col.err = fmt.Errorf("subscriber %s after %d results: %w", addr, len(col.entries), err)
				return
			}
			payload = p
			if kind != wire.KindReply {
				col.err = fmt.Errorf("subscriber %s: unexpected %v frame", addr, kind)
				return
			}
			rep, err := wire.DecodeReply(p)
			if err != nil {
				col.err = fmt.Errorf("subscriber %s: %w", addr, err)
				return
			}
			first := len(col.entries)
			for i := range rep.Results {
				res := &rep.Results[i]
				if e, ok := entryOf(res.Key, res.Start, res.Value, nvocab); ok {
					col.entries = append(col.entries, e)
				} else {
					col.bad++
				}
			}
			col.frames = append(col.frames, frameRec{at: at, first: first, entries: len(col.entries) - first})
			if rep.Done {
				return
			}
		}
	}()
	return conn, nil
}

func spec(wl workload) window.Spec {
	return window.Spec{Size: windowSize, EveryTuples: wl.everyTuples, Sources: 1, FinalParallelism: finalNodes}
}

// runLeg deploys the workload afresh — listeners, plans, connections —
// drives one leg through it, tears everything down and checks the
// delivered counts against the oracle. Repetitions share nothing but
// the process.
func runLeg(st *stream, opt legOptions) legResult {
	wl := st.wl
	res := legResult{words: opt.words, finals: make([]collected, finalNodes)}
	if !wl.dist {
		res.finals = res.finals[:1]
	}
	fail := func(err error) legResult {
		res.err, res.failed = err, int64(opt.words)
		return res
	}

	var workers []*transport.Worker
	var conns []net.Conn
	var subs sync.WaitGroup
	var once sync.Once
	teardown := func() {
		once.Do(func() {
			for _, c := range conns {
				c.Close()
			}
			for _, w := range workers {
				w.Close()
			}
		})
	}
	defer func() {
		if !res.timedOut {
			teardown()
		}
	}()

	stop := &atomic.Bool{}
	sp := &spout{st: st, opt: opt, stop: stop}
	b := engine.NewBuilder(wl.name, topoSeed)
	b.AddSpout("words", func() engine.Spout { return sp }, 1)

	var paddrs []string
	var partials []*window.PartialHandler
	var finals []*window.FinalHandler
	if wl.dist {
		listen := func(h transport.Handler) (string, error) {
			w, err := transport.ListenHandler("127.0.0.1:0", h)
			if err != nil {
				return "", err
			}
			workers = append(workers, w)
			return w.Addr(), nil
		}
		faddrs := make([]string, finalNodes)
		for i := range faddrs {
			h, err := window.MustPlan(window.Count{}, spec(wl)).NewFinalHandler(wl.partials)
			if err != nil {
				return fail(err)
			}
			if faddrs[i], err = listen(h); err != nil {
				return fail(err)
			}
			finals = append(finals, h)
			conn, err := subscribe(faddrs[i], wl.vocab, &res.finals[i], &subs)
			if err != nil {
				return fail(err)
			}
			conns = append(conns, conn)
		}
		paddrs = make([]string, wl.partials)
		for i := range paddrs {
			h, err := window.MustPlan(window.Count{}, spec(wl)).NewPartialHandler(window.PartialHandlerOptions{
				ID: i, Nodes: wl.partials, FinalAddrs: faddrs, Seed: topoSeed,
			})
			if err != nil {
				return fail(err)
			}
			if paddrs[i], err = listen(h); err != nil {
				return fail(err)
			}
			partials = append(partials, h)
		}
		sp.drained = func(words int) bool {
			var absorbed int64
			for _, h := range partials {
				absorbed += h.Processed()
			}
			return absorbed >= int64(words)
		}
		b.WindowedAggregate("wc", window.MustPlan(window.Count{}, spec(wl)), 1,
			engine.RemotePartialOpts(engine.RemotePartialConfig{
				Addrs: paddrs, Strategy: wl.strategy, StrategySet: true,
				Window: 1024, MaxBatchTuples: 256, MaxBatchBytes: 32 << 10,
				Linger: 2 * time.Millisecond,
			})).Input("words", window.SourceAware(engine.Partial()))
	} else {
		grouping := wl.grouping()
		b.WindowedAggregate("wc", window.MustPlan(window.Count{}, spec(wl)), wl.partials).
			Input("words", window.SourceAware(func(n int, seed uint64, emitter int) engine.Grouping {
				res.edgeSeed = seed
				return grouping(n, seed, emitter)
			}))
		b.AddBolt("sink", func() engine.Bolt { return &sink{col: &res.finals[0], nvocab: wl.vocab} }, 1).
			Input("wc", engine.Global())
	}
	top, err := b.Build()
	if err != nil {
		return fail(err)
	}
	rt := engine.NewRuntime(top, engine.Options{QueueSize: 2048, TraceSample: opt.engineTrace})

	runtime.ReadMemStats(&res.mem0)
	var ru0, ru1 syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru0)
	done := make(chan error, 1)
	go func() {
		err := rt.Run()
		subs.Wait()
		done <- err
	}()
	select {
	case err = <-done:
	case <-time.After(legDeadline):
		res.timedOut = true
		trace.Default.Dump(os.Stderr, fmt.Sprintf("bench: %s leg passed its %v deadline", wl.name, legDeadline))
		stop.Store(true)
		go teardown() // breaks every connection, so blocked senders and subscribers return
		select {
		case err = <-done:
		case <-time.After(5 * time.Second):
			err = errors.New("deployment did not stop after teardown")
		}
		return fail(fmt.Errorf("leg timed out: %v", err))
	}
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru1)
	runtime.ReadMemStats(&res.mem1)
	if err != nil {
		return fail(err)
	}

	res.start = sp.start
	var last int64
	for i := range res.finals {
		c := &res.finals[i]
		if c.err != nil {
			return fail(c.err)
		}
		if n := len(c.frames); n > 0 && c.frames[n-1].at > last {
			last = c.frames[n-1].at
		}
	}
	res.wall = time.Duration(last - sp.start)
	user := tvNs(ru1.Utime) - tvNs(ru0.Utime)
	res.sysNs = tvNs(ru1.Stime) - tvNs(ru0.Stime)
	res.cpuNs = user + res.sysNs
	res.lagsMs, res.blocked, res.traced = sp.lagsMs, sp.blocked, sp.traced

	stats := rt.Stats()
	if wl.dist {
		nodes := obs.Poll(paddrs, "partial")
		for _, nd := range nodes {
			if nd.Err != nil {
				return fail(nd.Err)
			}
		}
		cl := obs.Merge(nodes)
		res.loads, res.toPartial = cl.Loads, cl.Lat
		for _, h := range partials {
			if err := h.Err(); err != nil {
				return fail(err)
			}
			res.partial.Fold(h.Stats())
		}
		for _, h := range finals {
			res.final.Fold(h.Stats())
		}
		res.edge = stats.EdgeTotals("wc.partial")
	} else {
		res.loads = stats.Loads("wc.partial")
		res.partial = stats.WindowTotals("wc.partial")
		res.final = stats.WindowTotals("wc")
		res.toPartial = stats.LatencyTotals("wc.partial")
	}
	teardown()

	if opt.paced {
		res.lat = st.resultLatencies(opt, res.start, res.finals)
	}
	v0 := time.Now()
	res.failed, res.pairs = st.verify(opt.words, res.finals)
	if opt.benchTrace > 0 {
		// The oracle check as a span of the traced leg. Only there: the
		// span ring is allocated on first use, and an untraced leg must
		// not be the one that pays for it.
		trace.Default.Record(trace.Span{Hop: trace.HopEvent, Start: v0.UnixNano(),
			Dur: int64(time.Since(v0)), Arg1: int64(res.pairs), Arg2: res.failed, Note: "bench.verify"})
	}
	return res
}

func tvNs(tv syscall.Timeval) int64 { return tv.Sec*1e9 + tv.Usec*1e3 }

// verify compares what the final nodes delivered with the oracle: the
// exact count of every (word, window) pair in the first n tuples. The
// stream is in event-time order, so window w is the contiguous tuple
// range [w·perWindow, (w+1)·perWindow) and the oracle is one counting
// pass per window. failed is Σ|delivered − expected| over all pairs.
func (st *stream) verify(n int, finals []collected) (failed int64, pairs int) {
	pw := st.perWindow()
	windows := (n + pw - 1) / pw
	cur := make([]int, len(finals))
	lists := make([][]resEntry, len(finals))
	for f := range finals {
		failed += finals[f].bad
		es := finals[f].entries
		if !sort.SliceIsSorted(es, func(i, j int) bool { return es[i].win < es[j].win }) {
			// A final node closes windows in order, so this is already a
			// fault; sort a copy (the frame records index the original).
			es = append([]resEntry(nil), es...)
			sort.SliceStable(es, func(i, j int) bool { return es[i].win < es[j].win })
		}
		lists[f] = es
	}
	cnt := make([]int64, len(st.vocab))
	for w := 0; w < windows; w++ {
		seg := st.keys[w*pw : min((w+1)*pw, n)]
		for _, k := range seg {
			cnt[k]++
		}
		for f, es := range lists {
			for ; cur[f] < len(es) && int(es[cur[f]].win) == w; cur[f]++ {
				e := es[cur[f]]
				if d := e.val - cnt[e.key]; d != 0 {
					failed += max(d, -d)
				} else {
					pairs++
				}
				cnt[e.key] = 0 // a second delivery of the pair now mismatches
			}
		}
		for _, k := range seg {
			failed += cnt[k] // never delivered
			cnt[k] = 0
		}
	}
	for f, es := range lists {
		for _, e := range es[cur[f]:] {
			failed += e.val // a window the stream never had
		}
	}
	return failed, pairs
}

// resultLatencies is the open leg's result freshness: for every (final
// node, window) the arrival of the last frame carrying that window's
// results, minus the due time of the last tuple the oracle placed in
// the window. It includes every queue, the flush period, watermark
// propagation and the push; it excludes the window length.
func (st *stream) resultLatencies(opt legOptions, start int64, finals []collected) []latSample {
	pw := st.perWindow()
	var out []latSample
	for f := range finals {
		lastAt := map[uint32]int64{}
		for _, fr := range finals[f].frames {
			for _, e := range finals[f].entries[fr.first : fr.first+fr.entries] {
				lastAt[e.win] = fr.at // frames are in arrival order
			}
		}
		for w, at := range lastAt {
			lastTuple := min((int(w)+1)*pw, opt.words) - 1
			due := start + int64(float64(st.eventTime(lastTuple)-eventBase)*opt.wallScale)
			out = append(out, latSample{win: w, ms: float64(at-due) / 1e6})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].win < out[j].win })
	return out
}
