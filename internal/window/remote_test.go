package window

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"pkgstream/internal/engine"
	"pkgstream/internal/transport"
	"pkgstream/internal/wire"
)

// wordSpout emits a deterministic skewed word stream with a pre-stamped
// logical clock (one word per millisecond, starting at 1ms — 0 means
// "unset"). With marks > 0 it advertises its progress with a SourceMark
// every `marks` words and a final mark when done, and skews its clock
// by skew to stress multi-source watermarking.
type wordSpout struct {
	n     int
	marks int
	skew  time.Duration

	i   int
	id  int
	par int
}

func (s *wordSpout) Open(ctx *engine.Context) { s.id = ctx.Index; s.par = ctx.Parallelism }
func (s *wordSpout) Close()                   {}

func (s *wordSpout) at(i int) int64 {
	return int64(time.Duration(i+1)*time.Millisecond + time.Duration(s.id)*s.skew)
}

func (s *wordSpout) Next(out engine.Emitter) bool {
	if s.i >= s.n {
		return false
	}
	s.i++
	word := fmt.Sprintf("w%d", (s.i*s.i+s.id*7919)%50)
	if s.i%13 == 0 {
		word = "hot" // a recurring hot word crossing partials
	}
	out.Emit(engine.Tuple{Key: word, EmitNanos: s.at(s.i - 1)})
	if s.marks > 0 {
		if s.i%s.marks == 0 {
			out.Emit(SourceMark(s.id, s.at(s.i-1)))
		}
		if s.i == s.n {
			out.Emit(SourceMark(s.id, int64(1)<<62))
		}
	}
	return s.i < s.n
}

// expectedCounts replays the spouts' streams and computes the exact per
// (word, window) totals for a tumbling window of the given size.
func expectedCounts(nSpouts, perSpout int, size, skew time.Duration) map[string]int64 {
	want := map[string]int64{}
	for id := 0; id < nSpouts; id++ {
		s := &wordSpout{n: perSpout, id: id, skew: skew}
		for i := 0; i < perSpout; i++ {
			word := fmt.Sprintf("w%d", ((i+1)*(i+1)+id*7919)%50)
			if (i+1)%13 == 0 {
				word = "hot"
			}
			ts := s.at(i)
			start := ts / int64(size) * int64(size)
			want[fmt.Sprintf("%s@%d", word, start)]++
		}
	}
	return want
}

// resultSink collects final-stage results.
type resultSink struct {
	mu   *sync.Mutex
	got  map[string]int64
	late *int64
}

func (b *resultSink) Prepare(*engine.Context) {}
func (b *resultSink) Cleanup(engine.Emitter)  {}
func (b *resultSink) Execute(t engine.Tuple, _ engine.Emitter) {
	if t.Tick {
		return
	}
	res := t.Values[0].(Result)
	b.mu.Lock()
	b.got[fmt.Sprintf("%s@%d", res.Key, res.Start)] += res.Value.(int64)
	b.mu.Unlock()
}

const (
	rtSpouts   = 2
	rtPerSpout = 20_000
	rtPartials = 4
	rtSize     = 250 * time.Millisecond
)

func remoteSpec() Spec {
	return Spec{Size: rtSize, EveryTuples: 1500, Sources: rtSpouts}
}

// runInProcess runs the windowed wordcount entirely in one engine and
// returns the per-(word, window) counts.
func runInProcess(t *testing.T) map[string]int64 {
	t.Helper()
	var mu sync.Mutex
	got := map[string]int64{}
	plan := MustPlan(Count{}, remoteSpec())
	b := engine.NewBuilder("rt-local", 42)
	b.AddSpout("words", func() engine.Spout {
		return &wordSpout{n: rtPerSpout, marks: 500}
	}, rtSpouts)
	b.WindowedAggregate("wc", plan, rtPartials).Input("words", SourceAware(engine.Partial()))
	b.AddBolt("sink", func() engine.Bolt {
		return &resultSink{mu: &mu, got: got}
	}, 1).Input("wc", engine.Global())
	top, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := engine.NewRuntime(top, engine.Options{}).Run(); err != nil {
		t.Fatal(err)
	}
	return got
}

// runRemote runs the same topology with the final stage hosted on
// `nodes` TCP workers and returns the union of their closed windows.
func runRemote(t *testing.T, nodes int) map[string]int64 {
	t.Helper()
	handlers := make([]*FinalHandler, nodes)
	addrs := make([]string, nodes)
	for i := range handlers {
		plan := MustPlan(Count{}, remoteSpec())
		h, err := plan.NewFinalHandler(rtPartials)
		if err != nil {
			t.Fatal(err)
		}
		w, err := transport.ListenHandler("127.0.0.1:0", h)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = w.Close() })
		handlers[i] = h
		addrs[i] = w.Addr()
	}

	plan := MustPlan(Count{}, remoteSpec())
	b := engine.NewBuilder("rt-remote", 42)
	b.AddSpout("words", func() engine.Spout {
		return &wordSpout{n: rtPerSpout, marks: 500}
	}, rtSpouts)
	b.WindowedAggregate("wc", plan, rtPartials, engine.RemoteFinal(addrs...)).
		Input("words", SourceAware(engine.Partial()))
	top, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := engine.NewRuntime(top, engine.Options{}).Run(); err != nil {
		t.Fatal(err)
	}

	got := map[string]int64{}
	for i, h := range handlers {
		if err := h.WaitDone(10 * time.Second); err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		if h.BadFrames() != 0 || h.Unencodable() != 0 {
			t.Fatalf("node %d: %d bad frames, %d unencodable results",
				i, h.BadFrames(), h.Unencodable())
		}
		for _, res := range h.Results() {
			got[fmt.Sprintf("%s@%d", res.Key, res.Start)] += res.Value
		}
	}
	return got
}

func diffCounts(t *testing.T, label string, got, want map[string]int64) {
	t.Helper()
	var keys []string
	for k := range want {
		keys = append(keys, k)
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	bad := 0
	for _, k := range keys {
		if got[k] != want[k] {
			if bad < 10 {
				t.Errorf("%s: %s = %d, want %d", label, k, got[k], want[k])
			}
			bad++
		}
	}
	if bad > 0 {
		t.Fatalf("%s: %d of %d (word, window) pairs differ", label, bad, len(keys))
	}
}

// TestRemoteFinalMatchesInProcess is the tentpole's end-to-end gate:
// the same windowed wordcount produces IDENTICAL per-(word, window)
// counts whether the final stage merges in-process or behind TCP on two
// remote nodes — and both match the independently replayed truth.
func TestRemoteFinalMatchesInProcess(t *testing.T) {
	want := expectedCounts(rtSpouts, rtPerSpout, rtSize, 0)
	local := runInProcess(t)
	diffCounts(t, "in-process", local, want)
	remote := runRemote(t, 2)
	diffCounts(t, "remote vs truth", remote, want)
	diffCounts(t, "remote vs in-process", remote, local)
}

// TestSourceAwareWatermarksCloseExactlyWithSkewedClocks: two sources
// whose logical clocks are skewed by far more than any lateness
// allowance, no Spec.Lateness at all — with SourceMark progress and
// Spec.Sources the final stage advances on the minimum across sources,
// so nothing is ever late.
func TestSourceAwareWatermarksCloseExactlyWithSkewedClocks(t *testing.T) {
	const skew = 3 * time.Second // 12 windows of clock skew between sources
	var mu sync.Mutex
	got := map[string]int64{}
	plan := MustPlan(Count{}, Spec{Size: rtSize, EveryTuples: 700, Sources: rtSpouts})
	b := engine.NewBuilder("skewed", 7)
	b.AddSpout("words", func() engine.Spout {
		return &wordSpout{n: rtPerSpout, marks: 400, skew: skew}
	}, rtSpouts)
	b.WindowedAggregate("wc", plan, rtPartials).Input("words", SourceAware(engine.Partial()))
	b.AddBolt("sink", func() engine.Bolt {
		return &resultSink{mu: &mu, got: got}
	}, 1).Input("wc", engine.Global())
	top, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := engine.NewRuntime(top, engine.Options{}).Run(); err != nil {
		t.Fatal(err)
	}
	if ld := plan.FinalStats().LateDropped; ld != 0 {
		t.Fatalf("%d partials dropped late despite source-aware watermarks", ld)
	}
	diffCounts(t, "skewed", got, expectedCounts(rtSpouts, rtPerSpout, rtSize, skew))
}

// TestFinalHandlerAnswersPointQueries drives the query surface of a
// hosted final: OpCount over closed windows and OpResults' Done flag.
func TestFinalHandlerAnswersPointQueries(t *testing.T) {
	plan := MustPlan(Count{}, Spec{}) // global window, closed at final mark
	h, err := plan.NewFinalHandler(1)
	if err != nil {
		t.Fatal(err)
	}
	w, err := transport.ListenHandler("127.0.0.1:0", h)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	src, err := transport.DialSourceOpts([]string{w.Addr()}, transport.SourceOptions{Mode: transport.ModeKG, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	key := engine.Tuple{Key: "hot"}
	for i := 0; i < 3; i++ {
		if err := src.SendPartial(&wire.Partial{KeyHash: key.RouteKey(), Key: "hot", Count: 10}); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := src.QueryWorker(0, wire.Query{Op: wire.OpResults})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Done || len(rep.Results) != 0 {
		t.Fatalf("results before final mark: %+v", rep)
	}
	if err := src.SendMark(int64(1) << 62); err != nil {
		t.Fatal(err)
	}
	if err := src.SendMark(9223372036854775807); err != nil { // final
		t.Fatal(err)
	}
	if err := h.WaitDone(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	rep, err = src.QueryWorker(0, wire.Query{Op: wire.OpCount, Key: key.RouteKey()})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Done || rep.Count != 30 {
		t.Fatalf("OpCount reply %+v, want done with 30", rep)
	}
}

// frameSink is a transport.ResultSink that decodes every pushed frame.
type frameSink struct {
	reps []wire.Reply
	err  error
}

func (s *frameSink) Push(frame []byte) error {
	kind, p, err := wire.ReadFrame(bytes.NewReader(frame), nil)
	if err == nil && kind != wire.KindReply {
		err = fmt.Errorf("pushed a %v frame", kind)
	}
	if err == nil && len(frame) != wire.HeaderSize+len(p) {
		err = fmt.Errorf("frame of %d bytes announces %d", len(frame), wire.HeaderSize+len(p))
	}
	var rep wire.Reply
	if err == nil {
		rep, err = wire.DecodeReply(p)
	}
	if err != nil && s.err == nil {
		s.err = err
	}
	s.reps = append(s.reps, rep)
	return nil
}

// TestSubscribeOffsetsAcrossPages: subscriptions opened at any offset
// of a multi-page result log — its start, a page boundary, mid-page,
// its end and past it; while windows still close and once the node is
// done — receive exactly Results()[off:] in order with exactly one Done
// frame, and OpResults paged from the same offsets agrees.
func TestSubscribeOffsetsAcrossPages(t *testing.T) {
	h, err := MustPlan(Count{}, Spec{Size: 10}).NewFinalHandler(1)
	if err != nil {
		t.Fatal(err)
	}
	// One page per closing mark, the third mark's split at resultsPage:
	// pages [0,5) [5,6) [6,32774) [32774,32779) [32779,32783).
	closeWindow := func(start int64, strKeys, intKeys int) {
		for i := 0; i < strKeys; i++ {
			key := fmt.Sprintf("w%d-k%05d", start, i)
			h.HandlePartial(&wire.Partial{KeyHash: uint64(i), Key: key, Start: start, Count: int64(i + 1)})
		}
		for i := 0; i < intKeys; i++ {
			h.HandlePartial(&wire.Partial{KeyHash: uint64(1000 + i), Start: start, Count: 2})
		}
		h.HandleMark(wire.Mark{WM: start + 10})
	}
	type session struct {
		off  int
		want int // where Results() starts for this session
		sink *frameSink
	}
	var sessions []session
	open := func(offs ...int) {
		total := len(h.Results())
		for _, off := range offs {
			s := session{off: off, want: min(off, total), sink: &frameSink{}}
			h.HandleSubscribe(wire.Subscribe{Offset: int64(off)}, s.sink)
			sessions = append(sessions, s)
		}
	}

	closeWindow(0, 3, 2)
	closeWindow(10, 1, 0)
	open(0, 3, 5, 6, 9) // live: start, mid-page, boundary, end, past it
	closeWindow(20, resultsPage+5, 0)
	closeWindow(30, 4, 0)
	h.HandleMark(wire.Mark{WM: math.MaxInt64})
	all := h.Results()
	if len(all) != 32783 {
		t.Fatalf("log holds %d results, want 32783", len(all))
	}
	open(0, 3, 5, 6, 106, 32774, 32780, 32783, 40000)

	for _, s := range sessions {
		var got []wire.WindowResult
		dones := 0
		for i, rep := range s.sink.reps {
			if len(rep.Results) > resultsPage {
				t.Fatalf("offset %d: frame of %d results", s.off, len(rep.Results))
			}
			got = append(got, rep.Results...)
			if rep.Done {
				dones++
				if i != len(s.sink.reps)-1 {
					t.Fatalf("offset %d: Done on frame %d of %d", s.off, i+1, len(s.sink.reps))
				}
			}
		}
		if s.sink.err != nil {
			t.Fatalf("offset %d: %v", s.off, s.sink.err)
		}
		if dones != 1 {
			t.Fatalf("offset %d: %d Done frames, want 1", s.off, dones)
		}
		if want := all[s.want:]; !sameResults(got, want) {
			t.Fatalf("offset %d: pushed %d results, want %d (Results()[%d:])", s.off, len(got), len(want), s.want)
		}
	}

	for _, off := range []int{0, 3, 5, 6, 106, 32774, 32780, 32783, 40000} {
		var got []wire.WindowResult
		for {
			rep := h.HandleQuery(wire.Query{Op: wire.OpResults, Key: uint64(off + len(got))})
			if !rep.Done || rep.Count != int64(len(all)) {
				t.Fatalf("OpResults from %d: done %v, count %d", off, rep.Done, rep.Count)
			}
			if len(rep.Results) == 0 {
				break
			}
			got = append(got, rep.Results...)
		}
		if want := all[min(off, len(all)):]; !sameResults(got, want) {
			t.Fatalf("OpResults from %d: %d results, want %d", off, len(got), len(want))
		}
	}
}

// sameResults compares result lists, nil and empty alike.
func sameResults(a, b []wire.WindowResult) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}
