package window

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"pkgstream/internal/engine"
	"pkgstream/internal/transport"
	"pkgstream/internal/wire"
)

// buildPartialNodes spins up `nodes` hosted partial stages forwarding
// to the given final addresses, returning their handlers and addresses.
func buildPartialNodes(t *testing.T, nodes int, faddrs []string) ([]*PartialHandler, []string) {
	t.Helper()
	handlers := make([]*PartialHandler, nodes)
	addrs := make([]string, nodes)
	for i := range handlers {
		plan := MustPlan(Count{}, remoteSpec())
		h, err := plan.NewPartialHandler(PartialHandlerOptions{
			ID: i, Nodes: nodes, FinalAddrs: faddrs, Seed: 99,
		})
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
	return handlers, addrs
}

// runRemotePartial runs the full three-stage shape with BOTH windowed
// stages out of process: engine spouts → wire tuples → hosted partials
// → wire partials → hosted finals, all across TCP loopback.
func runRemotePartial(t *testing.T, partialNodes, finalNodes int) map[string]int64 {
	t.Helper()
	finals := make([]*FinalHandler, finalNodes)
	faddrs := make([]string, finalNodes)
	for i := range finals {
		plan := MustPlan(Count{}, remoteSpec())
		h, err := plan.NewFinalHandler(partialNodes)
		if err != nil {
			t.Fatal(err)
		}
		w, err := transport.ListenHandler("127.0.0.1:0", h)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = w.Close() })
		finals[i] = h
		faddrs[i] = w.Addr()
	}
	partials, paddrs := buildPartialNodes(t, partialNodes, faddrs)

	plan := MustPlan(Count{}, remoteSpec())
	b := engine.NewBuilder("rt-remote-partial", 42)
	b.AddSpout("words", func() engine.Spout {
		return &wordSpout{n: rtPerSpout, marks: 500}
	}, rtSpouts)
	b.WindowedAggregate("wc", plan, rtPartials, engine.RemotePartial(paddrs...)).
		Input("words", SourceAware(engine.Partial()))
	top, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	rt := engine.NewRuntime(top, engine.Options{})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if st := rt.Stats().EdgeTotals("wc.partial"); st.Failures != 0 {
		t.Fatalf("tuple edge failures: %+v", st)
	}

	var absorbed int64
	for i, h := range partials {
		if err := h.WaitDone(10 * time.Second); err != nil {
			t.Fatalf("partial node %d: %v", i, err)
		}
		if h.BadFrames() != 0 {
			t.Fatalf("partial node %d: %d bad frames", i, h.BadFrames())
		}
		absorbed += h.Processed()
	}
	if want := int64(rtSpouts * rtPerSpout); absorbed != want {
		t.Fatalf("partial nodes absorbed %d tuples, want %d — the flow-controlled edge dropped or duplicated", absorbed, want)
	}

	got := map[string]int64{}
	for i, h := range finals {
		if err := h.WaitDone(10 * time.Second); err != nil {
			t.Fatalf("final node %d: %v", i, err)
		}
		if h.BadFrames() != 0 {
			t.Fatalf("final node %d: %d bad frames", i, h.BadFrames())
		}
		for _, res := range mustResults(t, h) {
			got[fmt.Sprintf("%s@%d", res.Key, res.Start)] += res.Value
		}
	}
	return got
}

// TestRemotePartialMatchesInProcess is the PR 5 tentpole gate: the full
// spout → wire → remote partial → remote final pipeline produces
// IDENTICAL per-(word, window) counts to the in-process engine — and
// both match the independently replayed truth.
func TestRemotePartialMatchesInProcess(t *testing.T) {
	want := expectedCounts(rtSpouts, rtPerSpout, rtSize, 0)
	local := runInProcess(t)
	diffCounts(t, "in-process", local, want)
	remote := runRemotePartial(t, 2, 2)
	diffCounts(t, "remote-partial vs truth", remote, want)
	diffCounts(t, "remote-partial vs in-process", remote, local)
}

// gatedTuples wraps a handler, blocking every tuple on the gate — the
// deliberately slowed partial worker of the backpressure gate.
type gatedTuples struct {
	transport.Handler
	gate chan struct{}
}

func (g *gatedTuples) HandleTuple(t *wire.Tuple) {
	<-g.gate
	g.Handler.HandleTuple(t)
}

// TestRemotePartialBackpressure is the acceptance regression test: a
// deliberately stalled partial worker must stall the SPOUT through the
// credit window and the engine's bounded queues — bounded in-flight
// tuples, no unbounded buffering, no drops — and the stream must finish
// exactly once the worker resumes.
func TestRemotePartialBackpressure(t *testing.T) {
	const total = 30_000
	const window, queue = 16, 128
	fplan := MustPlan(Count{}, remoteSpec())
	fh, err := fplan.NewFinalHandler(1)
	if err != nil {
		t.Fatal(err)
	}
	fw, err := transport.ListenHandler("127.0.0.1:0", fh)
	if err != nil {
		t.Fatal(err)
	}
	defer fw.Close()

	pplan := MustPlan(Count{}, Spec{Size: rtSize, EveryTuples: 1500, Sources: 1})
	ph, err := pplan.NewPartialHandler(PartialHandlerOptions{
		ID: 0, Nodes: 1, FinalAddrs: []string{fw.Addr()}, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	pw, err := transport.ListenHandler("127.0.0.1:0", &gatedTuples{Handler: ph, gate: gate})
	if err != nil {
		t.Fatal(err)
	}
	defer pw.Close()

	plan := MustPlan(Count{}, Spec{Size: rtSize, EveryTuples: 1500, Sources: 1})
	b := engine.NewBuilder("bp", 7)
	b.AddSpout("words", func() engine.Spout {
		return &wordSpout{n: total, marks: 500}
	}, 1)
	b.WindowedAggregate("wc", plan, 1, engine.RemotePartialOpts(engine.RemotePartialConfig{
		Addrs: []string{pw.Addr()}, Window: window,
	})).Input("words", SourceAware(engine.Partial()))
	top, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	rt := engine.NewRuntime(top, engine.Options{QueueSize: queue, BatchSize: 16})
	runDone := make(chan error, 1)
	go func() { runDone <- rt.Run() }()

	// With the worker gated, the whole pipeline must clog: credit
	// window (16 frames on the wire edge), the forwarder's bounded
	// queue (128 tuples), and the emit-side batch buffers. The spout's
	// emitted count has to plateau far below the stream length.
	var plateau int64
	deadline := time.Now().Add(10 * time.Second)
	for {
		cur := rt.Stats().TotalExecuted("wc.partial") // tuples the forwarder pulled
		emitted := rt.Stats().PerInstance["words"][0].Emitted
		if emitted == plateau && emitted > 0 && cur > 0 {
			break // two consecutive identical samples: stalled
		}
		plateau = emitted
		if time.Now().After(deadline) {
			t.Fatalf("spout never stalled (emitted %d)", emitted)
		}
		time.Sleep(100 * time.Millisecond)
	}
	// Generous bound: window + queue + batching slack on both edges is
	// a few hundred tuples; a leak (unbounded TCP buffering) would sit
	// in the tens of thousands.
	if plateau > 2_000 {
		t.Fatalf("spout emitted %d tuples against a stalled worker — backpressure is not reaching it", plateau)
	}
	if st := rt.Stats().EdgeTotals("wc.partial"); st.Stalls == 0 {
		t.Fatalf("no credit stalls recorded on the tuple edge: %+v", st)
	}
	select {
	case err := <-runDone:
		t.Fatalf("topology finished against a stalled worker: %v", err)
	default:
	}

	// Resume: everything must drain, exactly once.
	close(gate)
	if err := <-runDone; err != nil {
		t.Fatal(err)
	}
	if err := ph.WaitDone(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := ph.Processed(); got != total {
		t.Fatalf("partial node absorbed %d/%d tuples after resume", got, total)
	}
	if err := fh.WaitDone(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, res := range mustResults(t, fh) {
		sum += res.Value
	}
	if sum != total {
		t.Fatalf("final node counted %d/%d tuples", sum, total)
	}
}

// pausingSpout is a wordSpout that parks halfway until resume closes —
// so a test can restart a node strictly BETWEEN the two halves of the
// stream, deterministically.
type pausingSpout struct {
	wordSpout
	pauseAt int
	resume  chan struct{}
}

func (s *pausingSpout) Next(out engine.Emitter) bool {
	if s.i == s.pauseAt {
		<-s.resume
	}
	return s.wordSpout.Next(out)
}

// TestRemoteFinalSurvivesNodeRestart: the forwarder's bounded-backoff
// retry rides out a final node restarting mid-stream — the topology
// completes instead of panicking on the first broken pipe, and the
// retries surface in Stats.Edges.
func TestRemoteFinalSurvivesNodeRestart(t *testing.T) {
	plan0 := MustPlan(Count{}, remoteSpec())
	h0, err := plan0.NewFinalHandler(rtPartials)
	if err != nil {
		t.Fatal(err)
	}
	w0, err := transport.ListenHandler("127.0.0.1:0", h0)
	if err != nil {
		t.Fatal(err)
	}
	addr := w0.Addr()

	resume := make(chan struct{})
	plan := MustPlan(Count{}, remoteSpec())
	b := engine.NewBuilder("rt-restart", 42)
	b.AddSpout("words", func() engine.Spout {
		return &pausingSpout{
			wordSpout: wordSpout{n: rtPerSpout, marks: 500},
			pauseAt:   rtPerSpout / 2, resume: resume,
		}
	}, rtSpouts)
	b.WindowedAggregate("wc", plan, rtPartials, engine.RemoteFinal(addr)).
		Input("words", SourceAware(engine.Partial()))
	top, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	rt := engine.NewRuntime(top, engine.Options{})
	runDone := make(chan error, 1)
	go func() { runDone <- rt.Run() }()

	// First half flows to the original node; with the spouts parked,
	// kill it and stand a fresh one up on the same address, then
	// release the second half — every send from here on rides the
	// retry path at least once.
	deadline := time.Now().Add(10 * time.Second)
	for h0.Stats().Merged == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no partials reached the node")
		}
		time.Sleep(5 * time.Millisecond)
	}
	_ = w0.Close()
	plan1 := MustPlan(Count{}, remoteSpec())
	h1, err := plan1.NewFinalHandler(rtPartials)
	if err != nil {
		t.Fatal(err)
	}
	w1, err := transport.ListenHandler(addr, h1)
	if err != nil {
		t.Fatalf("rebind %s: %v", addr, err)
	}
	defer w1.Close()
	close(resume)

	if err := <-runDone; err != nil {
		t.Fatalf("topology failed across a node restart: %v", err)
	}
	if st := rt.Stats().EdgeTotals("wc"); st.Retries == 0 || st.Failures != 0 {
		t.Fatalf("edge stats across restart: %+v (want retries > 0, no failures)", st)
	}
	// The replacement node must still reach Done: every partial
	// instance's final mark was (re)delivered after the restart.
	if err := h1.WaitDone(10 * time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestRemoteFinalFailsCleanlyWhenNodeDies: with the node gone for good,
// retries exhaust and the topology fails CLEANLY — Run returns (no
// hang, no crash) with the typed *engine.EdgeError naming the edge.
func TestRemoteFinalFailsCleanlyWhenNodeDies(t *testing.T) {
	plan0 := MustPlan(Count{}, remoteSpec())
	h0, err := plan0.NewFinalHandler(rtPartials)
	if err != nil {
		t.Fatal(err)
	}
	w0, err := transport.ListenHandler("127.0.0.1:0", h0)
	if err != nil {
		t.Fatal(err)
	}
	addr := w0.Addr()

	resume := make(chan struct{})
	plan := MustPlan(Count{}, remoteSpec())
	b := engine.NewBuilder("rt-dead", 42)
	b.AddSpout("words", func() engine.Spout {
		return &pausingSpout{
			wordSpout: wordSpout{n: rtPerSpout, marks: 500},
			pauseAt:   rtPerSpout / 2, resume: resume,
		}
	}, rtSpouts)
	b.WindowedAggregate("wc", plan, rtPartials, engine.RemoteFinal(addr)).
		Input("words", SourceAware(engine.Partial()))
	top, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	rt := engine.NewRuntime(top, engine.Options{})
	runDone := make(chan error, 1)
	go func() { runDone <- rt.Run() }()

	deadline := time.Now().Add(10 * time.Second)
	for h0.Stats().Merged == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no partials reached the node")
		}
		time.Sleep(5 * time.Millisecond)
	}
	_ = w0.Close() // and nothing comes back
	close(resume)

	select {
	case err := <-runDone:
		var ee *engine.EdgeError
		if !errors.As(err, &ee) {
			t.Fatalf("run error %v (%T) is not an *engine.EdgeError", err, err)
		}
		if ee.Addr != addr || ee.Attempts != 4 {
			t.Fatalf("edge error %+v, want addr %s after 4 attempts", ee, addr)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("topology hung on a dead node")
	}
	if st := rt.Stats().EdgeTotals("wc"); st.Failures == 0 {
		t.Fatalf("no failure recorded: %+v", st)
	}
}

// TestSubscribePushMatchesDrain: a push subscription opened before the
// stream finishes delivers exactly the in-process run's counts as
// windows close. The node then releases every result it pushed, so the
// post-run drain, a late subscription and an OpCount query on that
// node fail with an error naming the floor instead of answering from a
// partial log.
func TestSubscribePushMatchesDrain(t *testing.T) {
	plan := MustPlan(Count{}, remoteSpec())
	h, err := plan.NewFinalHandler(rtPartials)
	if err != nil {
		t.Fatal(err)
	}
	w, err := transport.ListenHandler("127.0.0.1:0", h)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	type subResult struct {
		res []wire.WindowResult
		err error
	}
	live := make(chan subResult, 1)
	go func() {
		res, err := transport.SubscribeResults(w.Addr(), 30*time.Second)
		live <- subResult{res, err}
	}()

	plan2 := MustPlan(Count{}, remoteSpec())
	b := engine.NewBuilder("rt-push", 42)
	b.AddSpout("words", func() engine.Spout {
		return &wordSpout{n: rtPerSpout, marks: 500}
	}, rtSpouts)
	b.WindowedAggregate("wc", plan2, rtPartials, engine.RemoteFinal(w.Addr())).
		Input("words", SourceAware(engine.Partial()))
	top, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := engine.NewRuntime(top, engine.Options{}).Run(); err != nil {
		t.Fatal(err)
	}
	lr := <-live
	if lr.err != nil {
		t.Fatal(lr.err)
	}
	local := runInProcess(t)
	got := map[string]int64{}
	for _, r := range lr.res {
		got[fmt.Sprintf("%s@%d", r.Key, r.Start)] += r.Value
	}
	diffCounts(t, "live subscription vs in-process", got, local)
	if len(lr.res) != len(local) {
		t.Fatalf("live subscription: %d results for %d (word, window) pairs", len(lr.res), len(local))
	}

	floor := int64(len(lr.res))
	if f, kept := h.Retained(); f != int(floor) || len(kept) != 0 {
		t.Fatalf("after the run: floor %d with %d results kept, want floor %d and none kept", f, len(kept), floor)
	}
	wantReleased := func(label string, err error) {
		t.Helper()
		var re *transport.ReleasedError
		if !errors.As(err, &re) || re.Floor != floor || re.Offset != 0 {
			t.Fatalf("%s: err %v, want a *transport.ReleasedError at floor %d from offset 0", label, err, floor)
		}
	}
	_, err = transport.DrainResults(w.Addr(), 10*time.Second)
	wantReleased("post-run drain", err)
	_, err = transport.SubscribeResults(w.Addr(), 10*time.Second)
	wantReleased("late subscription", err)
	_, err = transport.Query([]string{w.Addr()}, lr.res[0].KeyHash, []int{0})
	wantReleased("OpCount", err)
	_, err = h.Results()
	wantReleased("Results", err)
}
