package main

import (
	"bufio"
	"fmt"
	"math"
	"net"
	"sort"
	"sync/atomic"
	"time"

	"pkgstream/internal/edge"
	"pkgstream/internal/engine"
	"pkgstream/internal/obs"
	"pkgstream/internal/route"
	"pkgstream/internal/sketch"
	"pkgstream/internal/transport"
	"pkgstream/internal/window"
	"pkgstream/internal/wire"
)

// The per-layer replays: each times calls into ONE module's public
// functions on the head of the workload's own stream, on a single
// goroutine unless the layer is itself a hand-off between two. They
// give the cost of a layer in isolation; what they miss — contention,
// cache pressure from the neighbours, the scheduler — is what
// budget.coverage reports.

// minReplayOps is the fewest operations a replay times, so a stream
// with few distinct pairs (wc-local-hotkey) still times long enough to
// read.
const minReplayOps = 200_000

// perItem times f and returns nanoseconds per item.
func perItem(n int, f func()) float64 {
	t0 := time.Now()
	f()
	return float64(time.Since(t0)) / float64(n)
}

type nullEmitter struct{}

func (nullEmitter) Emit(engine.Tuple) {}

// routerFor builds the router a workload's tuple hop uses, alone: the
// engine's per-edge grouping in-process, edge.Wire's router when
// distributed — the same route.Config either would pass.
func routerFor(wl workload, s route.Strategy, edgeSeed uint64) (route.Router, *route.Load, error) {
	cfg := route.Config{Strategy: s, Workers: wl.partials, Seed: edgeSeed, View: route.NewLoad(wl.partials)}
	if wl.dist {
		cfg.Seed = topoSeed
	}
	if s == route.StrategyPKG {
		cfg.D = 2
	}
	r, err := route.New(cfg)
	return r, cfg.View, err
}

// replayRoute routes the closed leg's words through the router alone.
func replayRoute(m map[string]float64, st *stream, hashes []uint64, edgeSeed uint64) error {
	wl := st.wl
	r, view, err := routerFor(wl, wl.strategy, edgeSeed)
	if err != nil {
		return err
	}
	m["route.route_ns"] = perItem(len(hashes), func() {
		for _, h := range hashes {
			view.Add(r.Route(h))
		}
	})
	_, m["route.imbalance_frac"] = obs.Imbalance(view.Snapshot())

	pkg, pview, err := routerFor(wl, route.StrategyPKG, edgeSeed)
	if err != nil {
		return err
	}
	for _, h := range hashes {
		pview.Add(pkg.Route(h))
	}
	_, m["route.imbalance_frac_pkg2"] = obs.Imbalance(pview.Snapshot())

	// A second, untimed pass reads the classifier before each decision:
	// how many candidates the key had, and whether its class moved
	// since the key was last seen.
	m["route.avg_candidates"] = 2
	m["route.hot_keys"], m["route.head_keys"], m["route.class_changes"] = 0, 0, 0
	r, view, err = routerFor(wl, wl.strategy, edgeSeed)
	if err != nil {
		return err
	}
	if ha, ok := r.(route.HotAware); ok {
		cls := ha.Classifier()
		last := make([]uint8, len(st.vocab)) // class + 1; 0 = not seen yet
		var cands, changes int64
		for i, h := range hashes {
			cands += int64(cls.Choices(h))
			c := uint8(cls.Class(h)) + 1
			if k := st.keys[i]; last[k] != c {
				if last[k] != 0 {
					changes++
				}
				last[k] = c
			}
			view.Add(r.Route(h))
		}
		hs := cls.Stats()
		m["route.avg_candidates"] = float64(cands) / float64(len(hashes))
		m["route.hot_keys"], m["route.head_keys"] = float64(hs.HotKeys), float64(hs.HeadKeys)
		m["route.class_changes"] = float64(changes)
	}
	return nil
}

// replayPartials is the oracle's (word, window) counts over the first n
// tuples, in the wire form a partial node would flush them.
func replayPartials(st *stream, hashes []uint64, n int) []wire.Partial {
	var out []wire.Partial
	pw := st.perWindow()
	cnt := make([]int64, len(st.vocab))
	for w := 0; w*pw < n; w++ {
		lo, hi := w*pw, min((w+1)*pw, n)
		for _, k := range st.keys[lo:hi] {
			cnt[k]++
		}
		for i := lo; i < hi; i++ {
			if k := st.keys[i]; cnt[k] != 0 {
				out = append(out, wire.Partial{KeyHash: hashes[i], Key: st.vocab[k],
					Start: eventBase + int64(w)*int64(windowSize), Count: cnt[k]})
				cnt[k] = 0
			}
		}
	}
	return out
}

// replayLayers runs every isolated replay and returns its metrics. The
// router replay covers exactly the closed leg's words — the tuples the
// end-to-end imbalance was measured on; the others the first
// sc.replayWords.
func replayLayers(st *stream, sc scale, edgeSeed uint64) (map[string]float64, error) {
	m := map[string]float64{}
	wl := st.wl
	n := sc.replayWords
	word := func(i int) string { return st.vocab[st.keys[i]] }

	hashes := make([]uint64, max(n, sc.closedWords))
	m["hash.keyhash_ns"] = perItem(len(hashes), func() {
		for i := range hashes {
			hashes[i] = route.KeyHash(word(i))
		}
	})
	if err := replayRoute(m, st, hashes[:sc.closedWords], edgeSeed); err != nil {
		return nil, err
	}

	ss := sketch.New(max(64, 5*wl.partials))
	m["sketch.offer_ns"] = perItem(n, func() {
		for _, h := range hashes[:n] {
			ss.Update(h)
		}
	})

	// engine: spout → edge.Local → a bolt that does nothing, under a
	// key-oblivious grouping — the emit path with no hashing or routing.
	b := engine.NewBuilder("replay", topoSeed)
	b.AddSpout("words", func() engine.Spout {
		return &spout{st: st, opt: legOptions{words: n}, stop: new(atomic.Bool)}
	}, 1)
	b.AddBolt("null", func() engine.Bolt { return engine.BoltFunc(func(engine.Tuple, engine.Emitter) {}) }, 1).
		Input("words", engine.Global())
	top, err := b.Build()
	if err != nil {
		return nil, err
	}
	rt := engine.NewRuntime(top, engine.Options{QueueSize: 2048})
	var runErr error
	m["engine.emit_ns"] = perItem(n, func() { runErr = rt.Run() })
	if runErr != nil {
		return nil, runErr
	}

	// edge.Local: 64-tuple batches into one bounded channel, a consumer
	// draining it.
	le := edge.NewLocal[engine.Tuple](1, 2048/64)
	drained := make(chan struct{})
	go func() {
		for range le.Recv(0) {
		}
		close(drained)
	}()
	m["edge.local_send_ns"] = perItem(n, func() {
		for i := 0; i < n; i += 64 {
			batch := make([]engine.Tuple, 0, 64)
			for j := i; j < min(i+64, n); j++ {
				batch = append(batch, engine.Tuple{Key: word(j), EmitNanos: st.eventTime(j)})
			}
			le.Send(0, batch) // a Local edge never fails
		}
		le.CloseRecv()
		<-drained
	})

	// wire: the codec alone.
	var buf []byte
	var bytes int
	m["wire.tuple_encode_ns"] = perItem(n, func() {
		for i := 0; i < n; i++ {
			buf, _ = wire.AppendTupleBody(buf[:0], &wire.Tuple{KeyHash: hashes[i], Key: word(i), EmitNanos: st.eventTime(i)})
			bytes += len(buf)
		}
	})
	m["wire.tuple_bytes"] = float64(bytes) / float64(n)
	var batches [][]byte
	for i := 0; i+256 <= n && len(batches) < 64; i += 256 {
		ts := make([]wire.Tuple, 256)
		for j := range ts {
			ts[j] = wire.Tuple{KeyHash: hashes[i+j], Key: word(i + j), EmitNanos: st.eventTime(i + j)}
		}
		frame, err := wire.AppendTupleBatch(nil, ts)
		if err != nil {
			return nil, err
		}
		batches = append(batches, frame[wire.HeaderSize:])
	}
	var scratch []wire.Tuple
	var decErr error
	rounds := max(1, n/(256*len(batches)))
	m["wire.tuple_decode_ns"] = perItem(rounds*len(batches)*256, func() {
		for r := 0; r < rounds; r++ {
			for _, p := range batches {
				if scratch, err = wire.DecodeTupleBatch(p, scratch); err != nil {
					decErr = err
				}
			}
		}
	})
	if decErr != nil {
		return nil, decErr
	}

	parts := replayPartials(st, hashes, n)
	ops := max(len(parts), minReplayOps)
	bytes = 0
	m["wire.partial_encode_ns"] = perItem(ops, func() {
		for i := 0; i < ops; i++ {
			buf = wire.AppendPartial(buf[:0], &parts[i%len(parts)])
			bytes += len(buf)
		}
	})
	m["wire.partial_bytes"] = float64(bytes) / float64(ops)
	var arena []byte
	var offs []int
	for i := 0; i < min(len(parts), 4096); i++ {
		offs = append(offs, len(arena))
		arena = wire.AppendPartial(arena, &parts[i])
	}
	offs = append(offs, len(arena))
	var dp wire.Partial
	m["wire.partial_decode_ns"] = perItem(ops, func() {
		for i := 0; i < ops; i++ {
			j := i % (len(offs) - 1)
			if err := wire.DecodePartial(arena[offs[j]+wire.HeaderSize:offs[j+1]], &dp); err != nil {
				decErr = err
			}
		}
	})
	if decErr != nil {
		return nil, decErr
	}

	// edge.Wire and transport.Source against loopback counting workers:
	// encode, the kernel's loopback stack, decode and a trivial handler.
	counters := make([]*transport.Worker, finalNodes)
	addrs := make([]string, finalNodes)
	for i := range counters {
		if counters[i], err = transport.ListenHandler("127.0.0.1:0", transport.NewCountHandler()); err != nil {
			return nil, err
		}
		defer counters[i].Close()
		addrs[i] = counters[i].Addr()
	}
	processed := func() (p int64) {
		for _, w := range counters {
			p += w.Processed()
		}
		return p
	}
	waitFor := func(want int64) error {
		for deadline := time.Now().Add(legDeadline); processed() < want; {
			if time.Now().After(deadline) {
				return fmt.Errorf("replay: loopback workers absorbed %d of %d", processed(), want)
			}
			time.Sleep(50 * time.Microsecond)
		}
		return nil
	}
	we, err := edge.DialWire(addrs, edge.WireOptions{Seed: topoSeed, Window: 1024,
		MaxBatchTuples: 256, MaxBatchBytes: 32 << 10, Linger: 2 * time.Millisecond})
	if err != nil {
		return nil, err
	}
	var sendErr error
	m["edge.wire_send_ns"] = perItem(n, func() {
		var t wire.Tuple
		for i := 0; i < n && sendErr == nil; i++ {
			t.KeyHash, t.Key, t.EmitNanos = hashes[i], word(i), st.eventTime(i)
			sendErr = we.SendTuple(&t)
		}
		if sendErr == nil {
			sendErr = we.Flush()
		}
		if sendErr == nil {
			sendErr = waitFor(int64(n))
		}
	})
	we.Close()
	if sendErr != nil {
		return nil, sendErr
	}
	src, err := transport.DialSourceOpts(addrs, transport.SourceOptions{Mode: transport.ModeKG, Seed: topoSeed})
	if err != nil {
		return nil, err
	}
	base := processed()
	m["transport.partial_send_ns"] = perItem(ops, func() {
		for i := 0; i < ops && sendErr == nil; i++ {
			sendErr = src.SendPartial(&parts[i%len(parts)])
		}
		if sendErr == nil {
			sendErr = src.Flush()
		}
		if sendErr == nil {
			sendErr = waitFor(base + int64(ops))
		}
	})
	src.Close()
	if sendErr != nil {
		return nil, sendErr
	}

	// window: the partial stage accumulating with no flush due, then one
	// flush of everything; the final stage merging and closing.
	noFlush := spec(wl)
	noFlush.EveryTuples = 0
	plan := window.MustPlan(window.Count{}, noFlush)
	pb := plan.NewPartial()
	pb.Prepare(&engine.Context{Component: "replay", Parallelism: 1})
	var accum time.Duration
	chunk := make([]engine.Tuple, 4096)
	for lo := 0; lo < n; lo += len(chunk) {
		c := chunk[:min(len(chunk), n-lo)]
		for j := range c {
			c[j] = engine.Tuple{Key: word(lo + j), EmitNanos: st.eventTime(lo + j)}
			if wl.dist {
				// As a partial node rebuilds it from the wire: the hash
				// travels, the engine's pointer cache does not.
				c[j].KeyHash = hashes[lo+j]
			} else {
				c[j].RouteKey() // as it arrives in-process: hash cached at emit
			}
		}
		t0 := time.Now()
		for j := range c {
			pb.Execute(c[j], nullEmitter{})
		}
		accum += time.Since(t0)
	}
	m["window.partial_accum_ns"] = float64(accum) / float64(n)
	flush := perItem(1, func() { pb.Cleanup(nullEmitter{}) })
	m["window.flush_ns_per_partial"] = flush / float64(max(1, plan.PartialStats().PartialsOut))

	fh, err := window.MustPlan(window.Count{}, spec(wl)).NewFinalHandler(1)
	if err != nil {
		return nil, err
	}
	m["window.final_merge_ns"] = perItem(len(parts), func() {
		for i := range parts {
			fh.HandlePartial(&parts[i])
		}
	})
	closeNs := perItem(1, func() { fh.HandleMark(wire.Mark{WM: math.MaxInt64}) })
	m["window.close_ns_per_result"] = closeNs / float64(max(1, fh.Stats().WindowsClosed))

	if m["transport.result_push_ms"], err = replayPush(wl, parts); err != nil {
		return nil, err
	}
	return m, nil
}

// replayPush times the result push alone: a final node on loopback with
// one subscriber, fed a window's partials directly, then the mark that
// closes the window — from that mark to the frame being read.
func replayPush(wl workload, parts []wire.Partial) (float64, error) {
	fh, err := window.MustPlan(window.Count{}, spec(wl)).NewFinalHandler(1)
	if err != nil {
		return 0, err
	}
	w, err := transport.ListenHandler("127.0.0.1:0", fh)
	if err != nil {
		return 0, err
	}
	defer w.Close()
	conn, err := net.DialTimeout("tcp", w.Addr(), 5*time.Second)
	if err != nil {
		return 0, err
	}
	defer conn.Close()
	// A query behind the Subscribe on the same connection: its reply
	// proves the subscription is registered, so every window closed from
	// here on is pushed as a frame of its own.
	hello := wire.AppendQuery(wire.AppendSubscribe(nil, wire.Subscribe{}), wire.Query{Op: wire.OpStats})
	if _, err := conn.Write(hello); err != nil {
		return 0, err
	}
	arrived := make(chan error, 1)
	go func() {
		r := bufio.NewReaderSize(conn, 1<<17)
		var payload []byte
		for {
			_, p, err := wire.ReadFrame(r, payload)
			payload = p
			arrived <- err
			if err != nil {
				return
			}
		}
	}()
	if err := <-arrived; err != nil {
		return 0, err
	}
	var ms []float64
	for i := 0; i < len(parts) && len(ms) < 40; {
		start := parts[i].Start
		for ; i < len(parts) && parts[i].Start == start; i++ {
			fh.HandlePartial(&parts[i])
		}
		t0 := time.Now()
		fh.HandleMark(wire.Mark{WM: start + int64(windowSize)})
		select {
		case err := <-arrived:
			if err != nil {
				return 0, err
			}
		case <-time.After(legDeadline):
			return 0, fmt.Errorf("replay: no result frame within %v", legDeadline)
		}
		ms = append(ms, float64(time.Since(t0))/1e6)
	}
	sort.Float64s(ms)
	return quantile(ms, 0.5), nil
}
