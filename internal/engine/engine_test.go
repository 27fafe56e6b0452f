package engine

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"pkgstream/internal/rng"
	"pkgstream/internal/route"
)

// sliceSpout emits a fixed sequence of keys.
type sliceSpout struct {
	keys []string
	i    int
}

func (s *sliceSpout) Open(*Context) {}
func (s *sliceSpout) Close()        {}
func (s *sliceSpout) Next(out Emitter) bool {
	if s.i >= len(s.keys) {
		return false
	}
	out.Emit(Tuple{Key: s.keys[s.i]})
	s.i++
	return true
}

// genSpout emits n keys drawn from a generator function.
type genSpout struct {
	n   int
	i   int
	gen func(i int) string
}

func (s *genSpout) Open(*Context) {}
func (s *genSpout) Close()        {}
func (s *genSpout) Next(out Emitter) bool {
	if s.i >= s.n {
		return false
	}
	out.Emit(Tuple{Key: s.gen(s.i)})
	s.i++
	return true
}

// collectBolt records every tuple it sees (thread-safe via its own
// mutex so tests can share one sink across instances).
type collectBolt struct {
	mu    *sync.Mutex
	got   *[]Tuple
	ticks *int
}

func (b *collectBolt) Prepare(*Context) {}
func (b *collectBolt) Execute(t Tuple, _ Emitter) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if t.Tick {
		*b.ticks++
		return
	}
	*b.got = append(*b.got, t)
}
func (b *collectBolt) Cleanup(Emitter) {}

func zipfKeys(n int, seed uint64) []string {
	z := rng.NewZipf(rng.New(seed), rng.SolveZipfExponent(5000, 0.09), 5000)
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%d", z.Next())
	}
	return keys
}

func TestBuilderValidation(t *testing.T) {
	mkSpout := func() Spout { return &sliceSpout{} }
	mkBolt := func() Bolt { return BoltFunc(func(Tuple, Emitter) {}) }

	cases := []struct {
		name  string
		build func() (*Topology, error)
		frag  string
	}{
		{"no spouts", func() (*Topology, error) {
			return NewBuilder("t", 1).Build()
		}, "no spouts"},
		{"nil spout factory", func() (*Topology, error) {
			return NewBuilder("t", 1).AddSpout("s", nil, 1).Build()
		}, "nil factory"},
		{"duplicate name", func() (*Topology, error) {
			b := NewBuilder("t", 1).AddSpout("x", mkSpout, 1)
			b.AddBolt("x", mkBolt, 1).Input("x", Shuffle())
			return b.Build()
		}, "duplicate"},
		{"zero parallelism", func() (*Topology, error) {
			return NewBuilder("t", 1).AddSpout("s", mkSpout, 0).Build()
		}, "parallelism"},
		{"bolt without inputs", func() (*Topology, error) {
			b := NewBuilder("t", 1).AddSpout("s", mkSpout, 1)
			b.AddBolt("b", mkBolt, 1)
			return b.Build()
		}, "no inputs"},
		{"unknown input", func() (*Topology, error) {
			b := NewBuilder("t", 1).AddSpout("s", mkSpout, 1)
			b.AddBolt("b", mkBolt, 1).Input("nope", Shuffle())
			return b.Build()
		}, "unknown"},
		{"nil grouping", func() (*Topology, error) {
			b := NewBuilder("t", 1).AddSpout("s", mkSpout, 1)
			b.AddBolt("b", mkBolt, 1).Input("s", nil)
			return b.Build()
		}, "nil grouping"},
		{"cycle", func() (*Topology, error) {
			b := NewBuilder("t", 1).AddSpout("s", mkSpout, 1)
			b.AddBolt("b1", mkBolt, 1).Input("s", Shuffle()).Input("b2", Shuffle())
			b.AddBolt("b2", mkBolt, 1).Input("b1", Shuffle())
			return b.Build()
		}, "cycle"},
	}
	for _, c := range cases {
		_, err := c.build()
		if err == nil {
			t.Errorf("%s: expected error", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.frag) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.frag)
		}
	}
}

func TestBuildValidTopology(t *testing.T) {
	b := NewBuilder("wc", 7)
	b.AddSpout("lines", func() Spout { return &sliceSpout{} }, 2)
	b.AddBolt("count", func() Bolt { return BoltFunc(func(Tuple, Emitter) {}) }, 4).
		Input("lines", Partial())
	b.AddBolt("agg", func() Bolt { return BoltFunc(func(Tuple, Emitter) {}) }, 1).
		Input("count", Global())
	top, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if top.Name() != "wc" {
		t.Errorf("Name = %q", top.Name())
	}
}

// runCollect runs a one-spout/one-bolt topology and returns the tuples
// seen by the bolt component (across all instances) plus the stats.
func runCollect(t *testing.T, keys []string, g GroupingFactory, parallelism int) ([]Tuple, Stats) {
	t.Helper()
	var mu sync.Mutex
	var got []Tuple
	ticks := 0
	b := NewBuilder("t", 42)
	b.AddSpout("src", func() Spout { return &sliceSpout{keys: keys} }, 1)
	b.AddBolt("sink", func() Bolt { return &collectBolt{mu: &mu, got: &got, ticks: &ticks} }, parallelism).
		Input("src", g)
	top, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	rt := NewRuntime(top, Options{QueueSize: 64})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	return got, rt.Stats()
}

func TestAllTuplesDelivered(t *testing.T) {
	keys := zipfKeys(5000, 1)
	got, stats := runCollect(t, keys, Shuffle(), 4)
	if len(got) != len(keys) {
		t.Fatalf("delivered %d tuples, want %d", len(got), len(keys))
	}
	if n := stats.TotalExecuted("sink"); n != int64(len(keys)) {
		t.Fatalf("executed %d, want %d", n, len(keys))
	}
	// Multiset of keys is preserved.
	want := map[string]int{}
	for _, k := range keys {
		want[k]++
	}
	for _, tu := range got {
		want[tu.Key]--
	}
	for k, c := range want {
		if c != 0 {
			t.Fatalf("key %s count off by %d", k, c)
		}
	}
}

func TestShuffleGroupingBalances(t *testing.T) {
	_, stats := runCollect(t, zipfKeys(4000, 2), Shuffle(), 8)
	if imb := stats.Imbalance("sink"); imb > 1 {
		t.Fatalf("shuffle imbalance %v > 1", imb)
	}
}

func TestKeyGroupingLocality(t *testing.T) {
	// Same key → same instance. Run with a sink that records instance.
	var mu sync.Mutex
	where := map[string]map[int]bool{}
	b := NewBuilder("t", 9)
	b.AddSpout("src", func() Spout { return &sliceSpout{keys: zipfKeys(10000, 3)} }, 1)
	b.AddBolt("sink", func() Bolt {
		var idx int
		return &ctxBolt{onPrepare: func(c *Context) { idx = c.Index }, onExec: func(tu Tuple, _ Emitter) {
			mu.Lock()
			if where[tu.Key] == nil {
				where[tu.Key] = map[int]bool{}
			}
			where[tu.Key][idx] = true
			mu.Unlock()
		}}
	}, 7).Input("src", Key())
	top, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := NewRuntime(top, Options{}).Run(); err != nil {
		t.Fatal(err)
	}
	for k, insts := range where {
		if len(insts) != 1 {
			t.Fatalf("key %s executed on %d instances under key grouping", k, len(insts))
		}
	}
}

// ctxBolt wires closures into the Bolt interface.
type ctxBolt struct {
	onPrepare func(*Context)
	onExec    func(Tuple, Emitter)
	onCleanup func(Emitter)
}

func (b *ctxBolt) Prepare(c *Context) {
	if b.onPrepare != nil {
		b.onPrepare(c)
	}
}
func (b *ctxBolt) Execute(t Tuple, e Emitter) {
	if b.onExec != nil {
		b.onExec(t, e)
	}
}
func (b *ctxBolt) Cleanup(e Emitter) {
	if b.onCleanup != nil {
		b.onCleanup(e)
	}
}

func TestPartialGroupingTwoWorkersPerKey(t *testing.T) {
	var mu sync.Mutex
	where := map[string]map[int]bool{}
	b := NewBuilder("t", 11)
	b.AddSpout("src", func() Spout { return &sliceSpout{keys: zipfKeys(20000, 4)} }, 3)
	b.AddBolt("sink", func() Bolt {
		var idx int
		return &ctxBolt{onPrepare: func(c *Context) { idx = c.Index }, onExec: func(tu Tuple, _ Emitter) {
			mu.Lock()
			if where[tu.Key] == nil {
				where[tu.Key] = map[int]bool{}
			}
			where[tu.Key][idx] = true
			mu.Unlock()
		}}
	}, 9).Input("src", Partial())
	top, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := NewRuntime(top, Options{}).Run(); err != nil {
		t.Fatal(err)
	}
	// Key splitting: with multiple sources the candidate *set* is shared
	// (same edge seed), so each key still reaches at most 2 instances.
	for k, insts := range where {
		if len(insts) > 2 {
			t.Fatalf("key %s reached %d > 2 instances under PKG", k, len(insts))
		}
	}
}

func TestPartialBeatsKeyGroupingImbalance(t *testing.T) {
	keys := zipfKeys(30000, 5)
	_, kgStats := runCollect(t, keys, Key(), 9)
	_, pkgStats := runCollect(t, keys, Partial(), 9)
	kg := kgStats.Imbalance("sink")
	pkg := pkgStats.Imbalance("sink")
	if pkg*5 > kg {
		t.Fatalf("PKG imbalance %v not well below KG %v", pkg, kg)
	}
}

func TestGlobalGrouping(t *testing.T) {
	_, stats := runCollect(t, zipfKeys(500, 6), Global(), 4)
	loads := stats.Loads("sink")
	if loads[0] != 500 {
		t.Fatalf("instance 0 executed %d, want 500", loads[0])
	}
	for i := 1; i < 4; i++ {
		if loads[i] != 0 {
			t.Fatalf("instance %d executed %d, want 0", i, loads[i])
		}
	}
}

func TestBroadcastGrouping(t *testing.T) {
	_, stats := runCollect(t, zipfKeys(300, 7), Broadcast(), 5)
	if n := stats.TotalExecuted("sink"); n != 300*5 {
		t.Fatalf("broadcast delivered %d, want %d", n, 300*5)
	}
}

func TestMultiStageTopologyAndCleanupFlush(t *testing.T) {
	// words → counter (accumulates, flushes on Cleanup) → sink.
	// End-to-end counts must equal the input histogram even though the
	// counters only emit at Cleanup.
	keys := zipfKeys(8000, 8)
	want := map[string]int64{}
	for _, k := range keys {
		want[k]++
	}

	var mu sync.Mutex
	got := map[string]int64{}

	b := NewBuilder("wc", 13)
	// One spout instance: each instance would otherwise replay the whole
	// slice, doubling the histogram.
	b.AddSpout("words", func() Spout { return &sliceSpout{keys: keys} }, 1)
	b.AddBolt("count", func() Bolt {
		counts := map[string]int64{}
		return &ctxBolt{
			onExec: func(tu Tuple, _ Emitter) { counts[tu.Key]++ },
			onCleanup: func(e Emitter) {
				for k, c := range counts {
					e.Emit(Tuple{Key: k, Values: Values{c}})
				}
			},
		}
	}, 6).Input("words", Partial())
	b.AddBolt("sink", func() Bolt {
		return &ctxBolt{onExec: func(tu Tuple, _ Emitter) {
			mu.Lock()
			got[tu.Key] += tu.Values[0].(int64)
			mu.Unlock()
		}}
	}, 1).Input("count", Global())
	top, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := NewRuntime(top, Options{QueueSize: 32}).Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d distinct keys, want %d", len(got), len(want))
	}
	for k, c := range want {
		if got[k] != c {
			t.Fatalf("key %s: got %d, want %d", k, got[k], c)
		}
	}
}

func TestSpoutParallelism(t *testing.T) {
	// Each spout instance runs its own factory-made spout: total emitted
	// = instances × per-instance tuples.
	var mu sync.Mutex
	var got []Tuple
	ticks := 0
	b := NewBuilder("t", 3)
	b.AddSpout("src", func() Spout {
		return &genSpout{n: 100, gen: func(i int) string { return fmt.Sprintf("k%d", i) }}
	}, 4)
	b.AddBolt("sink", func() Bolt { return &collectBolt{mu: &mu, got: &got, ticks: &ticks} }, 2).
		Input("src", Shuffle())
	top, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	rt := NewRuntime(top, Options{})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 400 {
		t.Fatalf("got %d tuples, want 400", len(got))
	}
	for _, inst := range rt.Stats().PerInstance["src"] {
		if inst.Emitted != 100 {
			t.Fatalf("spout instance emitted %d, want 100", inst.Emitted)
		}
	}
}

func TestTickTuplesDelivered(t *testing.T) {
	var mu sync.Mutex
	var got []Tuple
	ticks := 0
	b := NewBuilder("t", 3)
	b.AddSpout("src", func() Spout {
		return &slowSpout{n: 30, delay: 10 * time.Millisecond}
	}, 1)
	b.AddBolt("sink", func() Bolt { return &collectBolt{mu: &mu, got: &got, ticks: &ticks} }, 2).
		Input("src", Shuffle()).
		TickEvery(20 * time.Millisecond)
	top, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	rt := NewRuntime(top, Options{})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if ticks == 0 {
		t.Fatal("no tick tuples delivered during a ~300ms run")
	}
	if len(got) != 30 {
		t.Fatalf("got %d data tuples, want 30", len(got))
	}
	// Ticks are not counted as executed load.
	if n := rt.Stats().TotalExecuted("sink"); n != 30 {
		t.Fatalf("executed %d, want 30 (ticks excluded)", n)
	}
}

type slowSpout struct {
	n     int
	i     int
	delay time.Duration
}

func (s *slowSpout) Open(*Context) {}
func (s *slowSpout) Close()        {}
func (s *slowSpout) Next(out Emitter) bool {
	if s.i >= s.n {
		return false
	}
	time.Sleep(s.delay)
	out.Emit(Tuple{Key: fmt.Sprintf("k%d", s.i)})
	s.i++
	return true
}

func TestEmitNanosStamped(t *testing.T) {
	got, _ := runCollect(t, []string{"a", "b"}, Shuffle(), 1)
	for _, tu := range got {
		if tu.EmitNanos == 0 {
			t.Fatal("spout tuple missing EmitNanos")
		}
	}
}

// TestSinkLatencyObserved: sink components (bolts with no downstream)
// record emit→delivery latency of sampled tuples into Stats.Latency.
func TestSinkLatencyObserved(t *testing.T) {
	keys := zipfKeys(2000, 7)
	b := NewBuilder("t", 42)
	b.AddSpout("src", func() Spout { return &sliceSpout{keys: keys} }, 1)
	b.AddBolt("sink", func() Bolt { return BoltFunc(func(Tuple, Emitter) {}) }, 2).
		Input("src", Shuffle())
	top, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	rt := NewRuntime(top, Options{QueueSize: 64, LatencySample: 10})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	st := rt.Stats()
	lat := st.LatencyTotals("sink")
	// 1-in-10 sampling over 2000 tuples: exactly 200 observations (the
	// emitter counts deterministically), all with sane non-negative
	// latencies.
	if want := int64(len(keys) / 10); lat.Count != want {
		t.Fatalf("latency count = %d, want %d", lat.Count, want)
	}
	if p99 := lat.Quantile(0.99); p99 <= 0 || p99 > int64(time.Minute) {
		t.Fatalf("implausible sink p99: %v", time.Duration(p99))
	}
	if len(st.Latency["sink"]) != 2 {
		t.Fatalf("latency instances = %d, want 2", len(st.Latency["sink"]))
	}
}

// TestLatencySampleDisabled: a negative LatencySample turns stamping
// off entirely — no tuple carries a LatStamp, no histogram fills.
func TestLatencySampleDisabled(t *testing.T) {
	b := NewBuilder("t", 42)
	b.AddSpout("src", func() Spout { return &sliceSpout{keys: zipfKeys(500, 7)} }, 1)
	b.AddBolt("sink", func() Bolt { return BoltFunc(func(Tuple, Emitter) {}) }, 1).
		Input("src", Shuffle())
	top, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	rt := NewRuntime(top, Options{QueueSize: 64, LatencySample: -1})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if lat := rt.Stats().LatencyTotals("sink"); lat.Count != 0 {
		t.Fatalf("latency recorded with sampling disabled: %+v", lat)
	}
}

func TestBoltPanicIsReportedNotFatal(t *testing.T) {
	b := NewBuilder("t", 3)
	b.AddSpout("src", func() Spout { return &sliceSpout{keys: zipfKeys(1000, 9)} }, 1)
	b.AddBolt("bad", func() Bolt {
		n := 0
		return &ctxBolt{onExec: func(Tuple, Emitter) {
			n++
			if n == 5 {
				panic("boom")
			}
		}}
	}, 2).Input("src", Shuffle())
	top, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	err = NewRuntime(top, Options{QueueSize: 8}).Run()
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("expected panic error, got %v", err)
	}
}

func TestSpoutPanicIsReported(t *testing.T) {
	b := NewBuilder("t", 3)
	b.AddSpout("src", func() Spout { return &panicSpout{} }, 1)
	b.AddBolt("sink", func() Bolt { return BoltFunc(func(Tuple, Emitter) {}) }, 1).
		Input("src", Shuffle())
	top, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	err = NewRuntime(top, Options{}).Run()
	if err == nil || !strings.Contains(err.Error(), "spout-boom") {
		t.Fatalf("expected spout panic error, got %v", err)
	}
}

type panicSpout struct{ i int }

func (s *panicSpout) Open(*Context) {}
func (s *panicSpout) Close()        {}
func (s *panicSpout) Next(out Emitter) bool {
	s.i++
	if s.i > 3 {
		panic("spout-boom")
	}
	out.Emit(Tuple{Key: "x"})
	return true
}

func TestDiamondTopology(t *testing.T) {
	// src → (left, right) → join: the join bolt's channels must close
	// only after both branches finish, and receive everything.
	var mu sync.Mutex
	total := 0
	b := NewBuilder("diamond", 5)
	b.AddSpout("src", func() Spout { return &sliceSpout{keys: zipfKeys(2000, 10)} }, 1)
	pass := func() Bolt {
		return BoltFunc(func(t Tuple, out Emitter) { out.Emit(t) })
	}
	b.AddBolt("left", pass, 2).Input("src", Shuffle())
	b.AddBolt("right", pass, 3).Input("src", Shuffle())
	b.AddBolt("join", func() Bolt {
		return &ctxBolt{onExec: func(Tuple, Emitter) {
			mu.Lock()
			total++
			mu.Unlock()
		}}
	}, 2).Input("left", Key()).Input("right", Key())
	top, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := NewRuntime(top, Options{QueueSize: 16}).Run(); err != nil {
		t.Fatal(err)
	}
	// src shuffles each tuple to exactly one of left/right? No: separate
	// subscriptions each receive every tuple, so join sees 2× the input.
	if total != 4000 {
		t.Fatalf("join saw %d tuples, want 4000 (2000 via each branch)", total)
	}
}

func TestPartialNValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("PartialN(0) did not panic")
		}
	}()
	PartialN(0)
}

func TestStatsSnapshotIsolated(t *testing.T) {
	keys := zipfKeys(100, 11)
	_, stats := runCollect(t, keys, Shuffle(), 2)
	loads := stats.Loads("sink")
	loads[0] = -1
	if stats.Loads("sink")[0] == -1 {
		t.Fatal("Loads returned aliased storage")
	}
	if stats.Imbalance("missing") != 0 {
		t.Fatal("imbalance of unknown component should be 0")
	}
}

func TestStatsReadableWhileRunning(t *testing.T) {
	// Stats() uses atomic counters, so a monitor may poll it live (run
	// under -race to verify).
	b := NewBuilder("live", 21)
	b.AddSpout("src", func() Spout {
		return &slowSpout{n: 50, delay: time.Millisecond}
	}, 1)
	b.AddBolt("sink", func() Bolt { return BoltFunc(func(Tuple, Emitter) {}) }, 2).
		Input("src", Shuffle())
	top, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	rt := NewRuntime(top, Options{})
	done := make(chan error, 1)
	go func() { done <- rt.Run() }()
	var peak int64
	for {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			if got := rt.Stats().TotalExecuted("sink"); got != 50 {
				t.Fatalf("final executed %d, want 50", got)
			}
			if peak > 50 {
				t.Fatalf("live executed count overshot: %d", peak)
			}
			return
		default:
			if n := rt.Stats().TotalExecuted("sink"); n > peak {
				peak = n
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
}

func TestDeepPipelineDrains(t *testing.T) {
	// A 5-stage pipeline with tiny queues must still drain completely
	// (backpressure does not deadlock an acyclic DAG).
	const stages = 5
	b := NewBuilder("deep", 33)
	b.AddSpout("src", func() Spout { return &sliceSpout{keys: zipfKeys(3000, 12)} }, 1)
	pass := func() Bolt { return BoltFunc(func(t Tuple, out Emitter) { out.Emit(t) }) }
	prev := "src"
	for i := 0; i < stages; i++ {
		name := fmt.Sprintf("stage%d", i)
		b.AddBolt(name, pass, 3).Input(prev, Partial())
		prev = name
	}
	var mu sync.Mutex
	total := 0
	b.AddBolt("sink", func() Bolt {
		return &ctxBolt{onExec: func(Tuple, Emitter) {
			mu.Lock()
			total++
			mu.Unlock()
		}}
	}, 1).Input(prev, Global())
	top, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := NewRuntime(top, Options{QueueSize: 4}).Run(); err != nil {
		t.Fatal(err)
	}
	if total != 3000 {
		t.Fatalf("sink saw %d tuples, want 3000", total)
	}
}

func BenchmarkEngineShuffleThroughput(b *testing.B) {
	var mu sync.Mutex
	var got []Tuple
	ticks := 0
	builder := NewBuilder("bench", 1)
	builder.AddSpout("src", func() Spout {
		return &genSpout{n: b.N, gen: func(i int) string { return "k" }}
	}, 1)
	builder.AddBolt("sink", func() Bolt { return &collectBolt{mu: &mu, got: &got, ticks: &ticks} }, 4).
		Input("src", Shuffle())
	top, err := builder.Build()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	if err := NewRuntime(top, Options{QueueSize: 4096}).Run(); err != nil {
		b.Fatal(err)
	}
}

func TestPartialNMoreThanEightChoicesNotTruncated(t *testing.T) {
	// Regression: the seed engine's hand-rolled grouping drew candidates
	// into a fixed [8]int buffer, silently capping Greedy-d at d = 8.
	// Under the shared routing core a hot key must cycle through all d of
	// its candidates (each Select charges the emitter's local view, so
	// repeats of one key round-robin its candidate set).
	const d, n = 12, 16
	g := PartialN(d)(n, 5, 0)
	seen := map[int]bool{}
	for i := 0; i < 10*d; i++ {
		dst := g.Select(Tuple{Key: "hot"})
		if dst < 0 || dst >= n {
			t.Fatalf("Select returned %d out of range", dst)
		}
		seen[dst] = true
	}
	if len(seen) != d {
		t.Fatalf("hot key reached %d distinct instances, want all %d candidates", len(seen), d)
	}
}

func TestRouterValidatesAtConstruction(t *testing.T) {
	// Misconfiguration must fail at the Router() call site — the returned
	// factory runs inside instance goroutines, where a panic would kill
	// the process instead of surfacing through Runtime.Run.
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic at construction", name)
			}
		}()
		f()
	}
	mustPanic("unknown strategy", func() { Router(route.Strategy(42), 2) })
	mustPanic("off-greedy", func() { Router(route.StrategyOffGreedy, 2) })
	mustPanic("negative d", func() { Router(route.StrategyPKG, -1) })
	// Table-keeping strategies need state shared across emitters; a
	// per-emitter instance would silently break their single-destination
	// contract, so they are rejected too.
	mustPanic("potc", func() { Router(route.StrategyPoTC, 2) })
	mustPanic("on-greedy", func() { Router(route.StrategyOnGreedy, 0) })
}

func TestRouteKeyRecomputedAfterRekey(t *testing.T) {
	tu := Tuple{Key: "alpha"}
	h1 := tu.RouteKey()
	tu.Key = "beta" // rekey-and-forward pattern: cached hash must refresh
	if tu.RouteKey() == h1 {
		t.Fatal("stale KeyHash survived a rekey")
	}
	fresh := Tuple{Key: "beta"}
	if tu.RouteKey() != fresh.RouteKey() {
		t.Fatal("rekeyed tuple hashes differently from a fresh tuple")
	}
	// Integer-keyed tuples (no Key string) pass their explicit hash
	// through untouched.
	iv := Tuple{KeyHash: 42}
	if iv.RouteKey() != 42 {
		t.Fatalf("explicit KeyHash = %d, want 42", iv.RouteKey())
	}
}

// rekeyWhere runs src → mid → sink(Key()) and records which sink
// instance saw each key. When rekey is true the mid bolt rewrites the
// key before forwarding; otherwise the spout emits the final keys and
// mid forwards untouched. Identical names and topology seed mean both
// variants share every edge seed, so placements must agree.
func rekeyWhere(t *testing.T, keys []string, rekey bool) map[string]int {
	t.Helper()
	var mu sync.Mutex
	where := map[string]int{}
	spoutKeys := keys
	if !rekey {
		spoutKeys = make([]string, len(keys))
		for i, k := range keys {
			spoutKeys[i] = "re-" + k
		}
	}
	b := NewBuilder("rekey", 17)
	b.AddSpout("src", func() Spout { return &sliceSpout{keys: spoutKeys} }, 1)
	b.AddBolt("mid", func() Bolt {
		return BoltFunc(func(tu Tuple, out Emitter) {
			if rekey {
				tu.Key = "re-" + tu.Key
			}
			out.Emit(tu)
		})
	}, 2).Input("src", Key())
	b.AddBolt("sink", func() Bolt {
		var idx int
		return &ctxBolt{onPrepare: func(c *Context) { idx = c.Index }, onExec: func(tu Tuple, _ Emitter) {
			mu.Lock()
			where[tu.Key] = idx
			mu.Unlock()
		}}
	}, 7).Input("mid", Key())
	top, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := NewRuntime(top, Options{}).Run(); err != nil {
		t.Fatal(err)
	}
	return where
}

func TestRekeyedTupleRoutesByNewKey(t *testing.T) {
	// A bolt that rewrites Key on a received tuple and forwards it must
	// route by the new key: the KeyHash cached by the upstream emitter
	// must not leak through the rekey. Compare sink placement against a
	// run where the final keys are emitted directly.
	keys := zipfKeys(3000, 14)
	rekeyed := rekeyWhere(t, keys, true)
	direct := rekeyWhere(t, keys, false)
	if len(rekeyed) != len(direct) {
		t.Fatalf("key sets differ: %d vs %d", len(rekeyed), len(direct))
	}
	for k, inst := range rekeyed {
		if direct[k] != inst {
			t.Fatalf("key %s: rekeyed route %d != fresh route %d (stale KeyHash?)",
				k, inst, direct[k])
		}
	}
}

func TestRouteKeyClearedKeyRoutesLikeEmptyKey(t *testing.T) {
	// Clearing Key after a hash was cached must route like a fresh
	// empty-key tuple, not by the previous key's hash.
	tu := Tuple{Key: "x"}
	tu.RouteKey()
	tu.Key = ""
	fresh := Tuple{Key: ""}
	if tu.RouteKey() != fresh.RouteKey() {
		t.Fatalf("cleared key routes by %d, fresh empty key by %d",
			tu.RouteKey(), fresh.RouteKey())
	}
}

func TestBatchSizeClampedToQueueSize(t *testing.T) {
	// QueueSize is the caller's backpressure budget: a larger BatchSize
	// must not inflate per-edge buffering past it.
	var mu sync.Mutex
	var got []Tuple
	ticks := 0
	b := NewBuilder("clamp", 1)
	b.AddSpout("src", func() Spout { return &sliceSpout{keys: zipfKeys(1000, 15)} }, 1)
	b.AddBolt("sink", func() Bolt { return &collectBolt{mu: &mu, got: &got, ticks: &ticks} }, 2).
		Input("src", Shuffle())
	top, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	rt := NewRuntime(top, Options{QueueSize: 8, BatchSize: 512})
	if rt.opts.BatchSize != 8 {
		t.Fatalf("BatchSize = %d, want clamp to QueueSize 8", rt.opts.BatchSize)
	}
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1000 {
		t.Fatalf("delivered %d tuples, want 1000", len(got))
	}
}

func TestForwardedTickFlushesPartialBatch(t *testing.T) {
	// A bolt forwarding a tick downstream must not leave it buffered
	// behind a partial batch: the tick (and the data before it, in edge
	// order) ships immediately.
	var mu sync.Mutex
	var got []Tuple
	ticks := 0
	b := NewBuilder("tickfwd", 1)
	b.AddSpout("src", func() Spout { return &sliceSpout{keys: []string{"a", "b", "c"}} }, 1)
	b.AddBolt("fwd", func() Bolt {
		n := 0
		return BoltFunc(func(tu Tuple, out Emitter) {
			out.Emit(tu)
			n++
			if n == 3 {
				out.Emit(Tuple{Tick: true}) // cascade a flush signal
			}
		})
	}, 1).Input("src", Shuffle())
	b.AddBolt("sink", func() Bolt { return &collectBolt{mu: &mu, got: &got, ticks: &ticks} }, 1).
		Input("fwd", Shuffle())
	top, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := NewRuntime(top, Options{QueueSize: 1024, BatchSize: 64}).Run(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if ticks != 1 || len(got) != 3 {
		t.Fatalf("sink saw %d data + %d ticks, want 3 + 1", len(got), ticks)
	}
}

// waitingSpout emits its keys and one tick (which carries them past the
// spout's own emit buffer), then holds the stream open until released.
type waitingSpout struct {
	keys    []string
	release <-chan struct{}
	sent    bool
}

func (s *waitingSpout) Open(*Context) {}
func (s *waitingSpout) Close()        {}
func (s *waitingSpout) Next(out Emitter) bool {
	if s.sent {
		<-s.release
		return false
	}
	s.sent = true
	for _, k := range s.keys {
		out.Emit(Tuple{Key: k})
	}
	out.Emit(Tuple{Tick: true})
	return true
}

func TestBoltFlushesOnIdleInput(t *testing.T) {
	// A bolt that emitted three tuples and then has nothing left to read
	// must not sit on them: they reach the sink without a tick from the
	// bolt, a full batch, or the end of the stream.
	release := make(chan struct{})
	arrived := make(chan struct{}, 3) // one token per forwarded tuple
	b := NewBuilder("idleflush", 1)
	b.AddSpout("src", func() Spout {
		return &waitingSpout{keys: []string{"a", "b", "c"}, release: release}
	}, 1)
	b.AddBolt("fwd", func() Bolt {
		return BoltFunc(func(tu Tuple, out Emitter) {
			if !tu.Tick {
				out.Emit(tu)
			}
		})
	}, 1).Input("src", Shuffle())
	b.AddBolt("sink", func() Bolt {
		return BoltFunc(func(Tuple, Emitter) { arrived <- struct{}{} })
	}, 1).Input("fwd", Shuffle())
	top, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- NewRuntime(top, Options{QueueSize: 1024, BatchSize: 64}).Run() }()
	for i := 0; i < 3; i++ {
		select {
		case <-arrived:
		case <-time.After(5 * time.Second):
			close(release)
			<-done
			t.Fatalf("sink saw %d of 3 tuples while the stream idled: the bolt is holding its batch", i)
		}
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestHashedTupleSkipsRehash(t *testing.T) {
	// A trusted (key, hash) pair seeds the cache: RouteKey returns the
	// given hash without consulting the key — shown with a hash the key
	// does not have — until the tuple is rekeyed.
	key := "word"
	tu := HashedTuple(key, 42)
	if got := tu.RouteKey(); got != 42 {
		t.Fatalf("RouteKey of a hashed tuple = %d, want the seeded 42", got)
	}
	tu.Key = "other"
	if got, want := tu.RouteKey(), (&Tuple{Key: "other"}).RouteKey(); got != want {
		t.Fatalf("rekeyed hashed tuple routes by %#x, want %#x", got, want)
	}
	empty := HashedTuple("", 0)
	if got, want := empty.RouteKey(), (&Tuple{}).RouteKey(); got != want {
		t.Fatalf("empty hashed tuple routes by %#x, want the empty key's %#x", got, want)
	}
}

func TestRouteKeyPreservesExplicitHashAfterStringKey(t *testing.T) {
	// String→integer key conversion mid-topology: a bolt receives a
	// string-keyed tuple (hash already cached by the upstream emitter),
	// clears Key and sets its own KeyHash. The explicit hash must win
	// over both the stale cache and the empty-key rehash.
	tu := Tuple{Key: "word"}
	tu.RouteKey()
	tu.Key = ""
	tu.KeyHash = 42
	if got := tu.RouteKey(); got != 42 {
		t.Fatalf("explicit KeyHash after conversion = %d, want 42", got)
	}
}

// fakeOp is a minimal WindowedOp: the partial stage counts tuples and
// flushes one summary tuple at cleanup; the final stage sums them.
type fakeOp struct {
	finalPar int
	mu       *sync.Mutex
	total    *int64
}

func (op *fakeOp) NewPartial() Bolt {
	n := int64(0)
	return &hookBolt{
		exec: func(tu Tuple, _ Emitter) {
			if !tu.Tick {
				n++
			}
		},
		cleanup: func(out Emitter) { out.Emit(Tuple{Key: "sum", Values: Values{n}}) },
	}
}

func (op *fakeOp) NewFinal() Bolt {
	return BoltFunc(func(tu Tuple, _ Emitter) {
		if tu.Tick {
			return
		}
		op.mu.Lock()
		*op.total += tu.Values[0].(int64)
		op.mu.Unlock()
	})
}

func (op *fakeOp) FinalParallelism() int          { return op.finalPar }
func (op *fakeOp) FinalGrouping() GroupingFactory { return Key() }
func (op *fakeOp) TickEvery() time.Duration       { return 0 }

// hookBolt adapts closures (with a cleanup hook, unlike BoltFunc).
type hookBolt struct {
	exec    func(Tuple, Emitter)
	cleanup func(Emitter)
}

func (b *hookBolt) Prepare(*Context)             {}
func (b *hookBolt) Execute(t Tuple, out Emitter) { b.exec(t, out) }
func (b *hookBolt) Cleanup(out Emitter)          { b.cleanup(out) }

func TestWindowedAggregateExpandsToTwoStages(t *testing.T) {
	var mu sync.Mutex
	var total int64
	op := &fakeOp{finalPar: 2, mu: &mu, total: &total}
	keys := make([]string, 500)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%d", i%17)
	}
	b := NewBuilder("wa", 1)
	b.AddSpout("src", func() Spout { return &sliceSpout{keys: keys} }, 1)
	b.WindowedAggregate("agg", op, 3).Input("src", Partial())
	top, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	rt := NewRuntime(top, Options{QueueSize: 128})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	st := rt.Stats()
	if got := len(st.PerInstance["agg.partial"]); got != 3 {
		t.Fatalf("partial stage has %d instances, want 3", got)
	}
	if got := len(st.PerInstance["agg"]); got != 2 {
		t.Fatalf("final stage has %d instances, want 2", got)
	}
	if st.TotalExecuted("agg.partial") != 500 {
		t.Fatalf("partial executed %d, want 500", st.TotalExecuted("agg.partial"))
	}
	mu.Lock()
	defer mu.Unlock()
	if total != 500 {
		t.Fatalf("final summed %d, want 500", total)
	}
}

func TestWindowedAggregateNilOp(t *testing.T) {
	b := NewBuilder("wa", 1)
	b.AddSpout("src", func() Spout { return &sliceSpout{keys: []string{"a"}} }, 1)
	b.WindowedAggregate("agg", nil, 3).Input("src", Shuffle())
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "nil op") {
		t.Fatalf("Build error = %v, want nil-op error", err)
	}
}

func TestWindowTotalsFold(t *testing.T) {
	s := Stats{Windows: map[string][]WindowStats{
		"c": {
			{Live: 1, MaxLive: 5, Flushes: 2, PartialsOut: 10, Merged: 0, WindowsClosed: 1, LateDropped: 0},
			{Live: 2, MaxLive: 9, Flushes: 3, PartialsOut: 20, Merged: 4, WindowsClosed: 2, LateDropped: 1},
		},
	}}
	got := s.WindowTotals("c")
	want := WindowStats{Live: 3, MaxLive: 9, Flushes: 5, PartialsOut: 30, Merged: 4, WindowsClosed: 3, LateDropped: 1}
	if got != want {
		t.Fatalf("WindowTotals = %+v, want %+v", got, want)
	}
	if z := s.WindowTotals("missing"); z != (WindowStats{}) {
		t.Fatalf("missing component totals = %+v", z)
	}
}
