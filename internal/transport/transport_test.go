package transport

import (
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"pkgstream/internal/rng"
	"pkgstream/internal/route"
	"pkgstream/internal/wire"
)

// startWorkers spins up n workers on ephemeral loopback ports.
func startWorkers(t *testing.T, n int) ([]*Worker, []string) {
	t.Helper()
	workers := make([]*Worker, n)
	addrs := make([]string, n)
	for i := range workers {
		w, err := ListenWorker("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		workers[i] = w
		addrs[i] = w.Addr()
		t.Cleanup(func() { _ = w.Close() })
	}
	return workers, addrs
}

func totalProcessed(ws []*Worker) int64 {
	var n int64
	for _, w := range ws {
		n += w.Processed()
	}
	return n
}

func waitTotal(t *testing.T, ws []*Worker, want int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for totalProcessed(ws) < want {
		if time.Now().After(deadline) {
			t.Fatalf("workers absorbed %d < %d", totalProcessed(ws), want)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestEndToEndCountsOverTCP(t *testing.T) {
	workers, addrs := startWorkers(t, 5)
	src, err := DialSourceOpts(addrs, SourceOptions{Mode: ModePKG, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()

	z := rng.NewZipf(rng.New(1), rng.SolveZipfExponent(2000, 0.09), 2000)
	truth := map[uint64]int64{}
	const n = 30_000
	for i := 0; i < n; i++ {
		k := z.Next()
		truth[k]++
		if err := src.Send(k); err != nil {
			t.Fatal(err)
		}
	}
	if err := src.Flush(); err != nil {
		t.Fatal(err)
	}
	waitTotal(t, workers, n)

	// Every key's 2-probe distributed query equals its true count.
	for k := uint64(1); k <= 50; k++ {
		got, err := Query(addrs, k, src.Candidates(k))
		if err != nil {
			t.Fatal(err)
		}
		if got != truth[k] {
			t.Fatalf("key %d: distributed count %d, want %d", k, got, truth[k])
		}
	}
	// PKG keeps each key on ≤ 2 workers.
	for k := uint64(1); k <= 50; k++ {
		if c := src.Candidates(k); len(c) > 2 {
			t.Fatalf("key %d has %d candidates", k, len(c))
		}
	}
}

func TestPKGBalancesOverTCPWhereKGDoesNot(t *testing.T) {
	imbalance := func(ws []*Worker) float64 {
		var max, sum int64
		for _, w := range ws {
			p := w.Processed()
			if p > max {
				max = p
			}
			sum += p
		}
		return float64(max) - float64(sum)/float64(len(ws))
	}
	run := func(mode Mode) float64 {
		workers, addrs := startWorkers(t, 5)
		src, err := DialSourceOpts(addrs, SourceOptions{Mode: mode, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		defer src.Close()
		z := rng.NewZipf(rng.New(3), rng.SolveZipfExponent(3000, 0.12), 3000)
		const n = 40_000
		for i := 0; i < n; i++ {
			if err := src.Send(z.Next()); err != nil {
				t.Fatal(err)
			}
		}
		if err := src.Flush(); err != nil {
			t.Fatal(err)
		}
		waitTotal(t, workers, n)
		return imbalance(workers)
	}
	pkg := run(ModePKG)
	kg := run(ModeKG)
	if pkg*5 > kg {
		t.Fatalf("PKG imbalance %v not well below KG %v over TCP", pkg, kg)
	}
}

func TestMultipleIndependentSources(t *testing.T) {
	// Two sources with private local estimates and zero coordination:
	// total worker load must still balance (§III.B over a real network).
	workers, addrs := startWorkers(t, 4)
	const perSource = 20_000
	var wg sync.WaitGroup
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			src, err := DialSourceOpts(addrs, SourceOptions{Mode: ModePKG, Seed: 99, Start: id})
			if err != nil {
				t.Error(err)
				return
			}
			defer src.Close()
			z := rng.NewZipf(rng.New(uint64(id)+10), rng.SolveZipfExponent(1000, 0.1), 1000)
			for i := 0; i < perSource; i++ {
				if err := src.Send(z.Next()); err != nil {
					t.Error(err)
					return
				}
			}
			if err := src.Flush(); err != nil {
				t.Error(err)
			}
			if loads := src.LocalLoads(); len(loads) != 4 {
				t.Errorf("local loads %v", loads)
			}
		}(s)
	}
	wg.Wait()
	waitTotal(t, workers, 2*perSource)

	var max, sum int64
	for _, w := range workers {
		p := w.Processed()
		if p > max {
			max = p
		}
		sum += p
	}
	imb := float64(max) - float64(sum)/4
	if imb > 0.01*float64(sum) {
		t.Fatalf("two uncoordinated sources left imbalance %v of %d", imb, sum)
	}
}

func TestShuffleModeRoundRobin(t *testing.T) {
	workers, addrs := startWorkers(t, 3)
	src, err := DialSourceOpts(addrs, SourceOptions{Mode: ModeSG, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	for i := 0; i < 3000; i++ {
		if err := src.Send(uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := src.Flush(); err != nil {
		t.Fatal(err)
	}
	waitTotal(t, workers, 3000)
	for _, w := range workers {
		if w.Processed() != 1000 {
			t.Fatalf("worker %s processed %d, want 1000", w.Addr(), w.Processed())
		}
	}
	if got := src.Candidates(5); len(got) != 3 {
		t.Fatalf("SG candidates = %v", got)
	}
}

func TestQueryUnknownKeyZero(t *testing.T) {
	_, addrs := startWorkers(t, 2)
	got, err := Query(addrs, 12345, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Fatalf("unknown key counted %d", got)
	}
	if _, err := Query(addrs, 1, []int{5}); err == nil {
		t.Fatal("out-of-range candidate accepted")
	}
}

func TestDialErrors(t *testing.T) {
	if _, err := DialSourceOpts(nil, SourceOptions{Mode: ModePKG, Seed: 1}); err == nil {
		t.Fatal("empty addrs accepted")
	}
	if _, err := DialSourceOpts([]string{"127.0.0.1:1"}, SourceOptions{Mode: ModePKG, Seed: 1}); err == nil {
		t.Fatal("dial to closed port succeeded")
	}
	_, addrs := startWorkers(t, 1)
	if _, err := DialSourceOpts(addrs, SourceOptions{Mode: Mode(99), Seed: 1}); err == nil {
		t.Fatal("bad mode accepted")
	}
}

func TestWorkerCloseIdempotentAndUnblocksDial(t *testing.T) {
	w, err := ListenWorker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := DialSourceOpts([]string{w.Addr()}, SourceOptions{Mode: ModePKG, Seed: 1}); err == nil {
		t.Fatal("dial to closed worker succeeded")
	}
}

func TestProtocolViolationDropsConnection(t *testing.T) {
	workers, addrs := startWorkers(t, 1)
	src, err := DialSourceOpts(addrs, SourceOptions{Mode: ModeKG, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Valid frame, then garbage: the worker keeps the first and drops the
	// connection on the second without crashing.
	if err := src.Send(7); err != nil {
		t.Fatal(err)
	}
	if err := src.Flush(); err != nil {
		t.Fatal(err)
	}
	waitTotal(t, workers, 1)
	if _, err := src.conns[0].Write([]byte{'X', 0, 0, 0, 0, 0, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	_ = src.Close()
	// Worker still answers queries afterwards.
	got, err := Query(addrs, 7, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("count after violation = %d", got)
	}
}

// TestWorkerBatchDispatchCoalescesAcks drives a worker over a raw
// credit session: a TupleBatch frame of n tuples must be absorbed as
// ONE frame (one HandleTupleBatch dispatch for batch-aware handlers)
// and acknowledged with ONE cumulative tuple-denominated Ack — not n
// of either. Acks still fire on the half-window cadence, so a small
// batch below the threshold stays silently absorbed until a later
// batch tips it over.
func TestWorkerBatchDispatchCoalescesAcks(t *testing.T) {
	h := NewCountHandler()
	w, err := ListenHandler("127.0.0.1:0", h)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	conn, err := net.Dial("tcp", w.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))

	readAck := func() wire.Ack {
		t.Helper()
		var hdr [wire.HeaderSize]byte
		if _, err := io.ReadFull(conn, hdr[:]); err != nil {
			t.Fatal(err)
		}
		kind, n, err := wire.ParseHeader(hdr)
		if err != nil {
			t.Fatal(err)
		}
		if kind != wire.KindAck {
			t.Fatalf("kind = %v, want ack", kind)
		}
		p := make([]byte, n)
		if _, err := io.ReadFull(conn, p); err != nil {
			t.Fatal(err)
		}
		a, err := wire.DecodeAck(p)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	batch := func(keys ...uint64) []byte {
		ts := make([]wire.Tuple, len(keys))
		for i, k := range keys {
			ts[i] = wire.Tuple{KeyHash: k}
		}
		f, err := wire.AppendTupleBatch(nil, ts)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}

	// Window 8 → the worker acks cumulatively once >4 tuples are unacked.
	buf := wire.AppendCredit(nil, wire.Credit{Window: 8})
	buf = append(buf, batch(1, 2, 3, 4, 5)...)
	if _, err := conn.Write(buf); err != nil {
		t.Fatal(err)
	}
	if a := readAck(); a.Count != 5 {
		t.Fatalf("ack after 5-tuple batch = %d, want cumulative 5", a.Count)
	}
	// 2 more tuples: below the half-window threshold, no ack yet; the
	// next batch must coalesce them into one cumulative count.
	if _, err := conn.Write(batch(6, 7)); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(batch(8, 9, 10)); err != nil {
		t.Fatal(err)
	}
	if a := readAck(); a.Count != 10 {
		t.Fatalf("ack after 2+3 tuples = %d, want cumulative 10", a.Count)
	}
	if err := w.WaitProcessed(10, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if got := w.Frames(); got != 3 {
		t.Fatalf("frames = %d, want 3 (one per batch)", got)
	}
	if got := w.Processed(); got != 10 {
		t.Fatalf("processed = %d tuples, want 10", got)
	}
	if got := h.Count(3); got != 1 {
		t.Fatalf("count(3) = %d, want 1", got)
	}
}

func BenchmarkSendOverLoopback(b *testing.B) {
	w, err := ListenWorker("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	src, err := DialSourceOpts([]string{w.Addr()}, SourceOptions{Mode: ModePKG, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer src.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := src.Send(uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
	if err := src.Flush(); err != nil {
		b.Fatal(err)
	}
}

func TestDistributedPointQueryProbesExactlyTheCandidates(t *testing.T) {
	// §VI.A: a point query under PKG probes only the key's d candidate
	// workers and sums their partial counts. With the unified routing
	// core the candidate set is a pure function of (key, seed, W), so
	// the test can independently recompute it, check the query touches
	// exactly those workers, and check every other worker holds nothing.
	const (
		nWorkers = 8
		d        = 3
		seed     = 77
		n        = 20_000
	)
	workers, addrs := startWorkers(t, nWorkers)
	src, err := DialSourceOpts(addrs, SourceOptions{Mode: ModePKG, Seed: seed, D: d})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()

	z := rng.NewZipf(rng.New(3), rng.SolveZipfExponent(500, 0.09), 500)
	truth := map[uint64]int64{}
	for i := 0; i < n; i++ {
		k := z.Next()
		truth[k]++
		if err := src.Send(k); err != nil {
			t.Fatal(err)
		}
	}
	if err := src.Flush(); err != nil {
		t.Fatal(err)
	}
	waitTotal(t, workers, n)

	// An independent party (the query router) recomputes the candidate
	// set from the shared core with nothing but the key and the seed.
	independent := route.NewPKG(nWorkers, d, seed, route.NewLoad(nWorkers))
	for k := uint64(1); k <= 40; k++ {
		cands := src.Candidates(k)
		if len(cands) != d {
			t.Fatalf("key %d: %d candidates, want %d", k, len(cands), d)
		}
		want := independent.Candidates(k)
		inSet := map[int]bool{}
		for i, c := range cands {
			if c != want[i] {
				t.Fatalf("key %d: source candidates %v != recomputed %v", k, cands, want)
			}
			if inSet[c] {
				t.Fatalf("key %d: duplicate candidate %d", k, c)
			}
			inSet[c] = true
		}
		// The d-probe query returns the exact global count...
		got, err := Query(addrs, k, cands)
		if err != nil {
			t.Fatal(err)
		}
		if got != truth[k] {
			t.Fatalf("key %d: distributed count %d, want %d", k, got, truth[k])
		}
		// ...because the candidate partial counts sum to it, and no
		// non-candidate worker holds any share of the key.
		var fromCands int64
		for w := range workers {
			c := workers[w].Count(k)
			if inSet[w] {
				fromCands += c
			} else if c != 0 {
				t.Fatalf("key %d: non-candidate worker %d holds count %d", k, w, c)
			}
		}
		if fromCands != truth[k] {
			t.Fatalf("key %d: candidate partial counts sum to %d, want %d", k, fromCands, truth[k])
		}
	}
}

func TestDialSourceDValidatesChoices(t *testing.T) {
	_, addrs := startWorkers(t, 3)
	// A negative D is an error, not a panic, and must not leak
	// connections (D = 0 selects the paper's two choices).
	if _, err := DialSourceOpts(addrs, SourceOptions{Mode: ModePKG, Seed: 1, D: -1}); err == nil {
		t.Fatal("DialSourceOpts with D=-1 did not error")
	}
	// d > W clamps to W so candidate sets stay duplicate-free and point
	// queries never sum one worker's partial count twice.
	src, err := DialSourceOpts(addrs, SourceOptions{Mode: ModePKG, Seed: 1, D: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	for k := uint64(0); k < 50; k++ {
		cands := src.Candidates(k)
		if len(cands) != len(addrs) {
			t.Fatalf("key %d: %d candidates, want clamp to %d", k, len(cands), len(addrs))
		}
		seen := map[int]bool{}
		for _, c := range cands {
			if seen[c] {
				t.Fatalf("key %d: duplicate candidate %d after clamping", k, c)
			}
			seen[c] = true
		}
	}
}
