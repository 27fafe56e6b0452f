package transport

import (
	"testing"

	"pkgstream/internal/rng"
)

// sendSkewed streams n keys: key 1 with probability p, the rest uniform
// over [2, 2+tail).
func sendSkewed(t *testing.T, src *Source, n int, p float64, tail uint64, seed uint64) {
	t.Helper()
	r := rng.NewStream(seed, 0)
	for i := 0; i < n; i++ {
		key := uint64(1)
		if r.Float64() >= p {
			key = 2 + r.Uint64()%tail
		}
		if err := src.Send(key); err != nil {
			t.Fatal(err)
		}
	}
	if err := src.Flush(); err != nil {
		t.Fatal(err)
	}
}

// TestDChoicesSpreadsHotKeyOverTCP runs the frequency-aware source
// against real workers: the hot key must land on more than two workers,
// and — because candidate sets only ever widen — a point query over the
// key's current candidates must still see its *entire* count.
func TestDChoicesSpreadsHotKeyOverTCP(t *testing.T) {
	const n, w = 30_000, 12
	workers, addrs := startWorkers(t, w)
	src, err := DialSourceOpts(addrs, SourceOptions{Mode: ModeDChoices, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	sendSkewed(t, src, n, 0.5, 2_000, 9)
	waitTotal(t, workers, n)

	cands := src.Candidates(1)
	if len(cands) <= 2 {
		t.Fatalf("hot key candidates %v not widened beyond 2", cands)
	}
	// The widened set must cover every worker holding a partial count:
	// early (pre-classification) messages went to the PKG-2 pair, which
	// widening keeps (nested candidates).
	var onCands, everywhere int64
	holders := 0
	for i, wk := range workers {
		c := wk.Count(1)
		everywhere += c
		if c > 0 {
			holders++
		}
		for _, cand := range cands {
			if cand == i {
				onCands += c
				break
			}
		}
	}
	if holders <= 2 {
		t.Fatalf("hot key held by %d workers, want > 2", holders)
	}
	if onCands != everywhere {
		t.Fatalf("candidates hold %d of the hot key's %d count", onCands, everywhere)
	}
	got, err := Query(addrs, 1, cands)
	if err != nil {
		t.Fatal(err)
	}
	if got != everywhere {
		t.Fatalf("point query over %d candidates = %d, want %d", len(cands), got, everywhere)
	}

	// The local view matches what the workers absorbed.
	var viewTotal int64
	for _, l := range src.LocalLoads() {
		viewTotal += l
	}
	if viewTotal != n {
		t.Fatalf("local view total %d, want %d", viewTotal, n)
	}
}

// TestWChoicesHeadUsesAllWorkersOverTCP checks the W-Choices probe set
// and spread: the head key reaches every worker and its query must
// cover all of them.
func TestWChoicesHeadUsesAllWorkersOverTCP(t *testing.T) {
	const n, w = 20_000, 8
	workers, addrs := startWorkers(t, w)
	src, err := DialSourceOpts(addrs, SourceOptions{Mode: ModeWChoices, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	sendSkewed(t, src, n, 0.6, 1_000, 3)
	waitTotal(t, workers, n)

	cands := src.Candidates(1)
	if len(cands) != w {
		t.Fatalf("head key candidates %v, want all %d workers", cands, w)
	}
	var total int64
	spread := 0
	for _, wk := range workers {
		if c := wk.Count(1); c > 0 {
			spread++
			total += c
		}
	}
	if spread != w {
		t.Fatalf("head key reached %d of %d workers", spread, w)
	}
	got, err := Query(addrs, 1, cands)
	if err != nil {
		t.Fatal(err)
	}
	if got != total {
		t.Fatalf("query = %d, want %d", got, total)
	}
	// A cold tail key keeps the two-candidate probe set.
	cold := src.Candidates(999_999_999)
	if len(cold) != 2 {
		t.Fatalf("cold key candidates %v, want 2", cold)
	}
}
