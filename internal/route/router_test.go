package route

import (
	"testing"
	"testing/quick"

	"pkgstream/internal/metrics"
	"pkgstream/internal/rng"
)

func TestKeyGroupingDeterministicAndInRange(t *testing.T) {
	g := NewKeyGrouping(7, 42)
	if g.Workers() != 7 || g.Name() != "KG" {
		t.Fatal("metadata wrong")
	}
	f := func(key uint64) bool {
		w := g.Route(key)
		return w >= 0 && w < 7 && g.Route(key) == w
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestKeyGroupingSeedSensitivity(t *testing.T) {
	a := NewKeyGrouping(100, 1)
	b := NewKeyGrouping(100, 2)
	same := 0
	for k := uint64(0); k < 1000; k++ {
		if a.Route(k) == b.Route(k) {
			same++
		}
	}
	// Two independent hashes agree with probability 1/W = 1%.
	if same > 60 {
		t.Fatalf("different seeds agreed on %d/1000 keys", same)
	}
}

func TestKeyGroupingUniformOverKeys(t *testing.T) {
	// Hashing distinct keys should populate every worker.
	g := NewKeyGrouping(10, 3)
	loads := metrics.NewLoad(10)
	for k := uint64(0); k < 10000; k++ {
		loads.Add(g.Route(k))
	}
	if loads.Used() != 10 {
		t.Fatalf("only %d/10 workers used", loads.Used())
	}
	if f := loads.ImbalanceFraction(); f > 0.01 {
		t.Errorf("hashing distinct keys should be near-uniform, imbalance fraction %v", f)
	}
}

func TestShuffleGroupingRoundRobin(t *testing.T) {
	g := NewShuffleGrouping(4, 0)
	want := []int{0, 1, 2, 3, 0, 1, 2, 3}
	for i, w := range want {
		if got := g.Route(uint64(i * 7)); got != w {
			t.Fatalf("step %d: got %d, want %d", i, got, w)
		}
	}
}

func TestShuffleGroupingImbalanceAtMostOne(t *testing.T) {
	g := NewShuffleGrouping(9, 5)
	loads := metrics.NewLoad(9)
	src := rng.New(1)
	for i := 0; i < 10000; i++ {
		loads.Add(g.Route(src.Uint64()))
	}
	if imb := loads.Imbalance(); imb > 1 {
		t.Fatalf("shuffle imbalance = %v, want ≤ 1", imb)
	}
}

func TestShuffleGroupingStartOffset(t *testing.T) {
	a := NewShuffleGrouping(5, 0)
	b := NewShuffleGrouping(5, 2)
	if a.Route(0) != 0 || b.Route(0) != 2 {
		t.Fatal("start offsets not honored")
	}
	c := NewShuffleGrouping(5, -3) // negative offsets are normalized
	if w := c.Route(0); w < 0 || w >= 5 {
		t.Fatalf("negative start produced worker %d", w)
	}
}

func TestConstructorPanics(t *testing.T) {
	view := metrics.NewLoad(4)
	cases := map[string]func(){
		"KG w=0":            func() { NewKeyGrouping(0, 1) },
		"SG w=0":            func() { NewShuffleGrouping(0, 0) },
		"PKG w=0":           func() { NewPKG(0, 2, 1, view) },
		"PKG nil view":      func() { NewPKG(4, 2, 1, nil) },
		"PKG view mismatch": func() { NewPKG(5, 2, 1, view) },
		"PKG d=0":           func() { NewPKG(4, 0, 1, view) },
		"PoTC w=0":          func() { NewPoTC(0, 1, view) },
		"PoTC mismatch":     func() { NewPoTC(5, 1, view) },
		"OnGreedy w=0":      func() { NewOnGreedy(0, view) },
		"OffGreedy w=0":     func() { NewOffGreedy(0, 1, nil) },
	}
	for name, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}
