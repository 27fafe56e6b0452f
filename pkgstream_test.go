package pkgstream_test

import (
	"testing"

	"pkgstream"
)

// These tests exercise the public facade exactly as a downstream user
// would, mirroring the README quick start.

func TestQuickStartPartitioner(t *testing.T) {
	const workers = 10
	view := pkgstream.NewLoad(workers)
	p := pkgstream.NewPKG(workers, 2, 42, view)

	spec := pkgstream.Wikipedia.WithCap(50_000)
	s := spec.Open(1)
	truth := pkgstream.NewLoad(workers)
	for {
		m, ok := s.Next()
		if !ok {
			break
		}
		w := p.Route(m.Key)
		view.Add(w)
		truth.Add(w)
	}
	if truth.Total() != spec.Messages {
		t.Fatalf("routed %d messages, want %d", truth.Total(), spec.Messages)
	}
	if f := truth.ImbalanceFraction(); f > 1e-3 {
		t.Fatalf("PKG imbalance fraction %v on WP at W=10; want near-perfect", f)
	}

	// Hashing on the same stream is orders worse.
	kg := pkgstream.NewKeyGrouping(workers, 42)
	kgLoad := pkgstream.NewLoad(workers)
	s = spec.Open(1)
	for {
		m, ok := s.Next()
		if !ok {
			break
		}
		kgLoad.Add(kg.Route(m.Key))
	}
	if kgLoad.ImbalanceFraction() < 10*truth.ImbalanceFraction() {
		t.Fatalf("KG fraction %v not ≫ PKG %v",
			kgLoad.ImbalanceFraction(), truth.ImbalanceFraction())
	}
}

func TestFacadeSimulate(t *testing.T) {
	res := pkgstream.Simulate(pkgstream.Cashtags.WithCap(60_000), pkgstream.SimOptions{
		Workers: 8, Sources: 5,
		Method: pkgstream.SimPKG, Info: pkgstream.InfoLocal,
		Seed: 7,
	})
	if res.Messages != 60_000 {
		t.Fatalf("Messages = %d", res.Messages)
	}
	if res.Label != "L5" {
		t.Fatalf("Label = %q", res.Label)
	}
}

func TestFacadeEngineTopology(t *testing.T) {
	top, out, err := pkgstream.BuildWordCount(pkgstream.WordCountConfig{
		Words: 5000, Vocab: 500, P1: 0.1,
		Sources: 2, Workers: 4, FlushEvery: 250, K: 5,
		Grouping: pkgstream.WordCountPKG, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	rt := pkgstream.NewRuntime(top, pkgstream.RuntimeOptions{QueueSize: 128})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if out.TotalWords != 10_000 {
		t.Fatalf("TotalWords = %d", out.TotalWords)
	}
	if len(out.Top) != 5 || out.Top[0].Word != "w1" {
		t.Fatalf("Top = %+v", out.Top)
	}
}

func TestFacadeCustomTopology(t *testing.T) {
	b := pkgstream.NewTopologyBuilder("custom", 1)
	b.AddSpout("src", func() pkgstream.Spout { return &countSpout{n: 1000} }, 1)
	var executed int64
	b.AddBolt("sink", func() pkgstream.Bolt {
		return pkgstream.BoltFunc(func(tu pkgstream.Tuple, _ pkgstream.Emitter) {
			executed++ // single instance: no race
		})
	}, 1).Input("src", pkgstream.GroupPartial())
	top, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := pkgstream.NewRuntime(top, pkgstream.RuntimeOptions{}).Run(); err != nil {
		t.Fatal(err)
	}
	if executed != 1000 {
		t.Fatalf("executed %d", executed)
	}
}

type countSpout struct{ n, i int }

func (s *countSpout) Open(*pkgstream.Context) {}
func (s *countSpout) Close()                  {}
func (s *countSpout) Next(out pkgstream.Emitter) bool {
	if s.i >= s.n {
		return false
	}
	out.Emit(pkgstream.Tuple{Key: "k"})
	s.i++
	return true
}

func TestFacadeHeavyHitters(t *testing.T) {
	hh := pkgstream.NewHeavyHitters(5, 64, pkgstream.HHByPKG, 9)
	spec := pkgstream.Synthetic2.WithCap(30_000)
	s := spec.Open(2)
	for {
		m, ok := s.Next()
		if !ok {
			break
		}
		hh.Update(m.Key)
	}
	top := hh.TopK(64, 3)
	if len(top) != 3 {
		t.Fatalf("TopK = %d entries", len(top))
	}
	if hh.ProbeCount(top[0].Item) > 2 {
		t.Fatal("PKG heavy hitters should probe ≤ 2 workers")
	}
}

func TestFacadeMeasureAndDatasets(t *testing.T) {
	st := pkgstream.MeasureStream(pkgstream.Cashtags.WithCap(40_000).Open(1), 0)
	if st.Messages != 40_000 || st.P1 <= 0 {
		t.Fatalf("stats = %+v", st)
	}
	if _, err := pkgstream.DatasetBySymbol("WP"); err != nil {
		t.Fatal(err)
	}
	if got := len(pkgstream.Datasets()); got != 8 {
		t.Fatalf("Datasets() = %d", got)
	}
}
