package engine

// Benchmarks of the emit hot path: a wordcount-shaped topology (one
// spout streaming skewed word keys into a parallel counter bolt under
// partial key grouping) run at different batch sizes. BatchSize 1 is the
// tuple-at-a-time engine the seed shipped — one channel send and one
// clock read per tuple; BatchSize 64 is the default batched path. The
// ≥2× separation between the two is the acceptance bar for the batched
// runtime (results recorded in README "Benchmarks", record 1).

import (
	"fmt"
	"testing"
)

// cycleSpout emits n tuples, cycling through a precomputed key set so
// key generation stays off the measured path.
type cycleSpout struct {
	keys []string
	n    int
	i    int
}

func (s *cycleSpout) Open(*Context) {}
func (s *cycleSpout) Close()        {}
func (s *cycleSpout) Next(out Emitter) bool {
	if s.i >= s.n {
		return false
	}
	out.Emit(Tuple{Key: s.keys[s.i%len(s.keys)]})
	s.i++
	return true
}

func benchEmitPath(b *testing.B, batchSize, workers int) {
	keys := zipfKeys(4096, 7)
	n := b.N
	builder := NewBuilder("bench", 1)
	builder.AddSpout("src", func() Spout { return &cycleSpout{keys: keys, n: n} }, 1)
	builder.AddBolt("count", func() Bolt { return BoltFunc(func(Tuple, Emitter) {}) }, workers).
		Input("src", Partial())
	top, err := builder.Build()
	if err != nil {
		b.Fatal(err)
	}
	rt := NewRuntime(top, Options{QueueSize: 4096, BatchSize: batchSize})
	b.ReportAllocs()
	b.ResetTimer()
	if err := rt.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(n)/b.Elapsed().Seconds(), "tuples/s")
}

func BenchmarkEmitPath(b *testing.B) {
	for _, bs := range []int{1, 64} {
		for _, w := range []int{4, 9} {
			b.Run(fmt.Sprintf("batch=%d/workers=%d", bs, w), func(b *testing.B) {
				benchEmitPath(b, bs, w)
			})
		}
	}
}
