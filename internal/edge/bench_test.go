package edge

import (
	"fmt"
	"testing"
	"time"

	"pkgstream/internal/transport"
	"pkgstream/internal/wire"
)

// BenchmarkWireEdgeThroughput measures the credit-flow-controlled tuple
// edge over TCP loopback: every tuple crosses the full stack (encode,
// bufio, kernel, decode, handler) AND the credit accounting, so the
// number is the honest ceiling for the spout→remote-partial hop — the
// companion to BenchmarkEmitPath's in-process edge (recorded together
// in README "Benchmarks", record 6). The batched variant ships KindTupleBatch frames
// (one header, one credit debit, one coalesced ack per batch); the
// unbatched variant pins the pre-batch per-tuple frame cost.
func BenchmarkWireEdgeThroughput(b *testing.B) {
	for _, bc := range []struct {
		name  string
		batch int
	}{
		// 512-tuple batches: deeper than the production default (256,
		// chosen for latency) to measure the throughput ceiling the
		// frame format allows.
		{name: "batched", batch: 512},
		{name: "unbatched", batch: 1},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var addrs []string
			var ws []*transport.Worker
			for i := 0; i < 2; i++ {
				w, err := transport.ListenWorker("127.0.0.1:0")
				if err != nil {
					b.Fatal(err)
				}
				defer w.Close()
				ws = append(ws, w)
				addrs = append(addrs, w.Addr())
			}
			e, err := DialWire(addrs, WireOptions{
				Seed: 9, Window: 16384, MaxBatchTuples: bc.batch,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer e.Close()

			keys := make([]uint64, 4096)
			for i := range keys {
				keys[i] = uint64(i+1) * 0x9e3779b97f4a7c15
			}
			b.ReportAllocs()
			b.ResetTimer()
			tup := wire.Tuple{}
			for i := 0; i < b.N; i++ {
				tup.KeyHash = keys[i%len(keys)]
				if err := e.SendTuple(&tup); err != nil {
					b.Fatal(err)
				}
			}
			if err := e.Flush(); err != nil {
				b.Fatal(err)
			}
			if err := waitTotal(ws, int64(b.N), time.Minute); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "tuples/s")
			b.ReportMetric(float64(e.Stats().Stalls), "stalls")
		})
	}
}

func waitTotal(ws []*transport.Worker, n int64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		var sum int64
		for _, w := range ws {
			sum += w.Processed()
		}
		if sum >= n {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("edge: workers absorbed %d/%d tuples in time", sum, n)
		}
		time.Sleep(time.Millisecond)
	}
}
