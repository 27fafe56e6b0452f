package edge

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pkgstream/internal/route"
	"pkgstream/internal/transport"
	"pkgstream/internal/wire"
)

func TestLocalEdgeDelivery(t *testing.T) {
	e := NewLocal[int](2, 4)
	if e.Instances() != 2 {
		t.Fatalf("instances = %d", e.Instances())
	}
	if err := e.Send(0, []int{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := e.Send(1, []int{3}); err != nil {
		t.Fatal(err)
	}
	if err := e.Watermark(0, 99); err != nil {
		t.Fatal(err) // in-band: no-op, never an error
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e.CloseRecv()
	var got []int
	for b := range e.Recv(0) {
		got = append(got, b...)
	}
	for b := range e.Recv(1) {
		got = append(got, b...)
	}
	if len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Fatalf("received %v", got)
	}
}

func TestLocalEdgeSendUnlessDone(t *testing.T) {
	e := NewLocal[int](1, 1)
	done := make(chan struct{})
	if !e.SendUnlessDone(0, []int{1}, done) {
		t.Fatal("send into empty queue abandoned")
	}
	// The queue is full; a closed done channel must win the race.
	close(done)
	if e.SendUnlessDone(0, []int{2}, done) {
		t.Fatal("send into full queue delivered after done")
	}
}

// gatedHandler blocks every tuple on the gate — the deliberately slowed
// worker of the credit-stall regression test. It implements only the
// base Handler (no HandleTupleBatch), so the worker unrolls batch
// frames into per-tuple calls and the gate still bites tuple by tuple.
type gatedHandler struct {
	gate    chan struct{}
	handled atomic.Int64
}

func (h *gatedHandler) HandleTuple(*wire.Tuple) {
	<-h.gate
	h.handled.Add(1)
}
func (h *gatedHandler) HandlePartial(*wire.Partial)         {}
func (h *gatedHandler) HandleMark(wire.Mark)                {}
func (h *gatedHandler) HandleQuery(q wire.Query) wire.Reply { return wire.Reply{Op: q.Op} }

// TestWireEdgeCreditStall is the flow-control regression gate: a slowed
// worker must stall the sender at exactly Window in-flight TUPLES —
// bounded buffering, no drops — and everything must drain once the
// worker resumes. The unbatched subtest pins the pre-batch per-frame
// semantics; the batched subtest uses a batch size that does not
// divide the window, so the boundary lands mid-batch and the edge must
// split the batch into sub-frames rather than overshoot by even one
// tuple.
func TestWireEdgeCreditStall(t *testing.T) {
	for _, tc := range []struct {
		name       string
		batch      int
		wantFrames int64 // frames sent at the stall point
	}{
		// 8 per-tuple frames in flight at the stall.
		{name: "unbatched", batch: 1, wantFrames: 8},
		// Batches of 3: two full frames (6 tuples), then the third
		// batch straddles the window and ships a 2-tuple sub-frame.
		{name: "batched-straddle", batch: 3, wantFrames: 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const window, total = 8, 100
			h := &gatedHandler{gate: make(chan struct{})}
			w, err := transport.ListenHandler("127.0.0.1:0", h)
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()

			e, err := DialWire([]string{w.Addr()}, WireOptions{
				Seed: 7, Window: window, MaxBatchTuples: tc.batch,
			})
			if err != nil {
				t.Fatal(err)
			}

			sendErr := make(chan error, 1)
			go func() {
				tup := wire.Tuple{}
				for i := 0; i < total; i++ {
					tup.KeyHash = uint64(i + 1)
					if err := e.SendTuple(&tup); err != nil {
						sendErr <- err
						return
					}
				}
				sendErr <- e.Flush()
			}()

			// The sender must reach the window and then stall there: with
			// the worker gated, not one tuple beyond the window may leave.
			deadline := time.Now().Add(5 * time.Second)
			for e.SentTuples() < window {
				if time.Now().After(deadline) {
					t.Fatalf("sender reached only %d/%d tuples", e.SentTuples(), window)
				}
				time.Sleep(time.Millisecond)
			}
			time.Sleep(100 * time.Millisecond)
			if got := e.SentTuples(); got != window {
				t.Fatalf("gated worker: %d tuples in flight, want exactly the window %d", got, window)
			}
			if got := e.Sent(); got != tc.wantFrames {
				t.Fatalf("gated worker: %d frames sent, want %d", got, tc.wantFrames)
			}
			select {
			case err := <-sendErr:
				t.Fatalf("sender finished while the worker was gated: %v", err)
			default:
			}

			// Resume the worker: credits replenish and everything drains.
			close(h.gate)
			if err := <-sendErr; err != nil {
				t.Fatal(err)
			}
			if err := e.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := w.WaitProcessed(total, 5*time.Second); err != nil {
				t.Fatal(err)
			}
			st := e.Stats()
			if st.Stalls == 0 {
				t.Fatal("no stalls recorded — the send path never saw backpressure")
			}
			if st.Tuples != total {
				t.Fatalf("tuples = %d, want %d", st.Tuples, total)
			}
			if tc.batch == 1 && st.Frames != total {
				t.Fatalf("unbatched frames = %d, want %d", st.Frames, total)
			}
			if tc.batch > 1 && st.Frames >= st.Tuples {
				t.Fatalf("batched run shipped %d frames for %d tuples — no batching happened", st.Frames, st.Tuples)
			}
			if st.Failures != 0 || st.Retries != 0 {
				t.Fatalf("unexpected retries/failures: %+v", st)
			}
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// seqRecorder records the KeyHash arrival order. While gated, tuples
// block; closing abort makes blocked (and subsequent) tuples drop
// unrecorded — a worker that dies mid-batch without absorbing what was
// in flight.
type seqRecorder struct {
	gate  chan struct{} // nil: record immediately
	abort chan struct{}

	mu  sync.Mutex
	seq []uint64
}

func (h *seqRecorder) HandleTuple(t *wire.Tuple) {
	if h.gate != nil {
		select {
		case <-h.gate:
		case <-h.abort:
			return
		}
	}
	h.mu.Lock()
	h.seq = append(h.seq, t.KeyHash)
	h.mu.Unlock()
}
func (h *seqRecorder) HandlePartial(*wire.Partial)         {}
func (h *seqRecorder) HandleMark(wire.Mark)                {}
func (h *seqRecorder) HandleQuery(q wire.Query) wire.Reply { return wire.Reply{Op: q.Op} }

func (h *seqRecorder) snapshot() []uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]uint64(nil), h.seq...)
}

// TestWireEdgeBatchFIFOAcrossRedial: the sender stalls mid-batch on a
// gated worker, the worker dies, and a replacement comes up on the
// same address. The edge must redial, resend the pending sub-frame,
// and finish the stream — with the replacement observing a strictly
// increasing key sequence (per-destination FIFO holds across the
// stall/redial even though the batch was split around it).
func TestWireEdgeBatchFIFOAcrossRedial(t *testing.T) {
	const window, batch, total = 8, 3, 50
	h1 := &seqRecorder{gate: make(chan struct{}), abort: make(chan struct{})}
	w1, err := transport.ListenHandler("127.0.0.1:0", h1)
	if err != nil {
		t.Fatal(err)
	}
	addr := w1.Addr()
	e, err := DialWire([]string{addr}, WireOptions{
		Seed: 5, Window: window, MaxBatchTuples: batch,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	sendErr := make(chan error, 1)
	go func() {
		tup := wire.Tuple{}
		for i := 1; i <= total; i++ {
			tup.KeyHash = uint64(i)
			if err := e.SendTuple(&tup); err != nil {
				sendErr <- err
				return
			}
		}
		sendErr <- e.Flush()
	}()

	// Wait for the mid-batch stall: 3+3 tuples in two full frames, then
	// a 2-tuple sub-frame exhausts the window with one tuple pending.
	deadline := time.Now().Add(5 * time.Second)
	for e.SentTuples() < window {
		if time.Now().After(deadline) {
			t.Fatalf("sender reached only %d/%d tuples", e.SentTuples(), window)
		}
		time.Sleep(time.Millisecond)
	}

	// Kill the gated worker mid-batch and bring an ungated replacement
	// up on the address. The connection drops first and the gate opens
	// only once the sender has noticed: opened earlier, the dying worker
	// would absorb and ack the rest of the stream before its sockets
	// close, and nothing would be left to redial for.
	closed := make(chan error, 1)
	go func() { closed <- w1.Close() }()
	for e.Stats().Retries == 0 {
		if time.Now().After(deadline) {
			t.Fatal("sender never noticed the dropped connection")
		}
		time.Sleep(100 * time.Microsecond)
	}
	close(h1.abort) // the blocked tuples drop unrecorded
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	h2 := &seqRecorder{}
	w2, err := transport.ListenHandler(addr, h2)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()

	if err := <-sendErr; err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	// The stream's tail must land on the replacement, in order.
	deadline = time.Now().Add(10 * time.Second)
	for {
		seq := h2.snapshot()
		if len(seq) > 0 && seq[len(seq)-1] == total {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replacement saw %v, never the final tuple (edge stats %+v)", seq, e.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	seq := h2.snapshot()
	for i := 1; i < len(seq); i++ {
		if seq[i] <= seq[i-1] {
			t.Fatalf("FIFO violated across redial: %v", seq)
		}
	}
	if st := e.Stats(); st.Retries == 0 {
		t.Fatalf("no retries recorded across the restart: %+v", st)
	}
}

// TestWireFlushCloseNilConnGuard: a nil connection slot (a redial in
// flight, or a connect failure left mid-dial) must not panic Flush —
// the guard Close always had — and a send toward the empty slot
// redials instead of dereferencing it.
func TestWireFlushCloseNilConnGuard(t *testing.T) {
	w, err := transport.ListenWorker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	e, err := DialWire([]string{w.Addr()}, WireOptions{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	e.cs[0].conn.Close()
	e.cs[0] = nil
	if err := e.Flush(); err != nil {
		t.Fatalf("flush with a nil slot: %v", err)
	}
	if err := e.SendTuple(&wire.Tuple{KeyHash: 3}); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		t.Fatalf("flush after redial: %v", err)
	}
	if err := w.WaitProcessed(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	e.cs[0] = nil // leave the slot empty again: Close must skip it
	if err := e.Close(); err != nil {
		t.Fatalf("close with a nil slot: %v", err)
	}
}

// TestWireEdgeRoutesWithinProbeSet: tuples land only on their candidate
// nodes, and the probe set the edge reports covers them — the property
// distributed point queries rely on.
func TestWireEdgeRoutesWithinProbeSet(t *testing.T) {
	var ws []*transport.Worker
	var addrs []string
	for i := 0; i < 4; i++ {
		w, err := transport.ListenWorker("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		ws = append(ws, w)
		addrs = append(addrs, w.Addr())
	}
	e, err := DialWire(addrs, WireOptions{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	const perKey, keys = 50, 20
	tup := wire.Tuple{}
	for k := 1; k <= keys; k++ {
		for i := 0; i < perKey; i++ {
			tup.KeyHash = uint64(k) * 0x9e3779b97f4a7c15
			if err := e.SendTuple(&tup); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	total := int64(perKey * keys)
	deadline := time.Now().Add(5 * time.Second)
	for {
		var sum int64
		for _, w := range ws {
			sum += w.Processed()
		}
		if sum >= total {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("workers absorbed %d/%d", sum, total)
		}
		time.Sleep(time.Millisecond)
	}
	for k := 1; k <= keys; k++ {
		key := uint64(k) * 0x9e3779b97f4a7c15
		cands := e.Candidates(key)
		if len(cands) != 2 {
			t.Fatalf("key %d: %d candidates under PKG, want 2", k, len(cands))
		}
		inSet := map[int]bool{}
		for _, c := range cands {
			inSet[c] = true
		}
		var covered int64
		for i, w := range ws {
			if c := w.Count(key); c > 0 {
				if !inSet[i] {
					t.Fatalf("key %d: %d tuples on node %d outside probe set %v", k, c, i, cands)
				}
				covered += c
			}
		}
		if covered != perKey {
			t.Fatalf("key %d: probe set covers %d/%d tuples", k, covered, perKey)
		}
	}
	if ll := e.LocalLoads(); len(ll) != 4 {
		t.Fatalf("local loads = %v", ll)
	}
}

// TestWireEdgeReconnects: a vanished node is redialed with backoff and
// the edge keeps delivering — the first slice of node-failure handling.
func TestWireEdgeReconnects(t *testing.T) {
	w, err := transport.ListenWorker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := w.Addr()
	e, err := DialWire([]string{addr}, WireOptions{Seed: 3, Window: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	tup := wire.Tuple{KeyHash: 11}
	for i := 0; i < 5; i++ {
		if err := e.SendTuple(&tup); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := w.WaitProcessed(5, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	// Kill the node, then bring a fresh one up on the same address.
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2, err := transport.ListenWorker(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()

	// A watermark broadcast straddling the restart rides the redial
	// path too — marks are re-deliverable promises, and a restart
	// landing between two marks must not kill the edge.
	if err := e.Watermark(0, 100); err != nil {
		t.Fatalf("watermark across restart: %v", err)
	}

	// Sends ride the redial path (the reader marked the connection
	// broken); everything sent after the restart must reach the new
	// node.
	deadline := time.Now().Add(10 * time.Second)
	sent := int64(0)
	for w2.Processed() < 5 {
		if time.Now().After(deadline) {
			t.Fatalf("replacement node absorbed %d frames (edge stats %+v)", w2.Processed(), e.Stats())
		}
		if err := e.SendTuple(&tup); err != nil {
			t.Fatal(err)
		}
		sent++
		if err := e.Flush(); err != nil {
			// A flush straddling the crash may fail once; the next
			// SendTuple redials.
			continue
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st := e.Stats(); st.Retries == 0 {
		t.Fatalf("no retries recorded across a node restart: %+v", st)
	}
}

// TestWireEdgeWatermarkOrdering: a watermark broadcast flushes the data
// it covers first, so the receiver never sees the promise before the
// tuples.
func TestWireEdgeWatermarkOrdering(t *testing.T) {
	h := transport.NewCountHandler()
	rec := &recordingHandler{inner: h, markAt: -1}
	w, err := transport.ListenHandler("127.0.0.1:0", rec)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	e, err := DialWire([]string{w.Addr()}, WireOptions{Seed: 1, ModeSet: true, Mode: route.StrategyKG})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	tup := wire.Tuple{KeyHash: 5, EmitNanos: 10}
	for i := 0; i < 3; i++ {
		if err := e.SendTuple(&tup); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Watermark(0, 10); err != nil {
		t.Fatal(err)
	}
	// Wait for the mark itself: the tuples' processed count can reach 3
	// before the worker has handled the mark queued behind them.
	deadline := time.Now().Add(5 * time.Second)
	for !rec.marked() {
		if time.Now().After(deadline) {
			t.Fatal("no mark within 5s")
		}
		time.Sleep(time.Millisecond)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if rec.markAt != 3 {
		t.Fatalf("mark arrived after %d tuples, want 3", rec.markAt)
	}
	if st := e.Stats(); st.Marks != 1 {
		t.Fatalf("marks = %d", st.Marks)
	}
}

// recordingHandler notes how many tuples it had seen when a mark
// arrived (markAt; start it at -1, "no mark yet").
type recordingHandler struct {
	inner  transport.Handler
	mu     sync.Mutex
	seen   int
	markAt int
}

func (r *recordingHandler) HandleTuple(t *wire.Tuple) {
	r.mu.Lock()
	r.seen++
	r.mu.Unlock()
	r.inner.HandleTuple(t)
}
func (r *recordingHandler) HandlePartial(p *wire.Partial) { r.inner.HandlePartial(p) }
func (r *recordingHandler) marked() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.markAt >= 0
}
func (r *recordingHandler) HandleMark(m wire.Mark) {
	r.mu.Lock()
	r.markAt = r.seen
	r.mu.Unlock()
	r.inner.HandleMark(m)
}
func (r *recordingHandler) HandleQuery(q wire.Query) wire.Reply { return r.inner.HandleQuery(q) }

// lateAckWorker serves one connection the way a busy transport.Worker
// does: it has read only the head of the stream when the sender is
// already done, so its acks go out after the sender called Close — and,
// like the real worker, it gives the connection up, unread frames and
// all, when an ack cannot be written. It returns the tuples it absorbed
// and whether it saw the final mark.
func lateAckWorker(conn net.Conn) (tuples int, final bool, err error) {
	defer conn.Close()
	r := bufio.NewReaderSize(conn, 64)
	var buf []byte
	for {
		kind, p, rerr := wire.ReadFrame(r, buf)
		if rerr == io.EOF {
			return tuples, final, nil
		}
		if rerr != nil {
			return tuples, final, rerr
		}
		buf = p
		switch kind {
		case wire.KindTuple:
			tuples++
			if tuples == 1 {
				time.Sleep(2 * time.Millisecond) // the sender finishes and closes
			}
			if tuples%8 == 1 {
				// The first of these lands on the sender's socket after its
				// Close; had that socket been closed outright, the reset it
				// draws fails the next one.
				ack := wire.AppendAck(nil, wire.Ack{Count: int64(tuples)})
				if _, werr := conn.Write(ack); werr != nil {
					return tuples, final, fmt.Errorf("ack after %d tuples: %w", tuples, werr)
				}
				time.Sleep(200 * time.Microsecond)
			}
		case wire.KindMark:
			m, derr := wire.DecodeMark(p)
			if derr != nil {
				return tuples, final, derr
			}
			final = final || m.Final()
		}
	}
}

// TestWireCloseDeliversTail: Close must not cost the stream its tail.
// Every cycle dials a worker whose acks run late, sends a short stream
// and the final mark, and closes at once; the worker must still see
// every tuple and the mark. Closing the socket with acks outstanding
// fails this: the late ack draws a reset and the node loses what it had
// not read.
func TestWireCloseDeliversTail(t *testing.T) {
	const cycles, tuples = 200, 40
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	type outcome struct {
		tuples int
		final  bool
		err    error
	}
	served := make(chan outcome, 1)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed: the test is over
			}
			n, final, err := lateAckWorker(conn)
			served <- outcome{n, final, err}
		}
	}()
	for c := 0; c < cycles; c++ {
		e, err := DialWire([]string{ln.Addr().String()}, WireOptions{Seed: 1, MaxBatchTuples: 1})
		if err != nil {
			t.Fatal(err)
		}
		tup := wire.Tuple{Key: "tail"}
		for i := 0; i < tuples; i++ {
			tup.KeyHash = uint64(i + 1)
			if err := e.SendTuple(&tup); err != nil {
				t.Fatalf("cycle %d: send: %v", c, err)
			}
		}
		if err := e.Watermark(0, math.MaxInt64); err != nil {
			t.Fatalf("cycle %d: final mark: %v", c, err)
		}
		if err := e.Close(); err != nil {
			t.Fatalf("cycle %d: close: %v", c, err)
		}
		select {
		case got := <-served:
			if got.err != nil || got.tuples != tuples || !got.final {
				t.Fatalf("cycle %d: worker saw %d/%d tuples, final mark %v, err %v",
					c, got.tuples, tuples, got.final, got.err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("cycle %d: worker never reached the end of the stream", c)
		}
	}
}
