package edge

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"pkgstream/internal/hotkey"
	"pkgstream/internal/metrics"
	"pkgstream/internal/route"
	"pkgstream/internal/trace"
	"pkgstream/internal/wire"
)

// WireOptions parameterizes DialWire. The zero value of every field
// except Seed picks sensible defaults (PKG routing, the paper's two
// choices, a 1024-tuple credit window, 256-tuple batches).
type WireOptions struct {
	// Mode is the routing strategy over the destination nodes. The zero
	// value selects PKG (StrategyKG is never a useful default for a
	// tuple edge; ask for it explicitly via ModeSet).
	Mode route.Strategy
	// ModeSet forces Mode to be honored verbatim, so StrategyKG (whose
	// value is 0, indistinguishable from "unset") is reachable.
	ModeSet bool
	// Seed derives the candidate hash functions; it must match across
	// every sender of one stream.
	Seed uint64
	// Start decorrelates shuffle round-robins of parallel senders.
	Start int
	// D is the candidate count for PKG (0: the paper's 2) and the
	// fixed hot width for D-Choices.
	D int
	// Hot carries the hot-key classification knobs for the
	// frequency-aware modes.
	Hot hotkey.Config
	// Window is the credit window per connection: the maximum number
	// of unacknowledged TUPLES kept in flight (default 1024) — tuples,
	// not frames, so batching never changes how much data a slow
	// worker admits. Reaching it stalls Send until the worker's
	// cumulative Ack catches up — remote backpressure with bounded
	// buffering.
	Window int
	// MaxBatchTuples caps how many tuples accumulate per destination
	// before they ship as one wire.KindTupleBatch frame (default 256,
	// clamped to Window). 1 disables batching: every tuple ships as
	// its own KindTuple frame, the pre-batch path.
	MaxBatchTuples int
	// MaxBatchBytes caps the encoded bytes accumulated per batch
	// (default 32 KiB) — bounds worst-case batch latency and memory
	// for large tuples regardless of MaxBatchTuples.
	MaxBatchBytes int
	// Linger, when positive, runs a background flusher that ships any
	// partially filled batch (and the connection's buffered bytes) at
	// this interval, bounding how long a trickling stream can strand
	// tuples in a batch buffer. 0 keeps the edge a strictly
	// single-goroutine object: batches ship only when full or on
	// Flush/Watermark/Close.
	Linger time.Duration
	// DialTimeout bounds each connection attempt (default 5s).
	DialTimeout time.Duration
	// AdaptiveWindow turns the static per-connection credit window into
	// an AIMD feedback loop (see aimd): the window grows additively
	// while credit-wait stays near zero and the worker's measured
	// service time leaves drain headroom, and halves on sustained
	// stalls or drain-budget overruns. Window changes cross the wire as
	// mid-session wire.CreditUpdate frames so the worker's ack cadence
	// follows, and MaxBatchTuples re-clamps live when the window
	// shrinks below it. Off by default — the window stays pinned at
	// Window, byte-identical to the static edge.
	AdaptiveWindow bool
	// MinWindow / MaxWindow bound the adaptive window in tuples
	// (defaults: 64, and 16× Window). Ignored without AdaptiveWindow.
	MinWindow int
	MaxWindow int
	// WeightedRouting switches the candidate argmin of the view-driven
	// modes (PKG, D-Choices, W-Choices) to the heterogeneous weighted
	// form: candidates are compared by estimated drain time — local
	// load count × the worker's ack-piggybacked service time — instead
	// of load alone, so a slowed node sheds traffic to its keys' other
	// candidates automatically (see route.Rates). Until service
	// estimates arrive, routing is byte-identical to the unweighted
	// argmin.
	WeightedRouting bool
}

// wireConn is one flow-controlled connection of a Wire edge. The
// sending goroutine owns conn writes and the buffered writer; a
// dedicated reader goroutine consumes Ack frames and wakes blocked
// senders through cond.
type wireConn struct {
	conn net.Conn
	w    *bufio.Writer
	dst  int   // destination index (readAcks files service rates under it)
	ctl  *aimd // adaptive-window controller; nil on a static edge
	// done closes when the reader goroutine exits: the node closed its
	// end (err wraps io.EOF) or the connection broke.
	done chan struct{}

	// epochTuples / epochStallNs are the AIMD epoch accumulators:
	// tuples shipped and time spent credit-stalled since the last
	// decide. Shipping-path state, like the batch buffers — only the
	// sending goroutine (or the linger flusher, under lmu) touches
	// them. Both reset on redial with the rest of the credit session.
	epochTuples  int64
	epochStallNs int64

	mu     sync.Mutex
	cond   *sync.Cond
	window int64 // live credit window (the configured base unless adaptive)
	sent   int64 // tuples written (possibly still buffered)
	acked  int64 // cumulative absorbed count from worker Acks
	err    error // sticky: reader saw a broken connection
}

// wireBatch is one destination's accumulating encode buffer: tuple
// bodies packed contiguously (wire.AppendTupleBody), plus each tuple's
// start offset so a batch that straddles the credit window can be
// split into sub-frames at any tuple boundary. Both slices are reused
// across batches — the steady state allocates nothing.
type wireBatch struct {
	body  []byte
	offs  []int
	count int
	// traced holds the trace IDs of traced tuples buffered in body;
	// when the batch ships they get HopWireSend spans.
	traced []uint64
}

func (b *wireBatch) reset() {
	b.body = b.body[:0]
	b.offs = b.offs[:0]
	b.count = 0
	b.traced = b.traced[:0]
}

// Wire is the TCP Edge: tuples routed over the destination nodes by a
// coordination-free router (the same per-source load estimate and
// hot-key sketch the in-process groupings use — nothing but keys
// crosses the wire), with credit-based flow control per connection.
// Tuples accumulate in per-destination batch buffers and ship as
// KindTupleBatch frames — one header, one credit acquisition and one
// (or zero) syscall per batch instead of per tuple. A Wire belongs to
// a single sending goroutine, like an engine grouping (the optional
// Linger flusher is internally synchronized); Stats may be read from
// anywhere.
type Wire struct {
	addrs  []string
	opts   WireOptions
	part   route.Router
	view   *route.Load
	rates  *route.Rates // per-node service times learned from Ack.ServiceNs
	cs     []*wireConn
	window int64 // configured base window (per-conn live windows may differ)

	// winFloor / winCeil bound the adaptive per-connection windows;
	// maxTuples is the live batch-size cap — opts.MaxBatchTuples
	// re-clamped to the smallest live window, so a shrunk window never
	// forces a batch to straddle it. Shipping-path state (see lmu).
	winFloor  int64
	winCeil   int64
	maxTuples int

	// csMu guards mutations of the cs slice (connect) against Stats
	// readers summing in-flight credit. The sending goroutine's own
	// reads of cs stay lock-free: connect runs on that goroutine (or
	// under lmu), so the sender always observes its own writes.
	csMu sync.Mutex

	scratch []byte
	hdr     []byte
	batches []wireBatch

	// lmu guards batches, conns and scratch buffers against the Linger
	// flusher; nil when no flusher runs, so the single-goroutine hot
	// path pays one nil check instead of a lock.
	lmu        *sync.Mutex
	lingerStop chan struct{} // immutable after DialWire; closed via lingerOnce
	lingerOnce sync.Once
	flushErr   error // sticky first error seen by the flusher

	// waitNs accumulates credit-wait time during the current shipping
	// operation (flushBatch/sendFrame reset it, acquireUpTo adds to it)
	// so HopWireSend spans can report how long their batch sat on an
	// exhausted window. Guarded by the same discipline as batches.
	waitNs int64

	frames   atomic.Int64
	tuples   atomic.Int64
	marks    atomic.Int64
	stalls   atomic.Int64
	retries  atomic.Int64
	failures atomic.Int64

	// waitTotal accumulates credit-wait time across the edge's
	// lifetime, and creditWait buckets the individual waits — both
	// touched only on the stall path (the window is exhausted and the
	// sender is about to block), never on an unobstructed send.
	waitTotal  atomic.Int64
	creditWait metrics.Histogram
	// lastQueue caches the queue gauge for stats reads that find lmu
	// held — the sender keeps lmu across a whole flushBatch, including
	// credit stalls, and a poller must never block behind a stall it is
	// trying to observe.
	lastQueue atomic.Int64
}

var _ Edge[wire.Tuple] = (*Wire)(nil)

// SendAttempts bounds delivery attempts per frame: the first try plus
// three redial-and-resend rounds with doubling backoff (~175ms total),
// enough to ride out a node restart without masking a dead peer for
// long. Exported so callers that wrap edge failures (the window
// forwarders' EdgeError) report the count this edge actually used.
const SendAttempts = 4

// DialWire connects a flow-controlled tuple edge to the given node
// addresses. Each connection opens with a wire.Credit frame declaring
// the tuple-denominated window, and a reader goroutine consumes the
// worker's cumulative Acks; SendTuple then blocks whenever a
// connection has Window unacknowledged tuples in flight.
func DialWire(addrs []string, o WireOptions) (*Wire, error) {
	if len(addrs) == 0 {
		return nil, errors.New("edge: no node addresses")
	}
	if o.Mode == 0 && !o.ModeSet {
		o.Mode = route.StrategyPKG
	}
	if o.Window <= 0 {
		o.Window = 1024
	}
	if o.MaxBatchTuples == 0 {
		o.MaxBatchTuples = 256
	}
	if o.MaxBatchTuples < 1 {
		o.MaxBatchTuples = 1
	}
	if o.MaxBatchTuples > o.Window {
		o.MaxBatchTuples = o.Window
	}
	if o.MaxBatchBytes <= 0 {
		o.MaxBatchBytes = 32 << 10
	}
	if o.MaxBatchBytes > wire.MaxPayload-16 {
		o.MaxBatchBytes = wire.MaxPayload - 16
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = 5 * time.Second
	}
	if o.MinWindow <= 0 {
		o.MinWindow = defaultMinWindow
	}
	if o.MinWindow > o.Window {
		o.MinWindow = o.Window
	}
	if o.MaxWindow <= 0 {
		o.MaxWindow = defaultMaxWindowMult * o.Window
	}
	if o.MaxWindow < o.Window {
		o.MaxWindow = o.Window
	}
	w := &Wire{addrs: addrs, opts: o, window: int64(o.Window),
		winFloor: int64(o.MinWindow), winCeil: int64(o.MaxWindow),
		maxTuples: o.MaxBatchTuples}
	n := len(addrs)
	w.batches = make([]wireBatch, n)
	w.rates = route.NewRates(n)
	cfg := route.Config{
		Strategy: o.Mode, Workers: n, Seed: o.Seed, Start: o.Start,
		D: o.D, Hot: o.Hot,
	}
	if o.Mode == route.StrategyPKG && cfg.D == 0 {
		cfg.D = 2
	}
	if cfg.D > n {
		cfg.D = n
	}
	if o.Mode.NeedsView() {
		w.view = route.NewLoad(n)
		cfg.View = w.view
	}
	if o.WeightedRouting {
		cfg.Rates = w.rates
	}
	part, err := route.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("edge: %w", err)
	}
	w.part = part
	for i, a := range addrs {
		if err := w.connect(i, a); err != nil {
			w.Close()
			return nil, err
		}
	}
	if o.Linger > 0 && o.MaxBatchTuples > 1 {
		w.lmu = &sync.Mutex{}
		w.lingerStop = make(chan struct{})
		go w.lingerLoop()
	}
	return w, nil
}

func (w *Wire) lock() {
	if w.lmu != nil {
		w.lmu.Lock()
	}
}

func (w *Wire) unlock() {
	if w.lmu != nil {
		w.lmu.Unlock()
	}
}

// lingerLoop ships partially filled batches and buffered bytes every
// Linger interval, so a trickling stream never strands tuples waiting
// for a batch to fill. Errors latch into flushErr and surface on the
// sender's next call — the flusher itself has nobody to report to.
func (w *Wire) lingerLoop() {
	t := time.NewTicker(w.opts.Linger)
	defer t.Stop()
	for {
		select {
		case <-w.lingerStop:
			return
		case <-t.C:
			w.lmu.Lock()
			for i := range w.batches {
				if w.batches[i].count == 0 {
					continue
				}
				if err := w.flushBatch(i); err != nil {
					if w.flushErr == nil {
						w.flushErr = err
					}
					break
				}
			}
			for _, c := range w.cs {
				if c != nil && c.w.Buffered() > 0 {
					_ = c.w.Flush() // a broken conn turns up as a sticky read error
				}
			}
			w.lmu.Unlock()
		}
	}
}

// connect (re)establishes connection i and opens its credit session.
// The session — and with it any adapted window — restarts from the
// configured base: a fresh connection has no stall history, and the
// controller re-converges within a few epochs.
func (w *Wire) connect(i int, addr string) error {
	conn, err := net.DialTimeout("tcp", addr, w.opts.DialTimeout)
	if err != nil {
		return fmt.Errorf("edge: dial %s: %w", addr, err)
	}
	c := &wireConn{conn: conn, w: bufio.NewWriterSize(conn, 1<<17),
		dst: i, window: w.window, done: make(chan struct{})}
	if w.opts.AdaptiveWindow {
		c.ctl = newAIMD(w.window, w.winFloor, w.winCeil)
	}
	c.cond = sync.NewCond(&c.mu)
	// A dedicated buffer: connect runs inside the retry path, whose
	// frame argument may alias w.scratch.
	credit := wire.AppendCredit(nil, wire.Credit{Window: w.window})
	if _, err := c.w.Write(credit); err != nil {
		conn.Close()
		return fmt.Errorf("edge: credit to %s: %w", addr, err)
	}
	if err := c.w.Flush(); err != nil {
		conn.Close()
		return fmt.Errorf("edge: credit to %s: %w", addr, err)
	}
	w.csMu.Lock()
	for len(w.cs) <= i {
		w.cs = append(w.cs, nil)
	}
	w.cs[i] = c
	w.csMu.Unlock()
	if w.opts.AdaptiveWindow {
		// A redial reset this connection's window to the base, which
		// may raise the smallest live window and with it the batch cap.
		w.reclampMaxTuples()
	}
	go w.readAcks(c)
	return nil
}

// readAcks consumes the worker's cumulative Ack frames, replenishing
// the connection's credit. It exits when the connection breaks (the
// sticky error wakes and fails any blocked sender).
func (w *Wire) readAcks(c *wireConn) {
	defer close(c.done)
	r := bufio.NewReaderSize(c.conn, 1<<12)
	var buf []byte
	for {
		kind, payload, err := wire.ReadFrame(r, buf)
		if err != nil {
			c.mu.Lock()
			if c.err == nil {
				c.err = fmt.Errorf("edge: connection lost: %w", err)
			}
			c.cond.Broadcast()
			c.mu.Unlock()
			return
		}
		buf = payload
		if kind != wire.KindAck {
			continue // tolerate unexpected control frames
		}
		a, err := wire.DecodeAck(payload)
		if err != nil {
			continue
		}
		if a.ServiceNs > 0 {
			// The worker's dispatch-time EWMA rides every ack: this is
			// how the edge learns per-node speed passively, feeding the
			// weighted argmin and the AIMD drain budget. Atomic slots —
			// routing may read a rate while it lands.
			w.rates.Set(c.dst, a.ServiceNs)
		}
		c.mu.Lock()
		if a.Count > c.acked {
			c.acked = a.Count
			c.cond.Broadcast()
		}
		c.mu.Unlock()
	}
}

// acquire claims one tuple credit on the connection, blocking while
// the window is exhausted. It flushes the connection's buffered frames
// before waiting — the worker can only ack what has actually reached
// it.
func (w *Wire) acquire(c *wireConn) error {
	n, err := w.acquireUpTo(c, 1)
	if err == nil && n != 1 {
		return errors.New("edge: zero-credit acquire") // unreachable: want ≥ 1
	}
	return err
}

// acquireUpTo claims between 1 and want tuple credits, blocking while
// no credit is available at all. Returning a partial grant is what
// lets a batch straddle the window boundary: the sender ships a
// sub-frame of exactly the granted tuples and blocks for the rest, so
// a stalled worker holds the sender at exactly Window tuples in
// flight.
func (w *Wire) acquireUpTo(c *wireConn, want int) (int, error) {
	c.mu.Lock()
	if c.err == nil && c.sent-c.acked >= c.window {
		w.stalls.Add(1)
		inflight := c.sent - c.acked
		stallStart := trace.Now()
		// Everything buffered must be on the wire before blocking, or
		// the worker can never drain and the stall never ends. This is
		// also what makes a window shrink deadlock-free: the
		// CreditUpdate announcing it was buffered before the data that
		// filled the shrunk window, so by the time the sender blocks
		// here the worker has seen the new window and acks accordingly.
		c.mu.Unlock()
		if err := c.w.Flush(); err != nil {
			return 0, err
		}
		c.mu.Lock()
		for c.err == nil && c.sent-c.acked >= c.window {
			c.cond.Wait()
		}
		// One flight-recorder entry per stall, spanning begin→end (Dur
		// is the wait; Arg1 the in-flight tuples that caused it).
		wait := trace.Now() - stallStart
		w.waitNs += wait
		c.epochStallNs += wait
		w.waitTotal.Add(wait)
		w.creditWait.Observe(wait)
		trace.Add(0, trace.HopEvent, stallStart, wait, inflight, 0, "credit-stall")
	}
	if err := c.err; err != nil {
		c.mu.Unlock()
		return 0, err
	}
	n := int(c.window - (c.sent - c.acked))
	if n > want {
		n = want
	}
	c.sent += int64(n)
	c.mu.Unlock()
	return n, nil
}

// Route returns the destination node SendTuple would pick for key,
// without sending (candidate derivation for tests and probes).
func (w *Wire) Route(key uint64) int { return w.part.Route(key) }

// SendTuple routes one tuple by its KeyHash — the per-tuple form the
// engine's remote-partial forwarder drives. The tuple's body is
// appended to its destination's batch buffer; the batch ships as one
// KindTupleBatch frame when it reaches MaxBatchTuples or
// MaxBatchBytes (or on Flush/Watermark/Close, or the Linger tick).
// With MaxBatchTuples 1 it ships immediately as a KindTuple frame.
// Credit is acquired per tuple either way; on a broken connection the
// shipping path redials with bounded backoff (the credit session
// restarts from zero) before giving up.
func (w *Wire) SendTuple(t *wire.Tuple) error {
	dst := w.part.Route(t.KeyHash)
	if w.view != nil {
		w.view.Add(dst)
	}
	if t.TraceID != 0 {
		// The remote hop's routing decision, recorded with the same
		// explanation the in-process groupings trace.
		trace.Add(t.TraceID, trace.HopRoute, trace.Now(), 0, int64(dst), 0,
			route.Explain(w.part, t.KeyHash).String())
	}
	if w.opts.MaxBatchTuples <= 1 {
		var err error
		w.scratch, err = wire.AppendTuple(w.scratch[:0], t)
		if err != nil {
			return err
		}
		return w.sendFrame(dst, w.scratch, t.TraceID)
	}
	w.lock()
	err := w.batchTuple(dst, t)
	w.unlock()
	return err
}

// Send implements Edge: the caller has already routed the batch to
// dst, so the edge charges its own load view for the whole batch in
// one operation and appends every tuple to dst's batch buffer — each
// tuple still consumes one credit when its batch ships, and a batch
// may stall mid-way when the window exhausts (per-destination FIFO is
// preserved; the remainder follows once credit returns).
func (w *Wire) Send(dst int, batch []wire.Tuple) error {
	if w.view != nil {
		w.view.AddN(dst, int64(len(batch)))
	}
	if w.opts.MaxBatchTuples <= 1 {
		for i := range batch {
			var err error
			w.scratch, err = wire.AppendTuple(w.scratch[:0], &batch[i])
			if err != nil {
				return err
			}
			if err := w.sendFrame(dst, w.scratch, batch[i].TraceID); err != nil {
				return err
			}
		}
		return nil
	}
	w.lock()
	defer w.unlock()
	for i := range batch {
		if err := w.batchTuple(dst, &batch[i]); err != nil {
			return err
		}
	}
	return nil
}

// batchTuple appends one tuple body to dst's batch buffer, shipping
// the batch when it fills. Callers hold the linger lock when one
// exists.
func (w *Wire) batchTuple(dst int, t *wire.Tuple) error {
	if w.flushErr != nil {
		return w.flushErr
	}
	b := &w.batches[dst]
	b.offs = append(b.offs, len(b.body))
	var err error
	if b.body, err = wire.AppendTupleBody(b.body, t); err != nil {
		b.offs = b.offs[:len(b.offs)-1]
		return err
	}
	if t.TraceID != 0 {
		b.traced = append(b.traced, t.TraceID)
	}
	b.count++
	if b.count >= w.maxTuples || len(b.body) >= w.opts.MaxBatchBytes {
		return w.flushBatch(dst)
	}
	return nil
}

// maybeAdapt accounts n shipped tuples toward dst's AIMD epoch and,
// when the epoch closes, runs the controller over the epoch's stall
// time and the node's latest service estimate. Shipping-path only
// (the caller holds the linger lock when one exists); no-op on a
// static edge.
func (w *Wire) maybeAdapt(dst int, n int) {
	c := w.cs[dst]
	if c == nil || c.ctl == nil {
		return
	}
	c.epochTuples += int64(n)
	if c.epochTuples < aimdEpochTuples {
		return
	}
	stall := c.epochStallNs
	c.epochTuples, c.epochStallNs = 0, 0
	if next := c.ctl.decide(stall, w.rates.Get(dst)); next != c.window {
		w.setConnWindow(c, next)
	}
}

// setConnWindow moves connection c's live window to next: the
// wire.CreditUpdate frame is buffered FIRST, then the local window
// moves — so the update always precedes, in FIFO frame order, any
// data admitted under the new window, and acquireUpTo's pre-stall
// flush guarantees the worker has re-aimed its ack cadence (acking
// any residue immediately, per the CreditUpdate contract) before the
// sender can block on the shrunk window. A write error is left for
// the data path: the next ship surfaces it through the redial path,
// which restarts the credit session anyway. Shipping-path only.
func (w *Wire) setConnWindow(c *wireConn, next int64) {
	w.hdr = wire.AppendCreditUpdate(w.hdr[:0], wire.CreditUpdate{Window: next})
	_, _ = c.w.Write(w.hdr)
	c.mu.Lock()
	grew := next > c.window
	c.window = next
	c.mu.Unlock()
	if grew {
		// A grown window admits more in-flight; no waiter can exist on
		// this goroutine, but the state change is broadcast-worthy for
		// symmetry with ack arrivals (and costs nothing off the stall
		// path).
		c.cond.Broadcast()
	}
	w.reclampMaxTuples()
}

// reclampMaxTuples recomputes the live batch cap: opts.MaxBatchTuples
// clamped to the smallest live connection window, floored at 1. A
// batch can therefore always ship inside one window grant in the
// steady state — shrinking the window shrinks batches with it instead
// of forcing every batch to straddle the boundary. Shipping-path only.
func (w *Wire) reclampMaxTuples() {
	m := int64(w.opts.MaxBatchTuples)
	for _, c := range w.cs {
		if c == nil {
			continue
		}
		c.mu.Lock()
		if c.window < m {
			m = c.window
		}
		c.mu.Unlock()
	}
	if m < 1 {
		m = 1
	}
	w.maxTuples = int(m)
}

// flushBatch ships destination dst's accumulated batch, splitting at
// the credit window: each sub-frame's tuples acquire their credits up
// front, so a batch straddling the window boundary stalls mid-batch
// with exactly Window tuples in flight — backpressure semantics are
// identical to the per-tuple path, just with amortized framing.
// Callers hold the linger lock when one exists.
func (w *Wire) flushBatch(dst int) error {
	b := &w.batches[dst]
	if b.count == 0 {
		return nil
	}
	var shipStart int64
	if len(b.traced) > 0 {
		w.waitNs = 0
		shipStart = trace.Now()
	}
	done := 0
	for done < b.count {
		var granted int
		err := w.withRedial(dst, func(c *wireConn) error {
			n, err := w.acquireUpTo(c, b.count-done)
			if err != nil {
				return err
			}
			granted = n
			start, end := b.offs[done], len(b.body)
			if done+n < b.count {
				end = b.offs[done+n]
			}
			w.hdr = wire.AppendTupleBatchHeader(w.hdr[:0], n, end-start)
			if _, err := c.w.Write(w.hdr); err != nil {
				return err
			}
			_, err = c.w.Write(b.body[start:end])
			return err
		})
		if err != nil {
			// The edge is terminally failing toward dst; the undelivered
			// remainder goes down with it (the same best-effort contract
			// as frames buffered on a dead connection).
			b.reset()
			return fmt.Errorf("edge: node %d (%s) unreachable after retries: %w", dst, w.addrs[dst], err)
		}
		done += granted
		w.frames.Add(1)
		w.tuples.Add(int64(granted))
	}
	w.maybeAdapt(dst, b.count)
	if len(b.traced) > 0 {
		// Every traced tuple the batch carried gets one HopWireSend
		// span: Dur covers the whole ship (including credit waits),
		// Arg1 is the batch size framing amortized over, Arg2 the
		// credit-wait share of Dur.
		dur := trace.Now() - shipStart
		for _, id := range b.traced {
			trace.Add(id, trace.HopWireSend, shipStart, dur,
				int64(b.count), w.waitNs, w.addrs[dst])
		}
	}
	b.reset()
	return nil
}

// withRedial runs op against dst's connection, redialing with bounded
// backoff and re-running op on each fresh connection until it succeeds
// or SendAttempts is exhausted. A nil slot (a connect failure left
// mid-dial, or a redial in flight) skips straight to redialing instead
// of dereferencing it. Frames already in flight on a dead connection
// may or may not have been absorbed — reconnecting is at-least-once
// for the operation being retried and best-effort for the buffered
// tail, which is the honest contract when the peer process vanished
// mid-stream.
func (w *Wire) withRedial(dst int, op func(c *wireConn) error) error {
	var err error
	if c := w.cs[dst]; c != nil {
		if err = op(c); err == nil {
			return nil
		}
	} else {
		err = errors.New("edge: no live connection")
	}
	backoff := 25 * time.Millisecond
	for attempt := 1; attempt < SendAttempts; attempt++ {
		w.retries.Add(1)
		trace.Event("redial "+w.addrs[dst], int64(dst), int64(attempt))
		time.Sleep(backoff)
		backoff *= 2
		if c := w.cs[dst]; c != nil {
			c.conn.Close()
		}
		if derr := w.connect(dst, w.addrs[dst]); derr != nil {
			err = derr
			continue
		}
		if err = op(w.cs[dst]); err == nil {
			return nil
		}
	}
	w.failures.Add(1)
	trace.Event("backoff-exhausted "+w.addrs[dst], int64(dst), SendAttempts)
	return err
}

// sendFrame ships one encoded per-tuple data frame to dst under flow
// control, riding the redial path when the connection is gone (the
// credit session restarts from zero on a fresh connection).
func (w *Wire) sendFrame(dst int, frame []byte, traceID uint64) error {
	var start int64
	if traceID != 0 {
		w.waitNs = 0
		start = trace.Now()
	}
	err := w.withRedial(dst, func(c *wireConn) error {
		if err := w.acquire(c); err != nil {
			return err
		}
		_, err := c.w.Write(frame)
		return err
	})
	if err != nil {
		return fmt.Errorf("edge: node %d (%s) unreachable after retries: %w", dst, w.addrs[dst], err)
	}
	if traceID != 0 {
		trace.Add(traceID, trace.HopWireSend, start, trace.Now()-start,
			1, w.waitNs, w.addrs[dst])
	}
	w.frames.Add(1)
	w.tuples.Add(1)
	w.maybeAdapt(dst, 1)
	return nil
}

// Watermark implements Edge: batched and buffered data is flushed
// first so the promise arrives after everything it covers, then the
// mark broadcasts to every node. Marks are control traffic and
// consume no credit, but they ride the same redial path as data — a
// node restart that lands on a mark relay (spouts emit marks every
// few hundred tuples, so many restarts do) must not kill an edge
// whose tuple path would survive it.
func (w *Wire) Watermark(source uint32, wm int64) error {
	w.lock()
	defer w.unlock()
	if w.flushErr != nil {
		return w.flushErr
	}
	for i := range w.cs {
		if err := w.flushBatch(i); err != nil {
			return err
		}
	}
	w.scratch = wire.AppendMark(w.scratch[:0], wire.Mark{Source: source, WM: wm})
	for i := range w.cs {
		if err := w.markConn(i, w.scratch); err != nil {
			return err
		}
	}
	w.marks.Add(1)
	return nil
}

// markConn flushes connection dst's buffered data and writes one mark
// frame behind it, riding the redial path when the connection is gone.
// Data buffered on a dead connection is lost with it; the mark — a
// monotone promise, safe to re-deliver — goes out on the fresh
// connection.
func (w *Wire) markConn(dst int, frame []byte) error {
	err := w.withRedial(dst, func(c *wireConn) error {
		if err := c.w.Flush(); err != nil {
			return err
		}
		if _, err := c.w.Write(frame); err != nil {
			return err
		}
		return c.w.Flush()
	})
	if err != nil {
		return fmt.Errorf("edge: mark to node %d (%s) failed after retries: %w", dst, w.addrs[dst], err)
	}
	return nil
}

// Flush implements Edge: every destination's accumulated batch ships
// and every connection's buffered frames go out. Nil connection slots
// (a redial in flight) are skipped, matching Close.
func (w *Wire) Flush() error {
	w.lock()
	defer w.unlock()
	if w.flushErr != nil {
		return w.flushErr
	}
	for i := range w.cs {
		if err := w.flushBatch(i); err != nil {
			return err
		}
		if c := w.cs[i]; c != nil { // flushBatch may have redialed: re-read
			if err := c.w.Flush(); err != nil {
				return fmt.Errorf("edge: flush node %d: %w", i, err)
			}
		}
	}
	return nil
}

// closeDrain bounds how long Close waits for a node to read the
// stream's tail and close its end: generous next to any healthy node's
// backlog (at most one credit window of tuples and a final flush),
// short enough that a wedged node fails the topology instead of
// hanging it.
const closeDrain = 30 * time.Second

// Close implements Edge: stop the linger flusher, ship any accumulated
// batches, then end every connection in order — flush, half-close, and
// keep reading until the node has read everything and closed its own
// end. Closing outright would race the node's acks: one that lands on a
// closed socket draws a reset, and a reset lets the node's kernel
// discard whatever the node had not read yet — the stream's tail and
// its final mark. Close returns an error when a node fails to drain
// within closeDrain or drops the connection instead of closing it, so
// a lost tail is never silent.
func (w *Wire) Close() error {
	if w.lingerStop != nil {
		w.lingerOnce.Do(func() { close(w.lingerStop) })
	}
	w.lock()
	defer w.unlock()
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	// Half-close every connection before waiting on any, so the nodes
	// drain side by side.
	for i, c := range w.cs {
		if c == nil {
			continue
		}
		keep(w.flushBatch(i))
		if c = w.cs[i]; c == nil { // flushBatch may have redialed: re-read
			continue
		}
		keep(c.w.Flush())
		if hc, ok := c.conn.(interface{ CloseWrite() error }); ok {
			keep(hc.CloseWrite())
		}
	}
	deadline := time.Now().Add(closeDrain)
	for i, c := range w.cs {
		if c == nil {
			continue
		}
		// The reader goroutine is the one draining; the deadline turns a
		// node that never closes into a read timeout there.
		keep(c.conn.SetReadDeadline(deadline))
		<-c.done
		c.mu.Lock()
		err := c.err
		c.mu.Unlock()
		var ne net.Error
		switch {
		case errors.Is(err, io.EOF):
			// The node read to the end of the stream and closed.
		case errors.As(err, &ne) && ne.Timeout():
			keep(fmt.Errorf("edge: node %d (%s) did not finish reading within %v of close", i, w.addrs[i], closeDrain))
		default:
			keep(fmt.Errorf("edge: node %d (%s) dropped the connection before the stream's end: %w", i, w.addrs[i], err))
		}
		keep(c.conn.Close())
	}
	return first
}

// Candidates returns the key's candidate nodes under this edge's
// router — the probe set point queries must cover (widened for hot
// keys under the frequency-aware modes, exactly as transport sources
// report it).
func (w *Wire) Candidates(key uint64) []int {
	return route.ProbeSet(w.part, key)
}

// LocalLoads returns the edge's local load estimate (nil for KG/SG).
func (w *Wire) LocalLoads() []int64 {
	if w.view == nil {
		return nil
	}
	return w.view.Snapshot()
}

// Sent returns the number of data frames sent (one per batch).
func (w *Wire) Sent() int64 { return w.frames.Load() }

// SentTuples returns the number of tuples shipped — the credit
// denomination, and Frames × batch size in the steady state.
func (w *Wire) SentTuples() int64 { return w.tuples.Load() }

// Stats snapshots the edge counters and gauges. The in-flight gauge
// sums sent−acked over the live connections under their locks, and the
// queue gauge counts batch-buffered tuples when a linger flusher
// serializes access to them — both read-time work, nothing added to
// the send path.
func (w *Wire) Stats() Stats {
	s := Stats{
		Frames:   w.frames.Load(),
		Tuples:   w.tuples.Load(),
		Marks:    w.marks.Load(),
		Stalls:   w.stalls.Load(),
		Retries:  w.retries.Load(),
		Failures: w.failures.Load(),
		WaitNs:   w.waitTotal.Load(),
	}
	w.csMu.Lock()
	cs := append(make([]*wireConn, 0, len(w.cs)), w.cs...)
	w.csMu.Unlock()
	for _, c := range cs {
		if c == nil {
			continue
		}
		c.mu.Lock()
		s.InFlight += c.sent - c.acked
		s.Window += c.window
		c.mu.Unlock()
	}
	s.ServiceNs = w.rates.Snapshot()
	if w.lmu != nil {
		// TryLock, not Lock: a credit-stalled sender holds lmu for the
		// whole stall, and a monitor polling stats to *observe* that
		// stall must not deadlock behind it. On contention serve the
		// last value seen.
		if w.lmu.TryLock() {
			for i := range w.batches {
				s.Queue += int64(w.batches[i].count)
			}
			w.lmu.Unlock()
			w.lastQueue.Store(s.Queue)
		} else {
			s.Queue = w.lastQueue.Load()
		}
	}
	return s
}

// CreditWait snapshots the credit-stall wait-time histogram: one
// observation per stall, the wait in nanoseconds.
func (w *Wire) CreditWait() metrics.HistSnapshot {
	return w.creditWait.Snapshot()
}

// ServiceRates snapshots the per-node service-time estimates (ns per
// tuple) learned from ack piggybacks; 0 means no estimate yet for that
// node. Populated on every edge — weighted routing only changes
// whether the router consults them.
func (w *Wire) ServiceRates() []int64 { return w.rates.Snapshot() }
