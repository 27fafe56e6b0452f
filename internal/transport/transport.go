// Package transport runs partial key grouping across real network
// boundaries: worker processes listen on TCP, source processes hold one
// connection per worker and route each frame with a partitioner driven
// by their own local load estimate — nothing but keys and already-local
// state ever crosses the wire, which is the paper's whole point: PKG
// needs no load gossip, no routing-table synchronization and no
// coordination among sources.
//
// Frames are the versioned, length-prefixed binary protocol of
// internal/wire: tuples (fire and forget), windowed partials and
// watermark marks (the two-phase aggregation's distributed form),
// sketch snapshots (source checkpoints), and point-query
// request/replies. The processing side of a worker is a pluggable
// Handler — the classic partial counter (CountHandler), or the windowed
// final stage (window.FinalHandler) so an aggregation's merge phase can
// live in another process.
//
// A distributed point query probes only the key's candidate workers —
// two under PKG — and sums their partial counts (§VI.A).
package transport

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pkgstream/internal/hotkey"
	"pkgstream/internal/metrics"
	"pkgstream/internal/route"
	"pkgstream/internal/sketch"
	"pkgstream/internal/wire"
)

// Worker is a TCP server dispatching decoded frames to its Handler. It
// serves any number of concurrent sources and query clients; handler
// calls are serialized across connections.
type Worker struct {
	ln net.Listener
	h  Handler
	// counter is the default handler, kept for the counter-specific
	// accessors (nil when a custom handler was supplied).
	counter *CountHandler

	// hmu serializes handler dispatch across connections, so handlers
	// can run single-threaded state machines (window.FinalHandler).
	hmu sync.Mutex

	mu        sync.Mutex
	processed int64
	frames    int64
	conns     map[net.Conn]struct{}

	// serviceNs is the per-tuple service-time EWMA of handler dispatch,
	// in nanoseconds — fed by 1-in-serviceSampleEvery data frames per
	// connection, so the unsampled frame path never reads a clock.
	serviceNs atomic.Int64

	wg     sync.WaitGroup
	closed chan struct{}
}

// serviceSampleEvery is the per-connection sampling period of the
// service-time EWMA: one timed dispatch per this many data frames.
const serviceSampleEvery = 64

// ListenWorker starts a counting worker on addr (use "127.0.0.1:0" for
// an ephemeral port) — the classic PKG worker holding partial counts
// for the keys routed to it.
func ListenWorker(addr string) (*Worker, error) {
	return ListenWorkerSlow(addr, 0)
}

// ListenWorkerSlow is ListenWorker with a fixed per-tuple dispatch
// delay injected ahead of the counting handler (see Slow; 0 injects
// nothing) — the CLI fault injector behind `pkgnode -slow-worker` for
// reproducible heterogeneous-cluster scenarios.
func ListenWorkerSlow(addr string, perTuple time.Duration) (*Worker, error) {
	h := NewCountHandler()
	w, err := ListenHandler(addr, Slow(h, perTuple))
	if err != nil {
		return nil, err
	}
	w.counter = h
	return w, nil
}

// ListenHandler starts a worker on addr with a custom frame handler —
// the hosting primitive behind cmd/pkgnode.
func ListenHandler(addr string, h Handler) (*Worker, error) {
	if h == nil {
		return nil, errors.New("transport: nil handler")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen: %w", err)
	}
	w := &Worker{
		ln:     ln,
		h:      h,
		closed: make(chan struct{}),
		conns:  map[net.Conn]struct{}{},
	}
	w.wg.Add(1)
	go w.acceptLoop()
	return w, nil
}

// Addr returns the worker's listen address.
func (w *Worker) Addr() string { return w.ln.Addr().String() }

func (w *Worker) acceptLoop() {
	defer w.wg.Done()
	for {
		conn, err := w.ln.Accept()
		if err != nil {
			select {
			case <-w.closed:
				return
			default:
				// Transient accept error: keep serving.
				continue
			}
		}
		w.wg.Add(1)
		go w.serve(conn)
	}
}

func (w *Worker) serve(conn net.Conn) {
	defer w.wg.Done()
	defer conn.Close()
	w.mu.Lock()
	w.conns[conn] = struct{}{}
	w.mu.Unlock()
	defer func() {
		w.mu.Lock()
		delete(w.conns, conn)
		w.mu.Unlock()
	}()
	select {
	case <-w.closed:
		// Close swept w.conns before this connection registered (the
		// accept → register window): it would never be closed, and an
		// idle peer would pin Close's wg.Wait forever. Bail instead.
		return
	default:
	}
	r := bufio.NewReaderSize(conn, 1<<17)
	var (
		payload []byte
		tup     wire.Tuple
		tups    []wire.Tuple
		par     wire.Partial
		reply   []byte
	)
	// Batch frames dispatch in one call when the handler supports it;
	// otherwise the worker unrolls the batch into per-tuple calls under
	// a single lock hold.
	bh, _ := w.h.(TupleBatchHandler)
	// wmu serializes every write on this connection: query replies from
	// this goroutine, flow-control acks, and — once subscribed — result
	// frames pushed by handler calls running on OTHER connections.
	wmu := &sync.Mutex{}
	// Credit flow control, armed by a wire.Credit frame: the sender
	// keeps at most `window` unacknowledged TUPLES in flight (a batch
	// of n costs n), and this side replenishes it with cumulative Acks
	// as the handler absorbs them (every window/2 tuples, so the
	// sender's window can never drain to zero with the worker idle).
	// Acks are per batch, never per tuple — one accounting pass and at
	// most one ack write however many tuples a frame carried.
	var fcWindow, fcProcessed, fcAcked int64
	var ackBuf []byte
	// Service-time sampling countdown: every serviceSampleEvery-th data
	// frame times its handler dispatch (two clock reads inside the hmu
	// hold) and folds the per-tuple duration into the worker EWMA. The
	// other frames pay one decrement and a branch.
	svc := int64(serviceSampleEvery)
	ack := func() bool {
		fcAcked = fcProcessed
		// Each ack piggybacks the worker's service-time EWMA, so every
		// sender passively learns this worker's speed at ack cadence —
		// the signal the load-aware router and the sender's adaptive
		// window controller both feed on. Costs 1-2 bytes per ack, zero
		// extra frames.
		ackBuf = wire.AppendAck(ackBuf[:0], wire.Ack{
			Count: fcProcessed, ServiceNs: w.ServiceNanos(),
		})
		wmu.Lock()
		_, err := conn.Write(ackBuf)
		wmu.Unlock()
		return err == nil
	}
	absorbedN := func(n int64) bool {
		w.addProcessed(n)
		if fcWindow <= 0 {
			return true
		}
		fcProcessed += n
		if every := fcWindow / 2; fcProcessed-fcAcked > every {
			return ack()
		}
		return true
	}
	for {
		// Zero-copy read: p aliases r's buffer for frames that fit it
		// (the decoders below copy anything a decoded value retains),
		// with payload as the spill buffer for oversized frames.
		kind, p, err := wire.ReadFrameBuffered(r, &payload)
		if err != nil {
			return // EOF, peer gone, or protocol violation: drop the connection
		}
		switch kind {
		case wire.KindTuple:
			if err := wire.DecodeTuple(p, &tup); err != nil {
				return
			}
			w.addFrames(1)
			w.hmu.Lock()
			if svc--; svc <= 0 {
				svc = serviceSampleEvery
				t0 := time.Now()
				w.h.HandleTuple(&tup)
				w.recordService(time.Since(t0).Nanoseconds(), 1)
			} else {
				w.h.HandleTuple(&tup)
			}
			w.hmu.Unlock()
			if !absorbedN(1) {
				return
			}
		case wire.KindTupleBatch:
			var err error
			if tups, err = wire.DecodeTupleBatch(p, tups); err != nil {
				return
			}
			w.addFrames(1)
			w.hmu.Lock()
			var t0 time.Time
			if svc--; svc <= 0 {
				svc = serviceSampleEvery
				t0 = time.Now()
			}
			if bh != nil {
				bh.HandleTupleBatch(tups)
			} else {
				for i := range tups {
					w.h.HandleTuple(&tups[i])
				}
			}
			if !t0.IsZero() && len(tups) > 0 {
				w.recordService(time.Since(t0).Nanoseconds(), int64(len(tups)))
			}
			w.hmu.Unlock()
			if !absorbedN(int64(len(tups))) {
				return
			}
		case wire.KindPartial:
			if err := wire.DecodePartial(p, &par); err != nil {
				return
			}
			w.addFrames(1)
			w.hmu.Lock()
			if svc--; svc <= 0 {
				svc = serviceSampleEvery
				t0 := time.Now()
				w.h.HandlePartial(&par)
				w.recordService(time.Since(t0).Nanoseconds(), 1)
			} else {
				w.h.HandlePartial(&par)
			}
			w.hmu.Unlock()
			if !absorbedN(1) {
				return
			}
		case wire.KindMark:
			m, err := wire.DecodeMark(p)
			if err != nil {
				return
			}
			w.hmu.Lock()
			w.h.HandleMark(m)
			w.hmu.Unlock()
		case wire.KindCredit:
			c, err := wire.DecodeCredit(p)
			if err != nil {
				return
			}
			fcWindow = c.Window
		case wire.KindCreditUpdate:
			u, err := wire.DecodeCreditUpdate(p)
			if err != nil {
				return
			}
			fcWindow = u.Window
			// Ack any residue immediately. The sender's stall invariant is
			// "in-flight == my window > the worker's ack threshold, so an
			// ack is coming"; a shrink can drop the sender's window BELOW
			// the unacked residue while that residue sits under the old
			// fcWindow/2 threshold — without this ack nothing would ever
			// wake the sender again. After it, absorbedN's cadence check
			// reads the updated fcWindow and tracks the new window.
			if fcProcessed > fcAcked && !ack() {
				return
			}
		case wire.KindSubscribe:
			s, err := wire.DecodeSubscribe(p)
			if err != nil {
				return
			}
			ph, ok := w.h.(PushHandler)
			if !ok {
				return // this node has nothing to push: protocol misuse
			}
			w.hmu.Lock()
			ph.HandleSubscribe(s, &connSink{mu: wmu, conn: conn})
			w.hmu.Unlock()
		case wire.KindQuery:
			q, err := wire.DecodeQuery(p)
			if err != nil {
				return
			}
			w.hmu.Lock()
			rep := w.h.HandleQuery(q)
			w.hmu.Unlock()
			if rep.Op == wire.OpStats {
				// The dispatch-path service-time EWMA belongs to the
				// worker, not the handler: stamp it onto every stats
				// reply so pollers see per-node service rates uniformly.
				if rep.Telemetry == nil {
					rep.Telemetry = &wire.Telemetry{}
				}
				rep.Telemetry.ServiceNs = w.ServiceNanos()
			}
			reply = wire.AppendReply(reply[:0], &rep)
			wmu.Lock()
			_, err = conn.Write(reply)
			wmu.Unlock()
			if err != nil {
				return
			}
		default:
			return // sketch/ack/reply frames have no business here: drop
		}
	}
}

// connSink pushes result frames on a subscribed connection, serialized
// with the connection's other writes. A write deadline keeps a stuck
// subscriber from stalling the handler chain indefinitely — the sink
// fails instead, and the handler drops it.
type connSink struct {
	mu   *sync.Mutex
	conn net.Conn
}

// Push implements ResultSink: the frame is written as it is, under the
// connection's write mutex, so concurrent Push calls (a handler pushing
// from its own timer goroutine while the serve loop answers a query)
// stay safe.
func (s *connSink) Push(frame []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.conn.SetWriteDeadline(time.Now().Add(10 * time.Second)); err != nil {
		return err
	}
	defer s.conn.SetWriteDeadline(time.Time{})
	_, err := s.conn.Write(frame)
	return err
}

// recordService folds one sampled dispatch (dur nanoseconds over n
// tuples) into the per-tuple service-time EWMA with α = 1/8. The CAS
// loop keeps concurrent connections' updates from tearing; samples are
// rare enough that contention is immaterial.
func (w *Worker) recordService(dur, n int64) {
	per := dur / n
	for {
		old := w.serviceNs.Load()
		nv := per
		if old != 0 {
			nv = old + (per-old)/8
		}
		if w.serviceNs.CompareAndSwap(old, nv) {
			return
		}
	}
}

// ServiceNanos returns the worker's per-tuple service-time EWMA in
// nanoseconds: how long one tuple holds the dispatch path, sampled
// every serviceSampleEvery data frames per connection (0 until the
// first sample lands). This is the per-worker service rate a placement
// controller needs to weigh heterogeneous workers.
func (w *Worker) ServiceNanos() int64 { return w.serviceNs.Load() }

func (w *Worker) addProcessed(n int64) {
	w.mu.Lock()
	w.processed += n
	w.mu.Unlock()
}

func (w *Worker) addFrames(n int64) {
	w.mu.Lock()
	w.frames += n
	w.mu.Unlock()
}

// Processed returns the number of data items (tuples and partials)
// absorbed — tuples inside a batch frame count individually, so the
// number is framing-independent.
func (w *Worker) Processed() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.processed
}

// Frames returns the number of data frames absorbed (a tuple batch
// counts once). Processed/Frames is the effective batching ratio on
// the receive side.
func (w *Worker) Frames() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.frames
}

// DistinctKeys returns the number of live partial counters (0 for a
// custom handler).
func (w *Worker) DistinctKeys() int {
	if w.counter == nil {
		return 0
	}
	return w.counter.DistinctKeys()
}

// Count returns the worker's partial count for key (0 for a custom
// handler).
func (w *Worker) Count(key uint64) int64 {
	if w.counter == nil {
		return 0
	}
	return w.counter.Count(key)
}

// WaitProcessed blocks until the worker has absorbed at least n data
// frames or the timeout expires.
func (w *Worker) WaitProcessed(n int64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		if w.Processed() >= n {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("transport: worker %s processed %d < %d after %v",
				w.Addr(), w.Processed(), n, timeout)
		}
		time.Sleep(time.Millisecond)
	}
}

// Close stops accepting, drops every live connection, and waits for
// the serve goroutines to finish. Dropping (rather than draining)
// matters for teardown liveness: a source that never hangs up must not
// pin the worker open — it observes the close as a connection error
// and may redial elsewhere or retry.
func (w *Worker) Close() error {
	select {
	case <-w.closed:
		return nil
	default:
	}
	close(w.closed)
	err := w.ln.Close()
	w.mu.Lock()
	for conn := range w.conns {
		conn.Close()
	}
	w.mu.Unlock()
	w.wg.Wait()
	return err
}

// Mode selects the source's partitioning strategy. It is the shared
// strategy type of the routing core — transport no longer keeps its own
// enumeration.
type Mode = route.Strategy

// Source partitioning modes. Note the numeric values follow the shared
// Strategy ordering (KG=0, SG=1, PKG=2), not this package's historical
// one (PKG was 0): always use the named constants — a raw integer or a
// zero-valued Mode now selects KG, not PKG.
const (
	// ModePKG routes with partial key grouping on a local load estimate.
	ModePKG = route.StrategyPKG
	// ModeKG routes with a single hash.
	ModeKG = route.StrategyKG
	// ModeSG routes round-robin.
	ModeSG = route.StrategySG
	// ModeDChoices routes with frequency-aware PKG (ICDE 2016
	// follow-up): the source carries its own Space-Saving sketch and
	// widens hot keys to d > 2 candidate workers. Nothing but the keys
	// ever crosses the wire — classification is per-source, so zero
	// coordination is preserved.
	ModeDChoices = route.StrategyDChoices
	// ModeWChoices spreads keys above the hot threshold round-robin
	// over every worker, again from purely source-local state.
	ModeWChoices = route.StrategyWChoices
)

// SourceOptions parameterizes DialSourceOpts. The zero value of every
// field except Mode picks the historical defaults.
type SourceOptions struct {
	// Mode is the partitioning strategy.
	Mode Mode
	// Seed derives the candidate hash functions; it must match across
	// the sources of one stream (the only thing they share — baked into
	// the binary, never communicated).
	Seed uint64
	// Start decorrelates shuffle round-robins of parallel sources.
	Start int
	// D is the number of hash choices for PKG ("Greedy-d") and the
	// hot-key width for D-Choices; 0 selects 2 (PKG) / adaptive
	// (D-Choices). Ignored by the other modes.
	D int
	// SourceID identifies this source in the watermark marks it emits
	// (wire.Mark.Source); 0 adopts Start. Parallel sources feeding one
	// final stage must use distinct IDs, since the final advances on
	// the minimum watermark across live sources.
	SourceID int
	// Hot carries the hot-key classification knobs for the
	// frequency-aware modes (Workers is filled from the address count).
	Hot hotkey.Config
	// SketchPath checkpoints the hot-key sketch of the frequency-aware
	// modes: restored on dial when the file exists (so a restarted
	// source classifies head keys as head from its first message
	// instead of routing them cold until the sketch re-warms), written
	// on Close. Setting it for a sketch-free mode is an error.
	SketchPath string
}

// Source is a stream source holding one TCP connection per worker and a
// router over them. Each Source keeps its own local load estimate —
// parallel sources never talk to each other.
type Source struct {
	conns []net.Conn
	bufs  []*bufio.Writer
	rds   []*bufio.Reader
	part  route.Router
	pkg   *route.PKG
	view  *metrics.Load
	sent  int64

	id         uint32
	sketchPath string
	scratch    []byte
}

// DialSourceOpts connects a source to the given worker addresses, one
// TCP connection each, routing by o.Mode.
func DialSourceOpts(addrs []string, o SourceOptions) (*Source, error) {
	if len(addrs) == 0 {
		return nil, errors.New("transport: no worker addresses")
	}
	d := o.D
	if o.Mode == ModePKG {
		if d == 0 {
			d = 2 // the paper's two choices
		}
		if d < 0 {
			return nil, fmt.Errorf("transport: PKG needs at least one choice, got d=%d", d)
		}
		if d > len(addrs) {
			// Every worker is already a candidate; clamping keeps the
			// candidate set duplicate-free so point queries never
			// double-count a worker's partial count.
			d = len(addrs)
		}
	}
	s := &Source{id: uint32(o.SourceID)}
	if o.SourceID == 0 {
		s.id = uint32(o.Start)
	}
	for _, a := range addrs {
		conn, err := net.DialTimeout("tcp", a, 5*time.Second)
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("transport: dial %s: %w", a, err)
		}
		s.conns = append(s.conns, conn)
		s.bufs = append(s.bufs, bufio.NewWriterSize(conn, 1<<16))
		s.rds = append(s.rds, bufio.NewReaderSize(conn, 1<<12))
	}
	n := len(addrs)
	switch o.Mode {
	case ModePKG:
		s.view = metrics.NewLoad(n)
		s.pkg = route.NewPKG(n, d, o.Seed, s.view)
		s.part = s.pkg
	case ModeKG:
		s.part = route.NewKeyGrouping(n, o.Seed)
	case ModeSG:
		s.part = route.NewShuffleGrouping(n, o.Start)
	case ModeDChoices, ModeWChoices:
		// This source's sketch: frequency classification, like the load
		// estimate, never leaves the process. d ≤ 2 means adaptive (the
		// classifier clamps fixed widths beyond W internally).
		hc := o.Hot
		if d > 2 && hc.D == 0 {
			hc.D = d
		}
		s.view = metrics.NewLoad(n)
		r, err := route.New(route.Config{
			Strategy: o.Mode, Workers: n, Seed: o.Seed, Start: o.Start,
			View: s.view, Hot: hc,
		})
		if err != nil {
			s.Close()
			return nil, err
		}
		s.part = r
	default:
		s.Close()
		return nil, fmt.Errorf("transport: unknown mode %d", o.Mode)
	}
	if o.SketchPath != "" {
		if _, ok := s.part.(route.HotAware); !ok {
			s.Close()
			return nil, fmt.Errorf("transport: SketchPath set for mode %v, which keeps no sketch", o.Mode)
		}
		if err := s.restoreSketch(o.SketchPath); err != nil {
			// sketchPath is still unset here, so the failure-path Close
			// cannot overwrite the (possibly corrupt) checkpoint with a
			// fresh empty sketch — the evidence survives for inspection.
			s.Close()
			return nil, err
		}
		s.sketchPath = o.SketchPath
	}
	return s, nil
}

// Send routes one key to its worker — the classic fire-and-forget data
// path, now a minimal wire tuple.
func (s *Source) Send(key uint64) error {
	w := s.part.Route(key)
	if s.view != nil {
		s.view.Add(w)
	}
	var err error
	s.scratch, err = wire.AppendTuple(s.scratch[:0], &wire.Tuple{KeyHash: key})
	if err != nil {
		return err
	}
	if _, err := s.bufs[w].Write(s.scratch); err != nil {
		return fmt.Errorf("transport: send to worker %d: %w", w, err)
	}
	s.sent++
	return nil
}

// SendTuple routes one full tuple (string key, event time, values) by
// its KeyHash.
func (s *Source) SendTuple(t *wire.Tuple) error {
	w := s.part.Route(t.KeyHash)
	if s.view != nil {
		s.view.Add(w)
	}
	var err error
	s.scratch, err = wire.AppendTuple(s.scratch[:0], t)
	if err != nil {
		return err
	}
	if _, err := s.bufs[w].Write(s.scratch); err != nil {
		return fmt.Errorf("transport: send to worker %d: %w", w, err)
	}
	s.sent++
	return nil
}

// SendPartial routes one flushed (key, window) partial by its KeyHash.
// The final stage key-groups partials, so use ModeKG when the
// destination workers host a windowed final stage — all partials of a
// key must meet at one node.
func (s *Source) SendPartial(p *wire.Partial) error {
	w := s.part.Route(p.KeyHash)
	if s.view != nil {
		s.view.Add(w)
	}
	s.scratch = wire.AppendPartial(s.scratch[:0], p)
	if _, err := s.bufs[w].Write(s.scratch); err != nil {
		return fmt.Errorf("transport: send partial to worker %d: %w", w, err)
	}
	s.sent++
	return nil
}

// SendMark broadcasts this source's watermark to every worker: the
// source promises to never again send a tuple or partial with event
// time below wm (math.MaxInt64: this source is done). Buffered frames
// are flushed first so the promise arrives after everything it covers.
func (s *Source) SendMark(wm int64) error {
	return s.SendMarkFrom(s.id, wm)
}

// SendMarkFrom is SendMark with an explicit source ID — for funnels
// that relay the watermarks of several upstream sources (the windowed
// remote-final forwarder relays one mark per partial instance) over a
// single connection set.
func (s *Source) SendMarkFrom(source uint32, wm int64) error {
	if err := s.Flush(); err != nil {
		return err
	}
	s.scratch = wire.AppendMark(s.scratch[:0], wire.Mark{Source: source, WM: wm})
	for i, b := range s.bufs {
		if _, err := b.Write(s.scratch); err != nil {
			return fmt.Errorf("transport: mark to worker %d: %w", i, err)
		}
		if err := b.Flush(); err != nil {
			return fmt.Errorf("transport: mark to worker %d: %w", i, err)
		}
	}
	return nil
}

// SourceID returns the ID this source stamps on its watermark marks.
func (s *Source) SourceID() uint32 { return s.id }

// Sent returns the number of data frames sent.
func (s *Source) Sent() int64 { return s.sent }

// LocalLoads returns this source's local load estimate (nil for KG/SG).
func (s *Source) LocalLoads() []int64 {
	if s.view == nil {
		return nil
	}
	return s.view.Snapshot()
}

// Flush pushes buffered frames to the network.
func (s *Source) Flush() error {
	for i, b := range s.bufs {
		if err := b.Flush(); err != nil {
			return fmt.Errorf("transport: flush worker %d: %w", i, err)
		}
	}
	return nil
}

// QueryWorker sends a point query to worker w over this source's
// connection and waits for the reply. The source's buffered frames to
// that worker are flushed first, so — frames being processed in
// connection order — the reply reflects everything this source sent
// before the query.
func (s *Source) QueryWorker(w int, q wire.Query) (wire.Reply, error) {
	if w < 0 || w >= len(s.conns) {
		return wire.Reply{}, fmt.Errorf("transport: worker %d out of range", w)
	}
	s.scratch = wire.AppendQuery(s.scratch[:0], q)
	if _, err := s.bufs[w].Write(s.scratch); err != nil {
		return wire.Reply{}, err
	}
	if err := s.bufs[w].Flush(); err != nil {
		return wire.Reply{}, err
	}
	if err := s.conns[w].SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		return wire.Reply{}, err
	}
	defer s.conns[w].SetReadDeadline(time.Time{})
	kind, payload, err := wire.ReadFrame(s.rds[w], nil)
	if err != nil {
		return wire.Reply{}, fmt.Errorf("transport: query worker %d: %w", w, err)
	}
	if kind != wire.KindReply {
		return wire.Reply{}, fmt.Errorf("transport: worker %d answered with %v", w, kind)
	}
	return wire.DecodeReply(payload)
}

// Close flushes and closes all connections, checkpointing the hot-key
// sketch first when a SketchPath was configured.
func (s *Source) Close() error {
	var first error
	if s.sketchPath != "" {
		if err := s.saveSketch(); err != nil {
			first = err
		}
	}
	for _, b := range s.bufs {
		if err := b.Flush(); err != nil && first == nil {
			first = err
		}
	}
	for _, c := range s.conns {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Candidates returns the key's candidate workers under this source's
// router (all workers for SG, one for KG, the d hash choices for PKG,
// and the class-widened set for D-Choices/W-Choices). For the
// frequency-aware modes the set reflects the key's *current* class: a
// key that cooled down since it was last routed may hold stale partial
// counts on workers outside the returned set, so exact point queries
// across a class change must widen to the key's historical maximum (or
// simply all workers).
func (s *Source) Candidates(key uint64) []int {
	return route.ProbeSet(s.part, key)
}

// SketchSummary snapshots this source's hot-key sketch; ok is false for
// modes that keep none.
func (s *Source) SketchSummary() (sketch.Summary, bool) {
	ha, ok := s.part.(route.HotAware)
	if !ok {
		return sketch.Summary{}, false
	}
	return ha.Classifier().Snapshot(), true
}

// saveSketch wire-encodes the sketch snapshot and writes it atomically.
func (s *Source) saveSketch() error {
	sum, ok := s.SketchSummary()
	if !ok {
		return nil
	}
	ws := summaryToWire(sum)
	buf := wire.AppendSketch(nil, &ws)
	tmp := s.sketchPath + ".tmp"
	if err := os.WriteFile(tmp, buf, 0o644); err != nil {
		return fmt.Errorf("transport: checkpoint sketch: %w", err)
	}
	if err := os.Rename(tmp, s.sketchPath); err != nil {
		return fmt.Errorf("transport: checkpoint sketch: %w", err)
	}
	return nil
}

// restoreSketch re-warms the classifier from a checkpoint file, if one
// exists. A missing file is not an error (first run); a corrupt one is.
func (s *Source) restoreSketch(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil
		}
		return fmt.Errorf("transport: restore sketch: %w", err)
	}
	kind, payload, err := wire.ReadFrame(bytes.NewReader(raw), nil)
	if err != nil {
		return fmt.Errorf("transport: restore sketch %s: %w", path, err)
	}
	if kind != wire.KindSketch {
		return fmt.Errorf("transport: restore sketch %s: unexpected %v frame", path, kind)
	}
	ws, err := wire.DecodeSketch(payload)
	if err != nil {
		return fmt.Errorf("transport: restore sketch %s: %w", path, err)
	}
	ha := s.part.(route.HotAware) // checked at dial
	if err := ha.Classifier().Restore(wireToSummary(ws)); err != nil {
		return fmt.Errorf("transport: restore sketch %s: %w", path, err)
	}
	return nil
}

// summaryToWire converts a sketch summary to its wire form.
func summaryToWire(sum sketch.Summary) wire.Sketch {
	ws := wire.Sketch{K: sum.K, N: sum.N, Items: make([]wire.SketchItem, len(sum.Items))}
	for i, it := range sum.Items {
		ws.Items[i] = wire.SketchItem{Item: it.Item, Count: it.Count, Err: it.Err}
	}
	return ws
}

// wireToSummary converts a wire sketch back to a sketch summary.
func wireToSummary(ws wire.Sketch) sketch.Summary {
	sum := sketch.Summary{K: ws.K, N: ws.N, Items: make([]sketch.Counted, len(ws.Items))}
	for i, it := range ws.Items {
		sum.Items[i] = sketch.Counted{Item: it.Item, Count: it.Count, Err: it.Err}
	}
	return sum
}

// ReleasedError reports a read that starts below a final node's
// retention floor: the node has released the results before Floor,
// each sent to every push subscriber it had, so a read from Offset
// would silently miss them. Addr is empty for an in-process read.
type ReleasedError struct {
	Addr          string
	Floor, Offset int64
}

func (e *ReleasedError) Error() string {
	node := "final node"
	if e.Addr != "" {
		node += " " + e.Addr
	}
	return fmt.Sprintf("transport: %s released its results below log offset %d to its subscribers; a read from offset %d would miss them",
		node, e.Floor, e.Offset)
}

// Query answers a distributed point query for key against the given
// worker addresses using a fresh connection per probe: it sums the
// partial counts of the key's candidate workers only. A final node that
// has released results cannot count over them, and fails the query
// with a *ReleasedError rather than answer with a partial sum.
func Query(addrs []string, key uint64, candidates []int) (int64, error) {
	var total int64
	for _, w := range candidates {
		if w < 0 || w >= len(addrs) {
			return 0, fmt.Errorf("transport: candidate %d out of range", w)
		}
		rep, err := QueryAddr(addrs[w], wire.Query{Op: wire.OpCount, Key: key})
		if err != nil {
			return 0, err
		}
		if rep.Floor > 0 {
			return 0, &ReleasedError{Addr: addrs[w], Floor: rep.Floor}
		}
		total += rep.Count
	}
	return total, nil
}

// DrainResults polls a windowed final node until every upstream source
// has sent its final mark (Reply.Done), then pages through its closed
// (key, window) results from offset 0 — the client half of
// window.FinalHandler's OpResults protocol (Query.Key carries the page
// offset). It needs the node's whole log: on a node that has released
// results to push subscribers it fails with a *ReleasedError naming
// the floor.
func DrainResults(addr string, timeout time.Duration) ([]wire.WindowResult, error) {
	// Wait on the cheap fixed-size status probe; shipping result pages
	// only starts once the node is done.
	deadline := time.Now().Add(timeout)
	var rep wire.Reply
	for {
		var err error
		rep, err = QueryAddr(addr, wire.Query{Op: wire.OpStats})
		if err == nil && rep.Done {
			break
		}
		if time.Now().After(deadline) {
			if err == nil {
				err = fmt.Errorf("transport: %s not done after %v (%d results)",
					addr, timeout, rep.Count)
			}
			return nil, err
		}
		time.Sleep(5 * time.Millisecond)
	}
	var out []wire.WindowResult
	for int64(len(out)) < rep.Count {
		next, err := QueryAddr(addr, wire.Query{Op: wire.OpResults, Key: uint64(len(out))})
		if err != nil {
			return nil, err
		}
		if next.Floor > int64(len(out)) {
			return nil, &ReleasedError{Addr: addr, Floor: next.Floor, Offset: int64(len(out))}
		}
		if len(next.Results) == 0 {
			return nil, fmt.Errorf("transport: drain %s stalled at %d/%d results",
				addr, len(out), rep.Count)
		}
		out = append(out, next.Results...)
	}
	return out, nil
}

// SubscribeResults registers with a windowed final node for push
// delivery and accumulates the pushed closed-window results until the
// node reports Done — the drain-free replacement for DrainResults:
// instead of polling OpStats, the node writes a Reply frame on this
// connection the moment windows close, so results arrive with no poll
// interval in the latency path. The session starts at offset 0, so on a
// node that has already released results to other subscribers it is
// refused: the node answers with one frame naming its floor, and this
// returns a *ReleasedError.
func SubscribeResults(addr string, timeout time.Duration) ([]wire.WindowResult, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("transport: subscribe dial %s: %w", addr, err)
	}
	defer conn.Close()
	buf := wire.AppendSubscribe(nil, wire.Subscribe{})
	if _, err := conn.Write(buf); err != nil {
		return nil, err
	}
	if err := conn.SetReadDeadline(time.Now().Add(timeout)); err != nil {
		return nil, err
	}
	r := bufio.NewReaderSize(conn, 1<<17)
	var out []wire.WindowResult
	var payload []byte
	for {
		kind, p, err := wire.ReadFrame(r, payload)
		if err != nil {
			return nil, fmt.Errorf("transport: subscribe %s after %d results: %w",
				addr, len(out), err)
		}
		payload = p
		if kind != wire.KindReply {
			return nil, fmt.Errorf("transport: %s pushed a %v frame", addr, kind)
		}
		rep, err := wire.DecodeReply(p)
		if err != nil {
			return nil, err
		}
		if rep.Floor > int64(len(out)) {
			return nil, &ReleasedError{Addr: addr, Floor: rep.Floor, Offset: int64(len(out))}
		}
		out = append(out, rep.Results...)
		// The node sets Done on the last frame of a fully caught-up
		// push (its result log is final and everything from the
		// subscription offset has been delivered), so Done alone ends
		// the session — correct for any Subscribe offset, since
		// Reply.Count is the node's TOTAL log length, not the
		// subscriber's share.
		if rep.Done {
			return out, nil
		}
	}
}

// SplitAddrs parses a comma-separated node address list (the form the
// PKGNODE_*_ADDRS environment variables and pkgnode's -final flag
// take), trimming whitespace and dropping empty entries.
func SplitAddrs(s string) []string {
	var out []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

// QueryAddr sends one point query to a worker address over a fresh
// connection and returns the reply.
func QueryAddr(addr string, q wire.Query) (wire.Reply, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return wire.Reply{}, fmt.Errorf("transport: query dial %s: %w", addr, err)
	}
	defer conn.Close()
	buf := wire.AppendQuery(nil, q)
	if _, err := conn.Write(buf); err != nil {
		return wire.Reply{}, err
	}
	if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		return wire.Reply{}, err
	}
	kind, payload, err := wire.ReadFrame(bufio.NewReader(conn), nil)
	if err != nil {
		return wire.Reply{}, fmt.Errorf("transport: query %s: %w", addr, err)
	}
	if kind != wire.KindReply {
		return wire.Reply{}, fmt.Errorf("transport: %s answered with %v", addr, kind)
	}
	return wire.DecodeReply(payload)
}
