// Package engine is a miniature Storm-like distributed stream processing
// engine (DSPE): topologies are DAGs of spouts (sources) and bolts
// (operators), each component runs as a set of parallel instances (the
// paper's PEIs), and edges carry tuples partitioned by a pluggable
// stream grouping. It supplies the substrate the paper deploys on — in
// particular, PARTIAL KEY GROUPING is implemented exactly as the paper
// describes for Storm: a custom grouping of a handful of lines keeping a
// local load vector per emitting instance (see Partial in grouping.go).
//
// The engine runs each processing element instance on its own goroutine
// with a bounded input queue, giving real backpressure, real concurrency
// and real per-instance load imbalance — a faithful small-scale stand-in
// for the paper's Storm cluster.
package engine

import (
	"fmt"
	"math"
	"time"
	"unsafe"

	"pkgstream/internal/route"
)

// Values is the payload of a tuple.
type Values []any

// Tuple is the unit of data flowing through a topology.
type Tuple struct {
	// Key is the grouping key (what key grouping and partial key
	// grouping hash).
	Key string
	// KeyHash is the 64-bit routing hash of Key, the value the shared
	// routing core (internal/route) operates on. The runtime caches it
	// on first emit, so the key bytes are hashed once per tuple and
	// every downstream edge derives its candidates by mixing this hash
	// with its own seed; when Key is set, the runtime maintains this
	// field — treat it as read-only. Integer-keyed streams may set it
	// directly and leave Key empty — string and uint64 keys share one
	// routing path. Zero is the "unset" sentinel: a tuple whose KeyHash
	// is 0 routes as the empty key, so integer-keyed streams should set
	// a hash of their ID (any 64-bit mix), not a raw ID that may be 0.
	KeyHash uint64
	// hashedPtr/hashedLen record which Key value KeyHash was computed
	// from — the data pointer and length of that string — so a bolt
	// that rekeys a received tuple (t.Key = newKey; out.Emit(t)) gets a
	// fresh hash instead of routing by the stale one. Matching on
	// (pointer, length) is sound: two string headers with the same data
	// pointer and length hold the same bytes. The pair costs 10 bytes
	// where a string field costs 16, which is what keeps Tuple at 80
	// bytes with the 8-byte TraceID on board — the emit path moves
	// tuples by value, and +8 bytes measured ~14% on the batched hot
	// path (see LatStamp). Keys longer than 64 KiB are simply never
	// cached (hashed on every RouteKey), so the length fits uint16.
	hashedPtr *byte
	// Values is the payload.
	Values Values
	// EmitNanos is stamped by the runtime when a spout first emits the
	// tuple (if zero); bolts that derive tuples may copy it forward to
	// measure end-to-end latency at a sink. Windowed topologies often
	// pre-stamp it with LOGICAL event time for deterministic window
	// assignment, which is why latency measurement does not read it —
	// see LatStamp.
	EmitNanos int64
	// TraceID identifies the distributed trace this tuple belongs to:
	// the runtime assigns a fresh non-zero ID to a sampled
	// 1-in-Options.TraceSample subset of spout emits, every layer the
	// tuple passes appends a span to its process's ring buffer
	// (internal/trace), and forwarders carry the ID across process
	// boundaries in the tuple body (wire flag bit 8). Zero means "not
	// traced" and is the only per-tuple cost of the disabled path.
	// Declared before the narrow fields so the struct packs to 80 bytes.
	TraceID uint64
	// LatStamp is the wall-clock latency stamp: the runtime sets it
	// (via LatStampNow) on a sampled 1-in-Options.LatencySample subset
	// of spout emits (never overwriting a caller's value), downstream
	// observation points — sink delivery, the windowed partial stage,
	// remote partial handlers — resolve it against their own clock with
	// LatSince, and forwarders copy it across process boundaries in the
	// tuple body. Independent of EmitNanos so logical event time and
	// measured wall latency never fight over one field, and
	// deliberately 4 bytes — absolute microseconds truncated to 32
	// bits — so carrying it does not grow the Tuple struct (the emit
	// path moves tuples by value; +8 bytes measured ~14% on the batched
	// hot path). Zero means "not sampled".
	LatStamp uint32
	// hashedLen is the length half of the hash cache (see hashedPtr).
	hashedLen uint16
	// Tick marks engine-generated timer tuples (see BoltDecl.TickEvery).
	Tick bool
}

// LatStampNow reads the wall clock as a latency stamp: absolute
// microseconds truncated to 32 bits. Stamps wrap every ~71.6 minutes
// and LatSince resolves the wrap, so any in-flight latency below ~35
// minutes — half the wrap period, far beyond any streaming tuple's
// life — measures exactly. 0 is reserved as Tuple.LatStamp's "not
// sampled" sentinel; the one genuine zero per wrap maps to 1 (a 1 µs
// error once per 71.6 minutes).
func LatStampNow() uint32 {
	if s := uint32(uint64(time.Now().UnixNano()) / 1000); s != 0 {
		return s
	}
	return 1
}

// LatSince returns the nanoseconds elapsed since a LatStampNow stamp,
// resolving the 32-bit wrap (exact below ~35 minutes of flight time).
// Cross-machine clock skew can drive it negative; histogram
// observation clamps that to zero.
func LatSince(stamp uint32) int64 {
	return int64(int32(uint32(uint64(time.Now().UnixNano())/1000)-stamp)) * 1000
}

// RouteKey returns the 64-bit key the routing core routes on, computing
// and caching the hash of Key unless the cache already matches it (the
// match compares the key string's data pointer and length — the
// pointer-fast path for forwarded tuples, and header equality implies
// byte equality, so a hit is always sound). Tuples with an explicit
// KeyHash and no Key (integer-keyed streams) pass through untouched.
func (t *Tuple) RouteKey() uint64 {
	if t.Key == "" {
		if t.hashedPtr != nil {
			// The key was cleared after a string key's hash was cached.
			// If KeyHash is still that stale cache, rehash as the empty
			// key; if the caller overwrote it (string→integer key
			// conversion: set KeyHash, clear Key), their value stands.
			// The cached pointer keeps the old key's bytes reachable, so
			// rebuilding the string it was computed from is safe.
			if t.KeyHash == route.KeyHash(unsafe.String(t.hashedPtr, int(t.hashedLen))) {
				t.KeyHash = route.KeyHash("")
			}
			t.hashedPtr = nil
			t.hashedLen = 0
		} else if t.KeyHash == 0 {
			// Nothing cached and no explicit hash: the empty string key,
			// routed by its own hash so it lands with fresh Tuple{Key: ""}
			// tuples. Integer-keyed tuples (explicit non-zero KeyHash)
			// pass through untouched.
			t.KeyHash = route.KeyHash("")
		}
		return t.KeyHash
	}
	if t.KeyHash == 0 || t.hashedPtr != unsafe.StringData(t.Key) || int(t.hashedLen) != len(t.Key) {
		t.KeyHash = route.KeyHash(t.Key)
		if len(t.Key) <= math.MaxUint16 {
			t.hashedPtr = unsafe.StringData(t.Key)
			t.hashedLen = uint16(len(t.Key))
		} else {
			// Oversized keys are hashed on every call rather than widening
			// the cache; no real key is 64 KiB.
			t.hashedPtr = nil
			t.hashedLen = 0
		}
	}
	return t.KeyHash
}

// HashedTuple returns a tuple keyed by key whose routing hash is already
// known — hash must be route.KeyHash(key), as carried by a wire frame
// the sender computed it for. The hash cache starts warm, so RouteKey
// does not hash the string again; with a zero hash (or an empty key) it
// is the plain Tuple{Key: key, KeyHash: hash}.
func HashedTuple(key string, hash uint64) Tuple {
	t := Tuple{Key: key, KeyHash: hash}
	if key != "" && hash != 0 && len(key) <= math.MaxUint16 {
		t.hashedPtr = unsafe.StringData(key)
		t.hashedLen = uint16(len(key))
	}
	return t
}

// Context describes the processing element instance a component runs as.
type Context struct {
	// Topology is the topology name.
	Topology string
	// Component is the component name.
	Component string
	// Index is the instance index in [0, Parallelism).
	Index int
	// Parallelism is the number of instances of this component.
	Parallelism int
}

// Emitter sends tuples downstream. Emit blocks when a destination queue
// is full (backpressure).
type Emitter interface {
	Emit(t Tuple)
}

// Spout is a stream source. The runtime calls Next repeatedly from a
// single goroutine until it returns false, then Close.
type Spout interface {
	// Open is called once before the first Next.
	Open(ctx *Context)
	// Next emits zero or more tuples and reports whether the spout has
	// more data.
	Next(out Emitter) bool
	// Close is called once after the last Next.
	Close()
}

// Bolt is a stream operator. The runtime calls Execute for every input
// tuple from a single goroutine, then Cleanup once when all inputs are
// exhausted. Cleanup may emit (e.g. flush partial aggregates).
type Bolt interface {
	// Prepare is called once before the first Execute.
	Prepare(ctx *Context)
	// Execute processes one tuple, optionally emitting derived tuples.
	Execute(t Tuple, out Emitter)
	// Cleanup flushes remaining state when the input stream ends.
	Cleanup(out Emitter)
}

// BoltFunc adapts a function to the Bolt interface (no state hooks).
type BoltFunc func(t Tuple, out Emitter)

// Prepare implements Bolt.
func (f BoltFunc) Prepare(*Context) {}

// Execute implements Bolt.
func (f BoltFunc) Execute(t Tuple, out Emitter) { f(t, out) }

// Cleanup implements Bolt.
func (f BoltFunc) Cleanup(Emitter) {}

// input is one subscription of a bolt to an upstream component.
type input struct {
	from    string
	factory GroupingFactory
}

type spoutDecl struct {
	name        string
	factory     func() Spout
	parallelism int
}

type boltDecl struct {
	name        string
	factory     func() Bolt
	parallelism int
	inputs      []input
	tickEvery   time.Duration
}

// Builder assembles a Topology. Errors are accumulated and reported by
// Build, so declarations chain fluently.
type Builder struct {
	name   string
	seed   uint64
	spouts []spoutDecl
	bolts  []*BoltDecl
	errs   []error
}

// NewBuilder returns a Builder for a topology with the given name. The
// seed derives every grouping's hash functions, making runs reproducible.
func NewBuilder(name string, seed uint64) *Builder {
	return &Builder{name: name, seed: seed}
}

// AddSpout declares a stream source with the given parallelism. The
// factory is invoked once per instance.
func (b *Builder) AddSpout(name string, factory func() Spout, parallelism int) *Builder {
	if factory == nil {
		b.errs = append(b.errs, fmt.Errorf("engine: spout %q has nil factory", name))
		return b
	}
	b.spouts = append(b.spouts, spoutDecl{name: name, factory: factory, parallelism: parallelism})
	return b
}

// BoltDecl is a bolt under construction; chain Input (and optionally
// TickEvery) calls on it.
type BoltDecl struct {
	b    *Builder
	decl boltDecl
}

// AddBolt declares an operator with the given parallelism. The factory is
// invoked once per instance. Subscribe it to upstream components with
// Input.
func (b *Builder) AddBolt(name string, factory func() Bolt, parallelism int) *BoltDecl {
	bd := &BoltDecl{b: b, decl: boltDecl{name: name, factory: factory, parallelism: parallelism}}
	if factory == nil {
		b.errs = append(b.errs, fmt.Errorf("engine: bolt %q has nil factory", name))
	}
	b.bolts = append(b.bolts, bd)
	return bd
}

// Input subscribes the bolt to an upstream component with the given
// grouping.
func (bd *BoltDecl) Input(from string, g GroupingFactory) *BoltDecl {
	if g == nil {
		bd.b.errs = append(bd.b.errs,
			fmt.Errorf("engine: bolt %q input from %q has nil grouping", bd.decl.name, from))
		return bd
	}
	bd.decl.inputs = append(bd.decl.inputs, input{from: from, factory: g})
	return bd
}

// TickEvery makes the runtime deliver a Tick tuple to every instance of
// this bolt at the given wall-clock period — the mechanism behind the
// paper's periodic aggregation windows ("each T seconds").
func (bd *BoltDecl) TickEvery(d time.Duration) *BoltDecl {
	bd.decl.tickEvery = d
	return bd
}

// WindowedOp describes a two-phase windowed aggregation operator pair:
// a partial stage that accumulates under any grouping (partial key
// grouping splits each key over two instances) and a final stage that
// merges the periodically flushed partials and closes windows. It is
// implemented by internal/window.Plan; the engine stays agnostic of the
// window semantics and only wires the pair into the topology.
type WindowedOp interface {
	// NewPartial returns one partial-stage bolt instance.
	NewPartial() Bolt
	// NewFinal returns one final-stage bolt instance.
	NewFinal() Bolt
	// FinalParallelism is the final stage's instance count.
	FinalParallelism() int
	// FinalGrouping routes the partial→final edge (keyed for data,
	// broadcast for watermark marks).
	FinalGrouping() GroupingFactory
	// TickEvery is the wall-clock flush period for the partial stage
	// (0: no timer ticks).
	TickEvery() time.Duration
}

// RemoteWindowedOp is the optional WindowedOp extension behind the
// RemoteFinal option: ops that can forward their final stage across a
// process boundary return a forwarder-bolt factory for the given remote
// node addresses. Implemented by internal/window.Plan.
type RemoteWindowedOp interface {
	WindowedOp
	// NewRemoteFinal returns the factory for the forwarder replacing
	// the in-process final stage; seed derives the key→node hash.
	NewRemoteFinal(addrs []string, seed uint64) (func() Bolt, error)
}

// WindowedOption customizes a WindowedAggregate declaration.
type WindowedOption func(*windowedCfg)

type windowedCfg struct {
	remote        []string
	remotePartial *RemotePartialConfig
}

// RemoteFinal replaces the aggregation's in-process final stage with a
// forwarder that ships flushed partials (key-grouped) and watermark
// marks to remote final nodes at the given addresses — the multi-process
// form of the two-phase plan. The op must implement RemoteWindowedOp,
// and the aggregation's output then materializes at the remote nodes
// (query them with transport point queries); the local component named
// by the declaration emits nothing.
func RemoteFinal(addrs ...string) WindowedOption {
	return func(c *windowedCfg) { c.remote = addrs }
}

// WindowedAggregate declares a two-phase windowed aggregation: a partial
// stage named name+".partial" with the given parallelism, and the final
// stage named name — the PKG-partial → KG-final plan every split-key
// topology needs (paper §IV). Chain Input on the returned declaration to
// subscribe the partial stage to its upstream (typically with Partial());
// downstream bolts subscribe to name and receive the final stage's
// output. With the RemoteFinal option the final stage instead forwards
// over TCP to remote nodes (see RemoteFinal).
func (b *Builder) WindowedAggregate(name string, op WindowedOp, parallelism int, opts ...WindowedOption) *BoltDecl {
	if op == nil {
		b.errs = append(b.errs, fmt.Errorf("engine: windowed aggregate %q has nil op", name))
		return &BoltDecl{b: b}
	}
	var cfg windowedCfg
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.remotePartial != nil {
		if len(cfg.remote) > 0 {
			b.errs = append(b.errs, fmt.Errorf(
				"engine: windowed aggregate %q: RemotePartial and RemoteFinal are exclusive (partial nodes forward to their own finals)", name))
			return &BoltDecl{b: b}
		}
		rop, ok := op.(RemotePartialOp)
		if !ok {
			b.errs = append(b.errs, fmt.Errorf(
				"engine: windowed aggregate %q: op %T cannot run its partial stage remotely", name, op))
			return &BoltDecl{b: b}
		}
		factory, err := rop.NewRemotePartial(*cfg.remotePartial, b.seed)
		if err != nil {
			b.errs = append(b.errs, fmt.Errorf("engine: windowed aggregate %q: %w", name, err))
			return &BoltDecl{b: b}
		}
		// One forwarder funnel: the flow-controlled, PKG-routed hop to
		// the partial nodes happens inside it on ONE per-source load
		// view and sketch, so node count and the declared parallelism
		// stay independent. No timer ticks: flush cadence is the partial
		// nodes' business now.
		return b.AddBolt(name+".partial", factory, 1)
	}
	partial := b.AddBolt(name+".partial", op.NewPartial, parallelism)
	if d := op.TickEvery(); d > 0 {
		partial.TickEvery(d)
	}
	if len(cfg.remote) > 0 {
		rop, ok := op.(RemoteWindowedOp)
		if !ok {
			b.errs = append(b.errs, fmt.Errorf(
				"engine: windowed aggregate %q: op %T cannot host a remote final", name, op))
			return partial
		}
		factory, err := rop.NewRemoteFinal(cfg.remote, b.seed)
		if err != nil {
			b.errs = append(b.errs, fmt.Errorf("engine: windowed aggregate %q: %w", name, err))
			return partial
		}
		// One forwarder funnel: the key-grouped hop to the remote nodes
		// happens inside it, so node count and parallelism stay free.
		b.AddBolt(name, factory, 1).Input(name+".partial", op.FinalGrouping())
		return partial
	}
	b.AddBolt(name, op.NewFinal, op.FinalParallelism()).
		Input(name+".partial", op.FinalGrouping())
	return partial
}

// Topology is a validated dataflow DAG ready to run.
type Topology struct {
	name   string
	seed   uint64
	spouts []spoutDecl
	bolts  []boltDecl
	// order holds bolt names in topological order (for deterministic
	// startup; execution itself is concurrent).
	order []string
}

// Name returns the topology name.
func (t *Topology) Name() string { return t.name }

// Build validates the declarations and returns the Topology: names must
// be unique and non-empty, parallelism positive, inputs must reference
// declared components, every bolt needs at least one input, at least one
// spout must exist, and the component graph must be acyclic.
func (b *Builder) Build() (*Topology, error) {
	if len(b.errs) > 0 {
		return nil, b.errs[0]
	}
	if len(b.spouts) == 0 {
		return nil, fmt.Errorf("engine: topology %q has no spouts", b.name)
	}
	seen := map[string]bool{}
	check := func(name string, parallelism int, kind string) error {
		if name == "" {
			return fmt.Errorf("engine: %s with empty name", kind)
		}
		if seen[name] {
			return fmt.Errorf("engine: duplicate component name %q", name)
		}
		seen[name] = true
		if parallelism <= 0 {
			return fmt.Errorf("engine: %s %q has parallelism %d", kind, name, parallelism)
		}
		return nil
	}
	for _, s := range b.spouts {
		if err := check(s.name, s.parallelism, "spout"); err != nil {
			return nil, err
		}
	}
	bolts := make([]boltDecl, 0, len(b.bolts))
	for _, bd := range b.bolts {
		if err := check(bd.decl.name, bd.decl.parallelism, "bolt"); err != nil {
			return nil, err
		}
		if len(bd.decl.inputs) == 0 {
			return nil, fmt.Errorf("engine: bolt %q has no inputs", bd.decl.name)
		}
		bolts = append(bolts, bd.decl)
	}
	for _, bd := range bolts {
		for _, in := range bd.inputs {
			if !seen[in.from] {
				return nil, fmt.Errorf("engine: bolt %q subscribes to unknown component %q",
					bd.name, in.from)
			}
		}
	}
	order, err := topoSort(b.spouts, bolts)
	if err != nil {
		return nil, err
	}
	return &Topology{name: b.name, seed: b.seed, spouts: b.spouts, bolts: bolts, order: order}, nil
}

// topoSort returns bolt names in topological order, or an error if the
// component graph has a cycle.
func topoSort(spouts []spoutDecl, bolts []boltDecl) ([]string, error) {
	isSpout := map[string]bool{}
	for _, s := range spouts {
		isSpout[s.name] = true
	}
	indeg := map[string]int{}
	succ := map[string][]string{}
	for _, b := range bolts {
		indeg[b.name] = 0
	}
	for _, b := range bolts {
		for _, in := range b.inputs {
			if isSpout[in.from] {
				continue
			}
			succ[in.from] = append(succ[in.from], b.name)
			indeg[b.name]++
		}
	}
	var queue []string
	for _, b := range bolts {
		if indeg[b.name] == 0 {
			queue = append(queue, b.name)
		}
	}
	var order []string
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		order = append(order, n)
		for _, m := range succ[n] {
			indeg[m]--
			if indeg[m] == 0 {
				queue = append(queue, m)
			}
		}
	}
	if len(order) != len(bolts) {
		return nil, fmt.Errorf("engine: topology contains a cycle")
	}
	return order, nil
}
