package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// encodeAll returns one encoded frame per kind, exercising every
// optional field combination worth a seed.
func encodeAll(t testing.TB) [][]byte {
	t.Helper()
	var frames [][]byte
	add := func(b []byte, err error) {
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, b)
	}
	add(AppendTuple(nil, &Tuple{KeyHash: 0xdeadbeef, EmitNanos: 12345}))
	add(AppendTuple(nil, &Tuple{
		KeyHash: 7, Key: "gopher", EmitNanos: -3, Tick: true,
		Values: []any{int64(-42), 42, uint64(1) << 63, 3.14, true, false, "str", []byte{1, 2, 3}},
	}))
	add(AppendPartial(nil, &Partial{KeyHash: 9, Key: "word", Start: 1e9, Count: 17}), nil)
	add(AppendPartial(nil, &Partial{KeyHash: 9, Start: -5, Raw: []byte{0xca, 0xfe}}), nil)
	add(AppendMark(nil, Mark{Source: 3, WM: 1 << 40}), nil)
	add(AppendMark(nil, Mark{Source: math.MaxUint32, WM: math.MaxInt64}), nil)
	add(AppendSketch(nil, &Sketch{K: 4, N: 100, Items: []SketchItem{
		{Item: 1, Count: 60, Err: 0}, {Item: 2, Count: 30, Err: 10},
	}}), nil)
	add(AppendQuery(nil, Query{Op: OpCount, Key: 77}), nil)
	add(AppendQuery(nil, Query{Op: OpResults}), nil)
	add(AppendReply(nil, &Reply{Op: OpCount, Count: 12}), nil)
	add(AppendReply(nil, &Reply{Op: OpResults, Done: true, Results: []WindowResult{
		{KeyHash: 1, Key: "a", Start: 0, End: 30e9, Value: 5},
		{KeyHash: 2, Start: 30e9, End: 60e9, Raw: []byte{9}},
	}}), nil)
	add(AppendCredit(nil, Credit{Window: 1}), nil)
	add(AppendCredit(nil, Credit{Window: 1 << 20}), nil)
	add(AppendAck(nil, Ack{Count: 0}), nil)
	add(AppendAck(nil, Ack{Count: math.MaxInt64}), nil)
	add(AppendSubscribe(nil, Subscribe{Offset: 0}), nil)
	add(AppendSubscribe(nil, Subscribe{Offset: 32768}), nil)
	// Batch frames last, so the earlier seed filenames (indexed by
	// position here) stay stable across corpus regenerations.
	add(AppendTupleBatch(nil, []Tuple{
		{KeyHash: 0xfeed, EmitNanos: 1},
		{KeyHash: 8, Key: "batched", EmitNanos: -9, Tick: true,
			Values: []any{int64(5), uint64(6), 2.5, true, "v", []byte{7}}},
		{KeyHash: 1 << 60},
	}))
	add(AppendTupleBatch(nil, nil))
	add(AppendTuple(nil, &Tuple{KeyHash: 11, EmitNanos: 77, LatStamp: 1234567}))
	add(AppendTupleBatch(nil, []Tuple{
		{KeyHash: 12, EmitNanos: 1, LatStamp: 4e9},
		{KeyHash: 13, EmitNanos: 2},
	}))
	add(AppendTuple(nil, &Tuple{KeyHash: 21, EmitNanos: 5, TraceID: 0x0123456789abcdef}))
	add(AppendTuple(nil, &Tuple{
		KeyHash: 22, Key: "traced", EmitNanos: 6, LatStamp: 9, TraceID: 1,
		Values: []any{int64(3)},
	}))
	add(AppendPartial(nil, &Partial{KeyHash: 9, Key: "word", Start: 2e9, Count: 3, TraceID: math.MaxUint64}), nil)
	add(AppendTupleBatch(nil, []Tuple{
		{KeyHash: 14, EmitNanos: 3, TraceID: 7},
		{KeyHash: 15, EmitNanos: 4},
	}))
	add(AppendQuery(nil, Query{Op: OpTrace}), nil)
	// Replies carrying the optional trailing section. Cutting one exactly
	// at the section boundary yields a valid pre-section reply by design
	// (that is the compatibility contract), which is why
	// TestTruncationNeverPanics accepts a prefix only when re-encoding it
	// is byte-identical.
	add(AppendReply(nil, &Reply{Op: OpStats, Count: 6,
		Lat:   &LatencyHist{Sum: 12345, Buckets: []HistBucket{{Index: 3, Count: 7}}},
		Stale: &LatencyHist{Sum: 9e9, Buckets: []HistBucket{{Index: 1100, Count: 4}}},
	}), nil)
	add(AppendReply(nil, &Reply{Op: OpTrace, Proc: "pkgnode-final@127.0.0.1:7411",
		Spans: []Span{{Trace: 0xabc, Start: 100, Dur: 5, Arg1: 2, Arg2: -1, Hop: 1, Note: "PKG cands=[1 0]"}},
	}), nil)
	add(AppendReply(nil, &Reply{Op: OpStats, Count: 4, Telemetry: &Telemetry{
		EdgeInFlight: 3, EdgeQueue: 2, EdgeFrames: 100, EdgeStalls: 5,
		EdgeWaitNs: 9e6, WatermarkLagNs: 2e9, WindowBacklog: 7, ServiceNs: 450,
		CreditWait: &LatencyHist{Sum: 9e6, Buckets: []HistBucket{{Index: 900, Count: 5}}},
	}}), nil)
	// Adaptive flow control frames (PR 10), appended at corpus end.
	add(AppendCreditUpdate(nil, CreditUpdate{Window: 1}), nil)
	add(AppendCreditUpdate(nil, CreditUpdate{Window: 1 << 18}), nil)
	add(AppendAck(nil, Ack{Count: 4096, ServiceNs: 230}), nil)
	add(AppendAck(nil, Ack{Count: math.MaxInt64, ServiceNs: math.MaxInt64}), nil)
	add(AppendReply(nil, &Reply{Op: OpStats, Count: 2, Telemetry: &Telemetry{
		EdgeInFlight: 1, EdgeFrames: 10, ServiceNs: 90, EdgeWindow: 2048,
		CreditWait: &LatencyHist{Sum: 3e6, Buckets: []HistBucket{{Index: 870, Count: 1}}},
	}}), nil)
	// A final node's page push: pre-encoded results under one header.
	var page []byte
	for _, r := range []WindowResult{
		{KeyHash: 31, Key: "paged", Start: 0, End: 50e6, Value: 12},
		{KeyHash: 32, Start: 50e6, End: 100e6, Value: 1},
		{KeyHash: 33, Key: "raw", Start: 50e6, End: 100e6, Raw: []byte{4, 2}},
	} {
		page = AppendResult(page, &r)
	}
	add(append(AppendResultsHeader(nil, 7, true, 3, len(page)), page...), nil)
	return frames
}

// decodeFrame decodes one framed payload by kind, returning the decoded
// value for equality checks.
func decodeFrame(kind Kind, payload []byte) (any, error) {
	switch kind {
	case KindTuple:
		var tu Tuple
		err := DecodeTuple(payload, &tu)
		return tu, err
	case KindPartial:
		var p Partial
		err := DecodePartial(payload, &p)
		return p, err
	case KindMark:
		return DecodeMark(payload)
	case KindSketch:
		return DecodeSketch(payload)
	case KindQuery:
		return DecodeQuery(payload)
	case KindReply:
		return DecodeReply(payload)
	case KindCredit:
		return DecodeCredit(payload)
	case KindAck:
		return DecodeAck(payload)
	case KindSubscribe:
		return DecodeSubscribe(payload)
	case KindTupleBatch:
		ts, err := DecodeTupleBatch(payload, nil)
		return ts, err
	case KindCreditUpdate:
		return DecodeCreditUpdate(payload)
	default:
		panic("unreachable: ReadFrame only returns known kinds")
	}
}

// reencode encodes a decoded frame value back to wire form.
func reencode(v any) []byte {
	switch v := v.(type) {
	case Tuple:
		b, err := AppendTuple(nil, &v)
		if err != nil {
			panic(err)
		}
		return b
	case Partial:
		return AppendPartial(nil, &v)
	case Mark:
		return AppendMark(nil, v)
	case Sketch:
		return AppendSketch(nil, &v)
	case Query:
		return AppendQuery(nil, v)
	case Reply:
		return AppendReply(nil, &v)
	case Credit:
		return AppendCredit(nil, v)
	case Ack:
		return AppendAck(nil, v)
	case Subscribe:
		return AppendSubscribe(nil, v)
	case []Tuple:
		b, err := AppendTupleBatch(nil, v)
		if err != nil {
			panic(err)
		}
		return b
	case CreditUpdate:
		return AppendCreditUpdate(nil, v)
	default:
		panic("unreachable")
	}
}

func TestRoundTripAllFrameKinds(t *testing.T) {
	for i, fr := range encodeAll(t) {
		kind, payload, err := ReadFrame(bytes.NewReader(fr), nil)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		v, err := decodeFrame(kind, payload)
		if err != nil {
			t.Fatalf("frame %d (%v): %v", i, kind, err)
		}
		if got := reencode(v); !bytes.Equal(got, fr) {
			t.Fatalf("frame %d (%v): re-encoded bytes differ\n got %x\nwant %x", i, kind, got, fr)
		}
	}
}

func TestTupleRoundTripValues(t *testing.T) {
	in := Tuple{
		KeyHash: 123, Key: "k", EmitNanos: 55, Tick: true,
		Values: []any{int64(1), 2, uint64(3), 4.5, true, "s", []byte{6}},
	}
	b, err := AppendTuple(nil, &in)
	if err != nil {
		t.Fatal(err)
	}
	var out Tuple
	if err := DecodeTuple(b[HeaderSize:], &out); err != nil {
		t.Fatal(err)
	}
	// int encodes as int64 by design.
	want := Tuple{
		KeyHash: 123, Key: "k", EmitNanos: 55, Tick: true,
		Values: []any{int64(1), int64(2), uint64(3), 4.5, true, "s", []byte{6}},
	}
	if !reflect.DeepEqual(out, want) {
		t.Fatalf("round trip:\n got %#v\nwant %#v", out, want)
	}
	if _, err := AppendTuple(nil, &Tuple{Values: []any{struct{}{}}}); err == nil {
		t.Fatal("unsupported value type accepted")
	}
}

func TestDecodeValuesReuseAcrossCalls(t *testing.T) {
	b1, _ := AppendTuple(nil, &Tuple{KeyHash: 1, Values: []any{int64(1), int64(2)}})
	b2, _ := AppendTuple(nil, &Tuple{KeyHash: 2})
	var tu Tuple
	if err := DecodeTuple(b1[HeaderSize:], &tu); err != nil {
		t.Fatal(err)
	}
	if len(tu.Values) != 2 {
		t.Fatalf("values = %v", tu.Values)
	}
	if err := DecodeTuple(b2[HeaderSize:], &tu); err != nil {
		t.Fatal(err)
	}
	if len(tu.Values) != 0 || tu.KeyHash != 2 {
		t.Fatalf("reused decode kept stale state: %#v", tu)
	}
}

// TestTupleBatchReuseAcrossCalls: the decode slice and each element's
// Values capacity survive across calls — the worker's steady-state
// zero-allocation path.
func TestTupleBatchReuseAcrossCalls(t *testing.T) {
	b1, err := AppendTupleBatch(nil, []Tuple{
		{KeyHash: 1, Values: []any{int64(10), int64(11)}},
		{KeyHash: 2, Values: []any{"x"}},
		{KeyHash: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	b2, err := AppendTupleBatch(nil, []Tuple{{KeyHash: 4}})
	if err != nil {
		t.Fatal(err)
	}
	ts, err := DecodeTupleBatch(b1[HeaderSize:], nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 3 || ts[0].KeyHash != 1 || len(ts[0].Values) != 2 || ts[1].Values[0] != "x" {
		t.Fatalf("first decode: %#v", ts)
	}
	ts, err = DecodeTupleBatch(b2[HeaderSize:], ts)
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 1 || ts[0].KeyHash != 4 || len(ts[0].Values) != 0 {
		t.Fatalf("reused decode kept stale state: %#v", ts)
	}
}

// TestTupleBatchHeaderMatchesAppend: framing pre-encoded bodies with
// AppendTupleBatchHeader is byte-identical to AppendTupleBatch — the
// edge's two-write send path speaks exactly the same frame.
func TestTupleBatchHeaderMatchesAppend(t *testing.T) {
	ts := []Tuple{
		{KeyHash: 5, Key: "k", EmitNanos: 9, Values: []any{int64(1)}},
		{KeyHash: 6, Tick: true},
	}
	want, err := AppendTupleBatch(nil, ts)
	if err != nil {
		t.Fatal(err)
	}
	var bodies []byte
	for i := range ts {
		if bodies, err = AppendTupleBody(bodies, &ts[i]); err != nil {
			t.Fatal(err)
		}
	}
	got := AppendTupleBatchHeader(nil, len(ts), len(bodies))
	got = append(got, bodies...)
	if !bytes.Equal(got, want) {
		t.Fatalf("two-write framing differs\n got %x\nwant %x", got, want)
	}
}

// TestResultsHeaderMatchesAppend: framing pre-encoded results with
// AppendResultsHeader is byte-identical to AppendReply for the same
// Reply — a final node's page pushes speak exactly the old frames — and
// DecodeResult walks the encodings back.
func TestResultsHeaderMatchesAppend(t *testing.T) {
	for _, rep := range []Reply{
		{Op: OpResults, Count: 2, Results: []WindowResult{
			{KeyHash: 1, Key: "gopher", Start: 0, End: 50e6, Value: 7},
			{KeyHash: 2, Key: "heron", Start: 50e6, End: 100e6, Value: -3},
		}},
		{Op: OpResults, Count: 9, Results: []WindowResult{
			{KeyHash: 1 << 63, Start: -5, End: 5, Value: math.MaxInt64},
		}},
		{Op: OpResults, Count: 3, Done: true, Results: []WindowResult{
			{KeyHash: 4, Key: "state", Start: 1, End: 2, Raw: []byte{0xca, 0xfe}},
			{KeyHash: 5, Start: 1, End: 2, Raw: []byte{}},
		}},
		{Op: OpResults, Count: 40, Done: true},
	} {
		want := AppendReply(nil, &rep)
		var body []byte
		for i := range rep.Results {
			body = AppendResult(body, &rep.Results[i])
		}
		got := AppendResultsHeader(nil, rep.Count, rep.Done, len(rep.Results), len(body))
		got = append(got, body...)
		if !bytes.Equal(got, want) {
			t.Fatalf("page framing differs\n got %x\nwant %x", got, want)
		}
		var res WindowResult
		for i := range rep.Results {
			n, err := DecodeResult(body, &res)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res, rep.Results[i]) {
				t.Fatalf("result %d: got %+v, want %+v", i, res, rep.Results[i])
			}
			body = body[n:]
		}
		if len(body) != 0 {
			t.Fatalf("%d bytes left after the last result", len(body))
		}
	}
}

// TestTupleBatchCorruptCount: a count field claiming more tuples than
// the payload could physically hold is rejected before any allocation.
func TestTupleBatchCorruptCount(t *testing.T) {
	b, err := AppendTupleBatch(nil, []Tuple{{KeyHash: 1}, {KeyHash: 2}})
	if err != nil {
		t.Fatal(err)
	}
	payload := append([]byte(nil), b[HeaderSize:]...)
	payload[0] = 0xfa // count 250 over two encoded bodies
	if _, err := DecodeTupleBatch(payload, nil); err == nil {
		t.Fatal("corrupt batch count accepted")
	}
	// A count just one over the real tuple run errors too (truncation,
	// not a bad allocation bound).
	payload[0] = 3
	if _, err := DecodeTupleBatch(payload, nil); err == nil {
		t.Fatal("over-counted batch accepted")
	}
}

// TestTupleLatStampRoundTrip: the sampled-latency stamp travels only
// when present — a zero stamp keeps the 18-byte hash-only body.
func TestTupleLatStampRoundTrip(t *testing.T) {
	plain, err := AppendTuple(nil, &Tuple{KeyHash: 1, EmitNanos: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(plain) != HeaderSize+tupleBodyMin {
		t.Fatalf("zero-stamp tuple is %d bytes, want the %d-byte fast path",
			len(plain), HeaderSize+tupleBodyMin)
	}
	stamped, err := AppendTuple(nil, &Tuple{KeyHash: 1, EmitNanos: 2, LatStamp: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(stamped) != len(plain)+4 {
		t.Fatalf("stamp costs %d bytes, want 4", len(stamped)-len(plain))
	}
	var out Tuple
	if err := DecodeTuple(stamped[HeaderSize:], &out); err != nil {
		t.Fatal(err)
	}
	if out.LatStamp != 3 || out.KeyHash != 1 || out.EmitNanos != 2 {
		t.Fatalf("round trip: %#v", out)
	}
	// Decoding an unstamped tuple into the same struct resets the stamp.
	if err := DecodeTuple(plain[HeaderSize:], &out); err != nil {
		t.Fatal(err)
	}
	if out.LatStamp != 0 {
		t.Fatalf("stale LatStamp survived reuse: %d", out.LatStamp)
	}
}

// TestReplyHistRoundTrip: the optional trailing histogram section of an
// OpStats reply — each combination round-trips, a pre-histogram reply
// decodes with nil histograms, and corrupt sections are rejected.
func TestReplyHistRoundTrip(t *testing.T) {
	lat := &LatencyHist{Sum: 12345, Buckets: []HistBucket{{Index: 3, Count: 7}, {Index: 200, Count: 1}}}
	stale := &LatencyHist{Sum: 9e9, Buckets: []HistBucket{{Index: 1100, Count: 4}}}
	for _, rep := range []Reply{
		{Op: OpStats, Count: 10, Lat: lat},
		{Op: OpStats, Count: 10, Stale: stale},
		{Op: OpStats, Count: 10, Done: true, Lat: lat, Stale: stale},
		{Op: OpStats, Count: 10, Lat: &LatencyHist{}}, // empty histogram still travels
	} {
		b := AppendReply(nil, &rep)
		got, err := DecodeReply(b[HeaderSize:])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, rep) {
			t.Fatalf("round trip:\n got %#v\nwant %#v", got, rep)
		}
	}
	// A reply without the section decodes to nil histograms (what an old
	// node's frames look like).
	old := AppendReply(nil, &Reply{Op: OpStats, Count: 5})
	got, err := DecodeReply(old[HeaderSize:])
	if err != nil {
		t.Fatal(err)
	}
	if got.Lat != nil || got.Stale != nil {
		t.Fatalf("pre-histogram reply grew histograms: %#v", got)
	}
	// Every strict truncation of the section errors; so do an unknown
	// histogram id and trailing bytes after the section.
	full := AppendReply(nil, &Reply{Op: OpStats, Lat: lat, Stale: stale})
	base := AppendReply(nil, &Reply{Op: OpStats})
	for cut := len(base) - HeaderSize + 1; cut < len(full)-HeaderSize; cut++ {
		if _, err := DecodeReply(full[HeaderSize:][:cut]); err == nil {
			t.Fatalf("section truncated at %d accepted", cut)
		}
	}
	bad := append(append([]byte(nil), full[HeaderSize:]...), 0)
	if _, err := DecodeReply(bad); err == nil {
		t.Fatal("trailing byte after section accepted")
	}
	bad = append([]byte(nil), full[HeaderSize:]...)
	bad[len(base)-HeaderSize+1] = 99 // first id byte
	if _, err := DecodeReply(bad); err == nil {
		t.Fatal("unknown histogram id accepted")
	}
}

// TestReplyTelemetryRoundTrip: the telemetry entry (secIDTelemetry) of
// a Reply's trailing section. Combinations round trip (alone, with and
// without the credit-wait histogram, alongside the other entries), a
// pre-telemetry reply decodes with a nil Telemetry, and truncated or
// flag-corrupted sections are rejected.
func TestReplyTelemetryRoundTrip(t *testing.T) {
	cw := &LatencyHist{Sum: 5e6, Buckets: []HistBucket{{Index: 880, Count: 2}, {Index: 901, Count: 1}}}
	full := Telemetry{
		EdgeInFlight: 12, EdgeQueue: 40, EdgeFrames: 1000, EdgeStalls: 3,
		EdgeWaitNs: 5e6, WatermarkLagNs: 1500e6, WindowBacklog: 9, ServiceNs: 230,
		CreditWait: cw,
	}
	for _, rep := range []Reply{
		{Op: OpStats, Count: 8, Telemetry: &full},
		{Op: OpStats, Telemetry: &Telemetry{}}, // all-zero snapshot still travels
		{Op: OpStats, Telemetry: &Telemetry{WatermarkLagNs: -1, ServiceNs: 77}},
		{Op: OpStats, Telemetry: &Telemetry{EdgeWindow: 4096}},
		{Op: OpStats, Telemetry: &Telemetry{EdgeWindow: 1, ServiceNs: 3, CreditWait: cw}},
		{Op: OpStats, Count: 8, Done: true,
			Lat:   &LatencyHist{Sum: 1, Buckets: []HistBucket{{Index: 1, Count: 1}}},
			Stale: &LatencyHist{}, Telemetry: &full},
	} {
		b := AppendReply(nil, &rep)
		got, err := DecodeReply(b[HeaderSize:])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, rep) {
			t.Fatalf("round trip:\n got %#v\nwant %#v", got, rep)
		}
	}
	// A reply without the section decodes to nil telemetry (an old node).
	old := AppendReply(nil, &Reply{Op: OpStats, Count: 5})
	got, err := DecodeReply(old[HeaderSize:])
	if err != nil {
		t.Fatal(err)
	}
	if got.Telemetry != nil {
		t.Fatalf("pre-telemetry reply grew telemetry: %#v", got)
	}
	// Every strict truncation of the telemetry section errors.
	fullB := AppendReply(nil, &Reply{Op: OpStats, Telemetry: &full})
	base := AppendReply(nil, &Reply{Op: OpStats})
	for cut := len(base) - HeaderSize + 1; cut < len(fullB)-HeaderSize; cut++ {
		if _, err := DecodeReply(fullB[HeaderSize:][:cut]); err == nil {
			t.Fatalf("telemetry section truncated at %d accepted", cut)
		}
	}
	// Unknown flag bits are rejected, not silently dropped — dropping
	// them would make decode(encode(x)) lossy for a future encoder.
	bad := append([]byte(nil), fullB[HeaderSize:]...)
	flagsOff := len(base) - HeaderSize + 2 // section count, id, then flags
	if bad[flagsOff] != 1 {
		t.Fatalf("test layout drifted: byte at %d = %d, want flags 1", flagsOff, bad[flagsOff])
	}
	bad[flagsOff] = 5 // bit 4 is unassigned
	if _, err := DecodeReply(bad); err == nil {
		t.Fatal("unknown telemetry flags accepted")
	}
	// Claiming the edge-window field (bit 2) without its bytes present
	// is a truncation, not a silent zero.
	bad[flagsOff] = 3
	if _, err := DecodeReply(bad); err == nil {
		t.Fatal("edge-window flag without the field accepted")
	}
	// Trailing bytes after the section stay an error.
	bad = append(append([]byte(nil), fullB[HeaderSize:]...), 0)
	if _, err := DecodeReply(bad); err == nil {
		t.Fatal("trailing byte after telemetry section accepted")
	}
}

// TestTupleTraceIDRoundTrip: the trace ID travels only on sampled
// tuples — a zero ID keeps the 18-byte hash-only body, a set one costs
// exactly 8 bytes (flag bit 8).
func TestTupleTraceIDRoundTrip(t *testing.T) {
	plain, err := AppendTuple(nil, &Tuple{KeyHash: 1, EmitNanos: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(plain) != HeaderSize+tupleBodyMin {
		t.Fatalf("untraced tuple is %d bytes, want the %d-byte fast path",
			len(plain), HeaderSize+tupleBodyMin)
	}
	traced, err := AppendTuple(nil, &Tuple{KeyHash: 1, EmitNanos: 2, TraceID: 0xfeedface})
	if err != nil {
		t.Fatal(err)
	}
	if len(traced) != len(plain)+8 {
		t.Fatalf("trace ID costs %d bytes, want 8", len(traced)-len(plain))
	}
	var out Tuple
	if err := DecodeTuple(traced[HeaderSize:], &out); err != nil {
		t.Fatal(err)
	}
	if out.TraceID != 0xfeedface || out.KeyHash != 1 || out.EmitNanos != 2 {
		t.Fatalf("round trip: %#v", out)
	}
	// Decoding an untraced tuple into the same struct resets the ID.
	if err := DecodeTuple(plain[HeaderSize:], &out); err != nil {
		t.Fatal(err)
	}
	if out.TraceID != 0 {
		t.Fatalf("stale TraceID survived reuse: %d", out.TraceID)
	}
	// Both optional scalars together stack in flag order: stamp then ID.
	both, err := AppendTuple(nil, &Tuple{KeyHash: 1, EmitNanos: 2, LatStamp: 3, TraceID: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(both) != len(plain)+12 {
		t.Fatalf("stamp+trace cost %d bytes, want 12", len(both)-len(plain))
	}
	if err := DecodeTuple(both[HeaderSize:], &out); err != nil {
		t.Fatal(err)
	}
	if out.LatStamp != 3 || out.TraceID != 4 {
		t.Fatalf("round trip: %#v", out)
	}
}

// TestPartialTraceIDRoundTrip: flag bit 4 carries a traced partial's
// ID; untraced partials are unchanged on the wire and decode resets a
// reused struct's ID.
func TestPartialTraceIDRoundTrip(t *testing.T) {
	plain := AppendPartial(nil, &Partial{KeyHash: 5, Key: "w", Start: 1e9, Count: 2})
	traced := AppendPartial(nil, &Partial{KeyHash: 5, Key: "w", Start: 1e9, Count: 2, TraceID: 77})
	if len(traced) != len(plain)+8 {
		t.Fatalf("trace ID costs %d bytes, want 8", len(traced)-len(plain))
	}
	var out Partial
	if err := DecodePartial(traced[HeaderSize:], &out); err != nil {
		t.Fatal(err)
	}
	if out.TraceID != 77 || out.Key != "w" || out.Count != 2 {
		t.Fatalf("round trip: %#v", out)
	}
	if err := DecodePartial(plain[HeaderSize:], &out); err != nil {
		t.Fatal(err)
	}
	if out.TraceID != 0 {
		t.Fatalf("stale TraceID survived reuse: %d", out.TraceID)
	}
}

// TestReplySpansRoundTrip: the span entry (secIDSpans) of a Reply's
// trailing section — an OpTrace reply's payload. Combinations round
// trip (alone and alongside histograms), a pre-span reply decodes with
// no spans, and corrupt sections are rejected.
func TestReplySpansRoundTrip(t *testing.T) {
	spans := []Span{
		{Trace: 0xabc, Start: 100, Dur: 5, Arg1: 2, Arg2: -1, Hop: 1, Note: "PKG cands=[1 0]"},
		{Trace: 0xabc, Start: 105, Hop: 9},
		{Start: 7, Hop: 11, Note: "redial 127.0.0.1:7411"}, // flight event, Trace 0
	}
	lat := &LatencyHist{Sum: 42, Buckets: []HistBucket{{Index: 2, Count: 3}}}
	for _, rep := range []Reply{
		{Op: OpTrace, Proc: "pkgnode-final@127.0.0.1:7411", Spans: spans},
		{Op: OpTrace, Proc: "engine"}, // recorded nothing: Proc travels, no spans
		{Op: OpTrace, Spans: spans[:1]},
		{Op: OpStats, Count: 9, Lat: lat, Proc: "p", Spans: spans[1:]},
	} {
		b := AppendReply(nil, &rep)
		got, err := DecodeReply(b[HeaderSize:])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, rep) {
			t.Fatalf("round trip:\n got %#v\nwant %#v", got, rep)
		}
	}
	// A reply without the section decodes to no spans (an old node).
	old := AppendReply(nil, &Reply{Op: OpTrace})
	got, err := DecodeReply(old[HeaderSize:])
	if err != nil {
		t.Fatal(err)
	}
	if got.Spans != nil || got.Proc != "" {
		t.Fatalf("pre-span reply grew spans: %#v", got)
	}
	// Every strict truncation of the span section errors.
	full := AppendReply(nil, &Reply{Op: OpTrace, Proc: "p", Spans: spans})
	base := AppendReply(nil, &Reply{Op: OpTrace})
	for cut := len(base) - HeaderSize + 1; cut < len(full)-HeaderSize; cut++ {
		if _, err := DecodeReply(full[HeaderSize:][:cut]); err == nil {
			t.Fatalf("span section truncated at %d accepted", cut)
		}
	}
	// A span count claiming more spans than the payload could physically
	// hold is rejected before any allocation.
	corrupt := AppendReply(nil, &Reply{Op: OpTrace, Proc: "p", Spans: spans[:1]})
	payload := append([]byte(nil), corrupt[HeaderSize:]...)
	// Layout: ...section count, secIDSpans, proc str "p" (uvarint 1 + 'p'),
	// span count — the last uvarint before the fixed span fields.
	idx := len(corrupt) - HeaderSize - (42 + len(spans[0].Note)) - 1
	if payload[idx] != 1 {
		t.Fatalf("test layout drifted: byte at %d = %d, want span count 1", idx, payload[idx])
	}
	payload[idx] = 250
	if _, err := DecodeReply(payload); err == nil {
		t.Fatal("corrupt span count accepted")
	}
	// Trailing bytes after the section stay an error.
	bad := append(append([]byte(nil), full[HeaderSize:]...), 0)
	if _, err := DecodeReply(bad); err == nil {
		t.Fatal("trailing byte after span section accepted")
	}
}

// TestAckServiceNsRoundTrip: the optional service-time piggyback on
// acks — absent on the zero value (old encoding preserved), present and
// round-tripping when set, canonical (an explicit zero is rejected as a
// trailing byte, not decoded back to the short form).
func TestAckServiceNsRoundTrip(t *testing.T) {
	plain := AppendAck(nil, Ack{Count: 9})
	got, err := DecodeAck(plain[HeaderSize:])
	if err != nil || got.ServiceNs != 0 || got.Count != 9 {
		t.Fatalf("plain ack: %#v, %v", got, err)
	}
	stamped := AppendAck(nil, Ack{Count: 9, ServiceNs: 480})
	if len(stamped) <= len(plain) {
		t.Fatalf("service time did not grow the frame: %d vs %d", len(stamped), len(plain))
	}
	got, err = DecodeAck(stamped[HeaderSize:])
	if err != nil || got.ServiceNs != 480 || got.Count != 9 {
		t.Fatalf("stamped ack: %#v, %v", got, err)
	}
	// A trailing zero is a non-canonical service field, not a valid ack.
	if _, err := DecodeAck(append(append([]byte(nil), plain[HeaderSize:]...), 0)); err == nil {
		t.Fatal("zero service field accepted")
	}
}

// TestCreditUpdateRoundTrip: the mid-session window re-size frame obeys
// the same validation as the session-opening Credit.
func TestCreditUpdateRoundTrip(t *testing.T) {
	b := AppendCreditUpdate(nil, CreditUpdate{Window: 512})
	kind, payload, err := ReadFrame(bytes.NewReader(b), nil)
	if err != nil || kind != KindCreditUpdate {
		t.Fatalf("read: %v, %v", kind, err)
	}
	u, err := DecodeCreditUpdate(payload)
	if err != nil || u.Window != 512 {
		t.Fatalf("round trip: %#v, %v", u, err)
	}
	if _, err := DecodeCreditUpdate([]byte{0}); err == nil {
		t.Fatal("zero window accepted")
	}
	if _, err := DecodeCreditUpdate(nil); err == nil {
		t.Fatal("empty payload accepted")
	}
}

func TestHeaderRejections(t *testing.T) {
	good, _ := AppendTuple(nil, &Tuple{KeyHash: 1})

	// Wrong version.
	bad := append([]byte(nil), good...)
	bad[0] = 99
	if _, _, err := ReadFrame(bytes.NewReader(bad), nil); err == nil {
		t.Fatal("wrong version accepted")
	}
	// Unknown kind.
	bad = append([]byte(nil), good...)
	bad[1] = 200
	if _, _, err := ReadFrame(bytes.NewReader(bad), nil); err == nil {
		t.Fatal("unknown kind accepted")
	}
	// Oversized payload length: rejected before any allocation.
	bad = append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(bad[2:], MaxPayload+1)
	if _, _, err := ReadFrame(bytes.NewReader(bad), nil); err == nil {
		t.Fatal("oversized payload accepted")
	}
}

func TestTruncationNeverPanics(t *testing.T) {
	for i, fr := range encodeAll(t) {
		// Every strict prefix must error (ReadFrame short read, or the
		// per-kind decoder on a cut payload) — and never panic.
		for cut := 0; cut < len(fr); cut++ {
			_, _, err := ReadFrame(bytes.NewReader(fr[:cut]), nil)
			if cut == 0 {
				if err != io.EOF {
					t.Fatalf("frame %d: empty read err = %v, want io.EOF", i, err)
				}
				continue
			}
			if err == nil {
				t.Fatalf("frame %d truncated at %d accepted", i, cut)
			}
		}
		// A truncated *payload* handed straight to the decoder errors too —
		// with one principled exception: cutting a Reply exactly at its
		// optional-trailing-section boundary yields what an older node
		// would have sent, which must keep decoding. Such a prefix is only
		// acceptable when it is canonical: re-encoding what it decoded to
		// reproduces the prefix byte for byte.
		kind, payload, err := ReadFrame(bytes.NewReader(fr), nil)
		if err != nil {
			t.Fatal(err)
		}
		for cut := 0; cut < len(payload); cut++ {
			v, err := decodeFrame(kind, payload[:cut])
			if err == nil && !bytes.Equal(reencode(v)[HeaderSize:], payload[:cut]) {
				t.Fatalf("frame %d (%v): payload truncated at %d/%d accepted",
					i, kind, cut, len(payload))
			}
		}
	}
}

func TestTrailingBytesRejected(t *testing.T) {
	for i, fr := range encodeAll(t) {
		kind, payload, err := ReadFrame(bytes.NewReader(fr), nil)
		if err != nil {
			t.Fatal(err)
		}
		grown := append(append([]byte(nil), payload...), 0)
		if _, err := decodeFrame(kind, grown); err == nil {
			t.Fatalf("frame %d (%v): trailing byte accepted", i, kind)
		}
	}
}

func TestReadFrameStream(t *testing.T) {
	var stream []byte
	frames := encodeAll(t)
	for _, fr := range frames {
		stream = append(stream, fr...)
	}
	r := bytes.NewReader(stream)
	var buf []byte
	for i := 0; ; i++ {
		kind, payload, err := ReadFrame(r, buf)
		if err == io.EOF {
			if i != len(frames) {
				t.Fatalf("EOF after %d frames, want %d", i, len(frames))
			}
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if _, err := decodeFrame(kind, payload); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		buf = payload
	}
	// A stream cut mid-frame reports ErrUnexpectedEOF, not a clean EOF.
	r = bytes.NewReader(stream[:len(stream)-1])
	var err error
	for err == nil {
		_, _, err = ReadFrame(r, nil)
	}
	if err != io.ErrUnexpectedEOF {
		t.Fatalf("mid-frame cut err = %v, want %v", err, io.ErrUnexpectedEOF)
	}
}

// TestReadFrameBufferedMatchesReadFrame drives the zero-copy buffered
// reader over the full frame corpus with a deliberately tiny bufio
// buffer, so small frames take the aliasing Peek path and large ones
// the copying spill path — every frame must decode to exactly what
// ReadFrame yields, and EOF semantics must match (clean boundary:
// io.EOF; mid-frame cut: io.ErrUnexpectedEOF).
func TestReadFrameBufferedMatchesReadFrame(t *testing.T) {
	var stream []byte
	frames := encodeAll(t)
	for _, fr := range frames {
		stream = append(stream, fr...)
	}
	for _, size := range []int{16, 64, 1 << 16} {
		br := bufio.NewReaderSize(bytes.NewReader(stream), size)
		plain := bytes.NewReader(stream)
		var spill, buf []byte
		for i := 0; ; i++ {
			kind, payload, err := ReadFrameBuffered(br, &spill)
			wantKind, wantPayload, wantErr := ReadFrame(plain, buf)
			if err != wantErr || kind != wantKind {
				t.Fatalf("size %d frame %d: (%v, %v), want (%v, %v)", size, i, kind, err, wantKind, wantErr)
			}
			if err == io.EOF {
				if i != len(frames) {
					t.Fatalf("size %d: EOF after %d frames, want %d", size, i, len(frames))
				}
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(payload, wantPayload) {
				t.Fatalf("size %d frame %d: payload mismatch", size, i)
			}
			// Decode before the next read: the payload may alias the
			// bufio buffer and is only valid until then.
			if _, err := decodeFrame(kind, payload); err != nil {
				t.Fatalf("size %d frame %d: %v", size, i, err)
			}
			buf = wantPayload
		}
		// A stream cut mid-frame reports ErrUnexpectedEOF, not io.EOF.
		br = bufio.NewReaderSize(bytes.NewReader(stream[:len(stream)-1]), size)
		var err error
		for err == nil {
			_, _, err = ReadFrameBuffered(br, &spill)
		}
		if err != io.ErrUnexpectedEOF {
			t.Fatalf("size %d: mid-frame cut err = %v, want %v", size, err, io.ErrUnexpectedEOF)
		}
	}
}

// FuzzRoundTrip feeds arbitrary bytes through the frame reader and every
// decoder: nothing may panic, and anything that decodes must re-encode
// and re-decode to the same value (the codec is self-consistent even on
// adversarial input that happens to parse).
func FuzzRoundTrip(f *testing.F) {
	for _, fr := range encodeAll(f) {
		f.Add(fr)
	}
	f.Add([]byte{})
	f.Add([]byte{Version})
	f.Add([]byte{Version, byte(KindTuple), 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		kind, payload, err := ReadFrame(bytes.NewReader(data), nil)
		if err == nil {
			if v, derr := decodeFrame(kind, payload); derr == nil {
				re := reencode(v)
				k2, p2, err2 := ReadFrame(bytes.NewReader(re), nil)
				if err2 != nil || k2 != kind {
					t.Fatalf("re-encode of decoded %v failed: %v", kind, err2)
				}
				v2, derr2 := decodeFrame(k2, p2)
				if derr2 != nil {
					t.Fatalf("re-decode of %v failed: %v", kind, derr2)
				}
				if !reflect.DeepEqual(v, v2) {
					t.Fatalf("%v not stable:\n got %#v\nwant %#v", kind, v2, v)
				}
			}
		}
		// Raw payload bytes against every decoder: must never panic.
		var tu Tuple
		var pa Partial
		_ = DecodeTuple(data, &tu)
		_ = DecodePartial(data, &pa)
		_, _ = DecodeMark(data)
		_, _ = DecodeSketch(data)
		_, _ = DecodeQuery(data)
		_, _ = DecodeReply(data)
		_, _ = DecodeCredit(data)
		_, _ = DecodeCreditUpdate(data)
		_, _ = DecodeAck(data)
		_, _ = DecodeSubscribe(data)
		_, _ = DecodeTupleBatch(data, nil)
	})
}

// TestSeedCorpusCoversAllKinds regenerates the committed fuzz seed
// corpus when WIRE_WRITE_CORPUS=1 and otherwise verifies the files are
// present and decodable — the corpus is part of the repo so CI fuzzing
// starts from every frame kind, not from scratch.
func TestSeedCorpusCoversAllKinds(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzRoundTrip")
	frames := encodeAll(t)
	if os.Getenv("WIRE_WRITE_CORPUS") == "1" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for i, fr := range frames {
			body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(fr)) + ")\n"
			name := filepath.Join(dir, "seed-"+Kind(fr[1]).String()+"-"+strconv.Itoa(i))
			if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("fuzz seed corpus missing (run with WIRE_WRITE_CORPUS=1 to regenerate): %v", err)
	}
	covered := map[Kind]bool{}
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.SplitN(string(raw), "\n", 3)
		if len(lines) < 2 || lines[0] != "go test fuzz v1" {
			t.Fatalf("%s: not a go fuzz corpus file", e.Name())
		}
		quoted := strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")")
		data, err := strconv.Unquote(quoted)
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		kind, payload, err := ReadFrame(strings.NewReader(data), nil)
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		if _, err := decodeFrame(kind, payload); err != nil {
			t.Fatalf("%s (%v): %v", e.Name(), kind, err)
		}
		covered[kind] = true
	}
	for k := KindTuple; k < kindEnd; k++ {
		if k != KindInvalid && !covered[k] {
			t.Fatalf("seed corpus missing frame kind %v", k)
		}
	}
}
