// Request tracing: one bounded span tree per request.
//
// Every request gets a Trace carrying a 128-bit trace ID and a bounded
// tree of spans (stage, monotonic start/end, parent, peer/key attributes)
// recorded with the same discipline as the stage counters: reserving and
// committing a span is a handful of atomic operations against
// pre-allocated slots, so instrumentation never puts the hot path back on
// the allocator (a segment's 9th span allocates the slot block once; see
// maxSpans). Cross-node propagation rides the X-Mps-Trace header
// (EncodeTraceHeader/ParseTraceHeader); completed traces are retained by
// a tail-sampling TraceStore (tracestore.go), and the retained record is
// the one record of the request: the slow-query line is rendered from it.
package obs

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"sync/atomic"
	"time"
)

// Stage names one phase of answering a request. Stages are a small fixed
// enum, so a span's stage is one byte and the per-stage metric series are
// registered up front.
type Stage uint8

const (
	// StageCache: LRU lookup and entry bookkeeping. For the request that
	// triggers an inline disk read-through this span contains the
	// StageStoreRead/StageCompile work (spans overlap; see SlowQuery).
	StageCache Stage = iota
	// StageStoreRead: disk-store read-through (file read + decode).
	StageStoreRead
	// StageCompile: compiled-query-index materialization.
	StageCompile
	// StageForward: proxying the request to the owning peer and relaying
	// its response.
	StageForward
	// StageFetch: pulling a built structure artifact from a peer.
	StageFetch
	// StageJobWait: waiting for the generation scheduler to produce the
	// entry (queue wait + annealing for cold keys).
	StageJobWait
	// StageBatchWait: waiting for a server-wide instantiate batch slot.
	StageBatchWait
	// StageInstantiate: executing the batch against the compiled index.
	StageInstantiate
	// StageEncode: encoding and writing the response body.
	StageEncode
	// StageJobRun: a generation job occupying a scheduler worker, from
	// pickup to its terminal state. Recorded by the jobs scheduler onto
	// the submitting request's trace, so remote or queued annealing time
	// lands under the request that caused it.
	StageJobRun
	// StageDecode: reading and decoding the request body. Declared after
	// StageJobRun so the earlier stages keep their values.
	StageDecode

	// NumStages is the stage count; valid stages are < NumStages.
	NumStages
)

// StageRequest is the synthetic stage of a trace's root span — the whole
// request. It exists only in snapshots (SpanRecord); live spans always
// carry a real < NumStages stage.
const StageRequest Stage = 0xff

var stageNames = [NumStages]string{
	"cache", "store_read", "compile", "forward", "fetch",
	"job_wait", "batch_wait", "instantiate", "encode", "job_run",
	"decode",
}

// String returns the stage's metric label ("cache", "store_read", ...).
func (s Stage) String() string {
	if s < NumStages {
		return stageNames[s]
	}
	if s == StageRequest {
		return "request"
	}
	return "unknown"
}

// Stages lists every stage in declaration order, for registering
// per-stage metric series up front.
func Stages() []Stage {
	out := make([]Stage, NumStages)
	for i := range out {
		out[i] = Stage(i)
	}
	return out
}

// TraceID is a 128-bit trace identifier, rendered as 32 lowercase hex
// digits. The zero value means "untraced".
type TraceID struct {
	Hi, Lo uint64
}

// IsZero reports whether the ID is the untraced zero value.
func (id TraceID) IsZero() bool { return id.Hi == 0 && id.Lo == 0 }

// String renders the ID as 32 lowercase hex digits.
func (id TraceID) String() string {
	b := make([]byte, 0, 32)
	b = appendHex64(b, id.Hi)
	b = appendHex64(b, id.Lo)
	return string(b)
}

// MarshalJSON renders the ID as its hex string.
func (id TraceID) MarshalJSON() ([]byte, error) {
	b := make([]byte, 0, 34)
	b = append(b, '"')
	b = appendHex64(b, id.Hi)
	b = appendHex64(b, id.Lo)
	b = append(b, '"')
	return b, nil
}

// UnmarshalJSON parses the hex string form.
func (id *TraceID) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	parsed, ok := ParseTraceID(s)
	if !ok {
		return fmt.Errorf("obs: invalid trace id %q", s)
	}
	*id = parsed
	return nil
}

// ParseTraceID parses the 32-hex-digit form. Anything else — wrong
// length, uppercase, non-hex — is rejected.
func ParseTraceID(s string) (TraceID, bool) {
	if len(s) != 32 {
		return TraceID{}, false
	}
	hi, ok1 := parseHex64(s[:16])
	lo, ok2 := parseHex64(s[16:])
	if !ok1 || !ok2 {
		return TraceID{}, false
	}
	return TraceID{Hi: hi, Lo: lo}, true
}

// SpanID is a 64-bit span identifier, rendered as 16 lowercase hex
// digits. 0 means "no span" (a trace origin has no parent span).
type SpanID uint64

// String renders the ID as 16 lowercase hex digits.
func (id SpanID) String() string {
	return string(appendHex64(make([]byte, 0, 16), uint64(id)))
}

// MarshalJSON renders the ID as its hex string.
func (id SpanID) MarshalJSON() ([]byte, error) {
	b := make([]byte, 0, 18)
	b = append(b, '"')
	b = appendHex64(b, uint64(id))
	b = append(b, '"')
	return b, nil
}

// UnmarshalJSON parses the hex string form.
func (id *SpanID) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	v, ok := parseHex64(s)
	if !ok {
		return fmt.Errorf("obs: invalid span id %q", s)
	}
	*id = SpanID(v)
	return nil
}

const hexDigits = "0123456789abcdef"

func appendHex64(dst []byte, v uint64) []byte {
	for shift := 60; shift >= 0; shift -= 4 {
		dst = append(dst, hexDigits[(v>>uint(shift))&0xf])
	}
	return dst
}

func parseHex64(s string) (uint64, bool) {
	if len(s) != 16 {
		return 0, false
	}
	var v uint64
	for i := 0; i < 16; i++ {
		c := s[i]
		var d uint64
		switch {
		case c >= '0' && c <= '9':
			d = uint64(c - '0')
		case c >= 'a' && c <= 'f':
			d = uint64(c-'a') + 10
		default:
			return 0, false
		}
		v = v<<4 | d
	}
	return v, true
}

// TraceHeader carries trace context across cluster hops. The format is
// versioned and fixed-width like the forward mark (cluster.ForwardHeader):
//
//	X-Mps-Trace: v1;id=<32 hex>;span=<16 hex>
//
// id is the originating request's trace ID; span is the sender's span the
// receiving node's work nests under. A malformed value is ignored — the
// receiver starts a fresh trace rather than inheriting a bogus parent.
const TraceHeader = "X-Mps-Trace"

// TraceIDHeader is the response header naming the trace a request was
// recorded under, so clients (mpsload exemplars) can fetch it from
// /v1/debug/traces/{id} afterwards.
const TraceIDHeader = "X-Mps-Trace-Id"

const (
	traceHeaderPrefix = "v1;id="
	traceHeaderMid    = ";span="
	traceHeaderLen    = len(traceHeaderPrefix) + 32 + len(traceHeaderMid) + 16
)

// EncodeTraceHeader renders the propagation header value.
func EncodeTraceHeader(id TraceID, span SpanID) string {
	b := make([]byte, 0, traceHeaderLen)
	b = append(b, traceHeaderPrefix...)
	b = appendHex64(b, id.Hi)
	b = appendHex64(b, id.Lo)
	b = append(b, traceHeaderMid...)
	b = appendHex64(b, uint64(span))
	return string(b)
}

// ParseTraceHeader decodes a propagation header value. The format is
// strict — exact length, lowercase hex — and a zero trace ID is invalid,
// so arbitrary garbage cannot smuggle in a link; callers start a fresh
// trace whenever ok is false.
func ParseTraceHeader(v string) (id TraceID, span SpanID, ok bool) {
	if len(v) != traceHeaderLen {
		return TraceID{}, 0, false
	}
	if v[:len(traceHeaderPrefix)] != traceHeaderPrefix {
		return TraceID{}, 0, false
	}
	mid := len(traceHeaderPrefix) + 32
	if v[mid:mid+len(traceHeaderMid)] != traceHeaderMid {
		return TraceID{}, 0, false
	}
	hi, ok1 := parseHex64(v[len(traceHeaderPrefix) : len(traceHeaderPrefix)+16])
	lo, ok2 := parseHex64(v[len(traceHeaderPrefix)+16 : mid])
	sp, ok3 := parseHex64(v[mid+len(traceHeaderMid):])
	if !ok1 || !ok2 || !ok3 {
		return TraceID{}, 0, false
	}
	id = TraceID{Hi: hi, Lo: lo}
	if id.IsZero() {
		return TraceID{}, 0, false
	}
	return id, SpanID(sp), true
}

// idState drives the allocation-free ID generator: a counter seeded with
// entropy once, finalized through splitmix64 per draw. IDs are unique and
// well-distributed process-wide; they are identifiers, not secrets.
var idState atomic.Uint64

func init() {
	var b [8]byte
	if _, err := crand.Read(b[:]); err == nil {
		idState.Store(binary.LittleEndian.Uint64(b[:]))
	} else {
		idState.Store(uint64(time.Now().UnixNano()))
	}
}

// randID returns a new 64-bit identifier (splitmix64 over the seeded
// counter). Never allocates.
func randID() uint64 {
	x := idState.Add(0x9e3779b97f4a7c15)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// maxSpans bounds the spans recorded per trace segment. A request's span
// count is bounded by construction (a handful of stages plus per-peer
// attempts), so 32 covers real traffic; overflow goes unrecorded and is
// counted as dropped, never an allocation.
//
// The first inlineSpans slots live in the Trace itself, enough for a
// forwarded instantiate on either node (3 spans on the entry, 5 on the
// owner); the rest come as one block, allocated only when a segment
// reserves its 9th span.
const (
	maxSpans    = 32
	inlineSpans = 8
)

// span is one pre-allocated span slot. The reserving goroutine writes the
// plain fields, then commits them with the atomic endNs store (release);
// snapshot readers load endNs first (acquire) and skip uncommitted slots,
// so a live span can never leak into a snapshot and the pattern is clean
// under the race detector.
type span struct {
	id      SpanID
	parent  SpanID
	startNs int64 // monotonic offset from the trace start
	stage   Stage
	remote  string // peer base URL for cross-node spans
	key     string // structure key attribute
	endNs   atomic.Int64
}

// Trace is the span tree segment one request records on this node. It
// travels on the request context (WithTrace/TraceFrom) so any layer the
// request passes through can attribute its time without new plumbing; a
// nil *Trace is valid and records nothing, so instrumented code never has
// to check whether tracing is on. Fields are atomic because peer fetches
// and fan-out goroutines may record concurrently with the request
// goroutine.
type Trace struct {
	// id is the 128-bit trace identity, shared by every segment of a
	// cross-node request. parent is the remote span this segment nests
	// under (0 at the trace origin). base is this segment's random span-ID
	// base: the implicit root span is base, recorded span i is base+1+i.
	id     TraceID
	parent SpanID
	base   SpanID
	start  time.Time

	n         atomic.Int32 // span slots reserved (may exceed maxSpans)
	dropped   atomic.Int32 // spans lost to slot overflow
	hasRemote atomic.Bool  // any span named a peer (cross-node marker)

	// rootKey is the root span's structure-key annotation. Written via
	// Annotate on the handler goroutine and read in the middleware
	// epilogue on the same goroutine; not for concurrent writers.
	rootKey string

	spans [inlineSpans]span
	block atomic.Pointer[[maxSpans - inlineSpans]span]
}

// slot returns span slot i (0-based), or nil when i lies in the block and
// the block is not installed. grow installs it first: the goroutine that
// reserved slot i calls with grow, and a CompareAndSwap lets racing
// reservers agree on one block.
func (t *Trace) slot(i int32, grow bool) *span {
	if i < inlineSpans {
		return &t.spans[i]
	}
	b := t.block.Load()
	if b == nil {
		if !grow {
			return nil
		}
		b = new([maxSpans - inlineSpans]span)
		if !t.block.CompareAndSwap(nil, b) {
			b = t.block.Load()
		}
	}
	return &b[i-inlineSpans]
}

// ctxKey carries the Trace on a context.
type ctxKey struct{}

// NewTrace returns a Trace with a fresh trace ID — the origin of a new
// request. One allocation.
func NewTrace() *Trace { return NewLinkedTrace(TraceID{}, 0) }

// NewLinkedTrace returns a Trace continuing a propagated trace: the
// segment shares id and nests under the sender's parent span. A zero id
// (no or invalid header) starts a fresh trace with no parent.
func NewLinkedTrace(id TraceID, parent SpanID) *Trace {
	if id.IsZero() {
		id = TraceID{Hi: randID(), Lo: randID()}
		if id.IsZero() {
			id.Lo = 1
		}
		parent = 0
	}
	base := SpanID(randID())
	if base == 0 {
		base = 1
	}
	return &Trace{id: id, parent: parent, base: base, start: time.Now()}
}

// WithTrace returns ctx carrying a fresh Trace, and the Trace. One
// allocation per request (plus the context value), paid once in the
// outermost middleware.
func WithTrace(ctx context.Context) (context.Context, *Trace) {
	t := NewTrace()
	return context.WithValue(ctx, ctxKey{}, t), t
}

// WithTraceLink is WithTrace for a propagated trace (see NewLinkedTrace).
func WithTraceLink(ctx context.Context, id TraceID, parent SpanID) (context.Context, *Trace) {
	t := NewLinkedTrace(id, parent)
	return context.WithValue(ctx, ctxKey{}, t), t
}

// TraceFrom returns the context's Trace, or nil when the request is not
// traced (background work, tests). The nil result is directly usable:
// all Trace methods are nil-safe.
func TraceFrom(ctx context.Context) *Trace {
	t, _ := ctx.Value(ctxKey{}).(*Trace)
	return t
}

// ID returns the trace identity (zero for nil or zero-value traces).
func (t *Trace) ID() TraceID {
	if t == nil {
		return TraceID{}
	}
	return t.id
}

// ParentSpan returns the remote span this segment nests under (0 at the
// trace origin). Nil-safe.
func (t *Trace) ParentSpan() SpanID {
	if t == nil {
		return 0
	}
	return t.parent
}

// RootSpan returns the segment's implicit root span ID. Nil-safe.
func (t *Trace) RootSpan() SpanID {
	if t == nil {
		return 0
	}
	return t.base
}

// Start returns the trace's start time. Nil-safe.
func (t *Trace) Start() time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.start
}

// CrossNode reports whether the trace touched more than one node: it was
// propagated here, or a span on it named a peer. Nil-safe.
func (t *Trace) CrossNode() bool {
	if t == nil {
		return false
	}
	return t.parent != 0 || t.hasRemote.Load()
}

// DroppedSpans returns how many spans overflowed the slot array and went
// unrecorded. Nil-safe.
func (t *Trace) DroppedSpans() int32 {
	if t == nil {
		return 0
	}
	return t.dropped.Load()
}

// Annotate records the structure key the request resolved to on the root
// span. Handler-goroutine only (plain field; the epilogue's snapshot reads
// it on the same goroutine). Nil-safe.
func (t *Trace) Annotate(key string) {
	if t == nil {
		return
	}
	t.rootKey = key
}

// SpanRef is a handle on a started span: a stack value, so starting and
// ending a span allocates nothing. The zero value is valid and records
// nothing. A ref is owned by the goroutine that started it until End;
// end it once.
type SpanRef struct {
	t     *Trace
	slot  int32 // 1-based slot index; 0 = unrecorded (nil trace or overflow)
	id    SpanID
	stage Stage
	start time.Time
}

// StartSpan starts a span under the trace's root. Nil-safe: on a nil
// trace the returned ref still measures a real duration (for global
// stage counters) and records nothing.
func (t *Trace) StartSpan(stage Stage) SpanRef {
	return t.StartSpanUnder(0, stage)
}

// StartSpanUnder starts a span nested under parent (0 means the root
// span). Nil-safe. When the slot array is full the span goes unrecorded:
// the trace counts it as dropped, and the ref still measures and
// propagates the root span ID — never blocks, never allocates. The 9th
// span allocates the slot block (see maxSpans).
func (t *Trace) StartSpanUnder(parent SpanID, stage Stage) SpanRef {
	now := time.Now()
	if t == nil {
		return SpanRef{stage: stage, start: now}
	}
	if parent == 0 {
		parent = t.base
	}
	i := t.n.Add(1) - 1
	if int(i) >= maxSpans {
		t.dropped.Add(1)
		return SpanRef{t: t, id: t.base, stage: stage, start: now}
	}
	sp := t.slot(i, true)
	id := SpanID(uint64(t.base) + uint64(i) + 1)
	if id == 0 {
		id = 1
	}
	sp.id = id
	sp.parent = parent
	sp.stage = stage
	sp.startNs = int64(now.Sub(t.start))
	return SpanRef{t: t, slot: i + 1, id: id, stage: stage, start: now}
}

// Trace returns the trace the ref records into (nil for a zero ref).
func (r SpanRef) Trace() *Trace { return r.t }

// SpanID returns the span's ID — the parent for propagation and child
// spans. Overflow refs return the root span ID so propagation still
// links into the trace; zero refs return 0.
func (r SpanRef) SpanID() SpanID { return r.id }

// Stage returns the stage the span records under.
func (r SpanRef) Stage() Stage { return r.stage }

// StartChild starts a child span of r with the same stage — per-attempt
// spans under a forward/fetch span. Safe on the zero ref.
func (r SpanRef) StartChild() SpanRef {
	if r.t == nil {
		return SpanRef{stage: r.stage, start: time.Now()}
	}
	return r.t.StartSpanUnder(r.id, r.stage)
}

// SetKey attaches the structure key attribute. Call between Start and
// End, from the owning goroutine. No-op on unrecorded refs.
func (r SpanRef) SetKey(key string) {
	if r.t != nil && r.slot > 0 {
		r.t.slot(r.slot-1, false).key = key
	}
}

// SetRemote attaches the peer base URL the span talks to and marks the
// trace cross-node. Call between Start and End, from the owning
// goroutine.
func (r SpanRef) SetRemote(peer string) {
	if r.t == nil {
		return
	}
	r.t.hasRemote.Store(true)
	if r.slot > 0 {
		r.t.slot(r.slot-1, false).remote = peer
	}
}

// Header returns the X-Mps-Trace value propagating this span as the
// remote parent, and whether there is a trace to propagate.
func (r SpanRef) Header() (string, bool) {
	if r.t == nil || r.t.id.IsZero() {
		return "", false
	}
	span := r.id
	if span == 0 {
		span = r.t.base
	}
	return EncodeTraceHeader(r.t.id, span), true
}

// End commits the span: its attributes become visible to snapshots.
// Returns the measured duration (real even for unrecorded refs, so
// callers can feed global counters).
func (r SpanRef) End() time.Duration {
	d := time.Since(r.start)
	if d < 0 {
		d = 0
	}
	if r.slot > 0 {
		sp := r.t.slot(r.slot-1, false)
		end := sp.startNs + int64(d)
		if end == 0 {
			end = 1 // endNs 0 means "uncommitted"; never store it for a finished span
		}
		sp.endNs.Store(end)
	}
	return d
}

// spanCtxKey carries a SpanRef on a context, so layers below the span's
// creator (cluster.Do's per-attempt spans) can nest under it.
type spanCtxKey struct{}

// ContextWithSpan returns ctx carrying r as the current span.
func ContextWithSpan(ctx context.Context, r SpanRef) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, r)
}

// SpanFromContext returns the context's current span, or the zero ref.
func SpanFromContext(ctx context.Context) SpanRef {
	r, _ := ctx.Value(spanCtxKey{}).(SpanRef)
	return r
}

// SlowQueryEntry is the slow-query log line: one JSON object per
// over-threshold request, with the stage breakdown that tells an
// operator *where* the time went, not just that it went, and the trace
// ID as an exemplar linking the line to /v1/debug/traces/{id}. It is
// rendered from the request's retained TraceRecord (see SlowQuery).
// DroppedSpans counts the spans the segment had no slot for: their time
// is missing from Stages.
type SlowQueryEntry struct {
	Method       string             `json:"method"`
	Path         string             `json:"path"`
	Route        string             `json:"route"`
	Status       int                `json:"status"`
	Millis       float64            `json:"ms"`
	ServedBy     string             `json:"served_by,omitempty"`
	Key          string             `json:"key,omitempty"`
	TraceID      string             `json:"trace_id,omitempty"`
	Stages       map[string]float64 `json:"stages,omitempty"`
	DroppedSpans int32              `json:"dropped_spans,omitempty"`
}

// SlowQuery returns the slow-query line of the request rec records;
// method, path and the node that served the answer come from the HTTP
// exchange.
//
// Stages sums the segment's spans per stage, in milliseconds, as
// /metrics counts them: the root span (the whole request) is skipped,
// and so is a span whose parent has the same stage — a cluster.Do
// attempt under its forward or fetch span — whose time its parent
// already holds. Different stages may still overlap (cache contains an
// inline read-through's store_read), so the totals are attribution, not
// a partition of wall time.
func (rec *TraceRecord) SlowQuery(method, path, servedBy string) SlowQueryEntry {
	stageOf := make(map[SpanID]string, len(rec.Spans))
	for _, sp := range rec.Spans {
		stageOf[sp.ID] = sp.Stage
	}
	ns := make(map[string]int64, 4)
	for _, sp := range rec.Spans {
		if sp.ID != rec.Root && sp.DurationNs > 0 && stageOf[sp.Parent] != sp.Stage {
			ns[sp.Stage] += sp.DurationNs
		}
	}
	stages := make(map[string]float64, len(ns))
	for name, d := range ns {
		stages[name] = float64(d) / float64(time.Millisecond)
	}
	return SlowQueryEntry{
		Method:       method,
		Path:         path,
		Route:        rec.Route,
		Status:       rec.Status,
		Millis:       float64(rec.DurationNs) / float64(time.Millisecond),
		ServedBy:     servedBy,
		Key:          rec.Key,
		TraceID:      rec.ID.String(),
		Stages:       stages,
		DroppedSpans: rec.DroppedSpans,
	}
}

// Render returns the entry as one-line JSON. Marshaling a flat struct of
// strings and numbers cannot fail; a slow query is already off the hot
// path, so the allocation here is irrelevant.
func (e SlowQueryEntry) Render() string {
	b, err := json.Marshal(e)
	if err != nil {
		return `{"error":"slow query entry unencodable"}`
	}
	return string(b)
}
