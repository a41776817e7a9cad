package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// SpanRecord is one committed span in a trace snapshot — the JSON shape
// served by /v1/debug/traces and assembled across nodes. StartUnixNs is
// wall-clock (trace start plus the span's monotonic offset): exact
// within one node, comparable across nodes only up to clock skew —
// cross-node ordering should lean on parent links, not timestamps.
type SpanRecord struct {
	ID          SpanID `json:"id"`
	Parent      SpanID `json:"parent,omitempty"`
	Stage       string `json:"stage"`
	Node        string `json:"node,omitempty"`
	Remote      string `json:"remote,omitempty"`
	Key         string `json:"key,omitempty"`
	StartUnixNs int64  `json:"start_unix_ns"`
	DurationNs  int64  `json:"duration_ns"`
}

// TraceRecord is one node's completed segment of a trace: the root span
// (the whole request on this node) plus every span recorded here. A
// cross-node request leaves one record per participating node, all
// sharing ID; assembly stitches them by parent span (downstream) and the
// From field (upstream).
type TraceRecord struct {
	ID     TraceID `json:"id"`
	Node   string  `json:"node"`
	Route  string  `json:"route"`
	Key    string  `json:"key,omitempty"`
	Status int     `json:"status"`
	// From names the upstream node whose forward mark the request carried
	// (empty for client-entry requests) — the upstream pointer assembly
	// follows when the query starts at a non-origin node.
	From string `json:"from,omitempty"`
	// ParentSpan is the remote span this segment nests under (0 at the
	// trace origin); Root is this segment's root span ID.
	ParentSpan SpanID `json:"parent_span,omitempty"`
	Root       SpanID `json:"root_span"`
	// Retained names the tail-sampling rule that kept the trace:
	// "error", "slow", "cross_node", or "sampled".
	Retained     string       `json:"retained"`
	StartUnixNs  int64        `json:"start_unix_ns"`
	DurationNs   int64        `json:"duration_ns"`
	DroppedSpans int32        `json:"dropped_spans,omitempty"`
	Spans        []SpanRecord `json:"spans"`
}

// AssembledTrace is the merged cross-node view served by
// GET /v1/debug/traces/{id}: every reachable segment's spans in one
// tree. Missing lists nodes named by spans whose segments could not be
// fetched (peer down, trace evicted there); Partial additionally means
// the origin segment itself is absent, so Root is a best guess.
type AssembledTrace struct {
	ID          TraceID      `json:"id"`
	Root        SpanID       `json:"root_span,omitempty"`
	Nodes       []string     `json:"nodes"`
	Missing     []string     `json:"missing,omitempty"`
	Partial     bool         `json:"partial,omitempty"`
	StartUnixNs int64        `json:"start_unix_ns"`
	DurationNs  int64        `json:"duration_ns"`
	Spans       []SpanRecord `json:"spans"`
}

// TraceStore is a node's bounded ring of completed trace segments with
// tail-based sampling. Retention is decided lock-free from the finished
// request's outcome — always keep errors, slower-than-threshold, and
// cross-node traces; keep an ID-sampled fraction of the rest — and only
// a retained trace pays the snapshot allocation and the ring mutex, so
// the request hot path never blocks and the common discard is free.
//
// The probabilistic rule is deterministic on the trace ID's low bits, so
// every node of a cluster makes the same keep/drop decision for one
// trace — a kept trace's remote segments are kept too, which is what
// makes cross-node assembly reliable.
type TraceStore struct {
	node string
	slow time.Duration
	// sampleBound: retain when id.Lo < sampleBound; 0 never, ^0 always.
	sampleBound uint64

	offered  atomic.Int64
	retained atomic.Int64

	mu   sync.Mutex
	ring []*TraceRecord // insertion order; wraps at capacity
	next int
	cap  int
}

// NewTraceStore returns a store retaining up to capacity (> 0) completed
// traces on node. slow is the always-retain latency threshold (<= 0
// disables it); sample is the retained fraction of ordinary traces
// (clamped to [0,1]).
func NewTraceStore(node string, capacity int, slow time.Duration, sample float64) *TraceStore {
	var bound uint64
	switch {
	case sample >= 1:
		bound = ^uint64(0)
	case sample > 0:
		bound = uint64(sample * float64(1<<63) * 2)
	}
	return &TraceStore{node: node, slow: slow, sampleBound: bound, cap: capacity}
}

// Node returns the node name records are stamped with.
func (ts *TraceStore) Node() string { return ts.node }

// Offer presents a finished request's trace for retention and returns
// the retained record, or nil when the trace is discarded. from names
// the upstream forwarder (parsed from the forward mark), route/status/d
// the request's outcome. The discard path takes no lock and allocates
// nothing.
func (ts *TraceStore) Offer(tr *Trace, route, from string, status int, d time.Duration) *TraceRecord {
	if tr == nil || tr.id.IsZero() {
		return nil
	}
	ts.offered.Add(1)
	var reason string
	switch {
	case status >= 500:
		reason = "error"
	case ts.slow > 0 && d >= ts.slow:
		reason = "slow"
	case tr.CrossNode() || tr.parent != 0 || from != "":
		// Cross-node either way: this node called a peer (a span named a
		// remote), or a peer called it (the trace arrived linked under a
		// parent span, or marked with a forwarder). Retaining both ends
		// unconditionally is what lets assembly rely on a kept trace's
		// remote segments being kept too.
		reason = "cross_node"
	case tr.id.Lo < ts.sampleBound:
		reason = "sampled"
	default:
		return nil
	}
	rec := ts.snapshot(tr, route, from, status, d, reason)
	ts.retained.Add(1)
	ts.mu.Lock()
	if len(ts.ring) < ts.cap {
		ts.ring = append(ts.ring, rec)
	} else {
		ts.ring[ts.next] = rec
		ts.next = (ts.next + 1) % len(ts.ring)
	}
	ts.mu.Unlock()
	return rec
}

// snapshot copies the trace's committed spans into an immutable record.
// Uncommitted (still-live) slots are skipped — a span someone forgot to
// End, or a fan-out still in flight, never leaks half-written fields.
func (ts *TraceStore) snapshot(tr *Trace, route, from string, status int, d time.Duration, reason string) *TraceRecord {
	startUnix := tr.start.UnixNano()
	n := int(tr.n.Load())
	if n > maxSpans {
		n = maxSpans
	}
	spans := make([]SpanRecord, 0, n+1)
	spans = append(spans, SpanRecord{
		ID:          tr.base,
		Parent:      tr.parent,
		Stage:       StageRequest.String(),
		Node:        ts.node,
		Key:         tr.rootKey,
		StartUnixNs: startUnix,
		DurationNs:  int64(d),
	})
	for i := 0; i < n; i++ {
		sp := tr.slot(int32(i), false)
		if sp == nil {
			break // the block's reserver has not installed it yet
		}
		end := sp.endNs.Load() // acquire: commits the plain fields below
		if end == 0 {
			continue
		}
		spans = append(spans, SpanRecord{
			ID:          sp.id,
			Parent:      sp.parent,
			Stage:       sp.stage.String(),
			Node:        ts.node,
			Remote:      sp.remote,
			Key:         sp.key,
			StartUnixNs: startUnix + sp.startNs,
			DurationNs:  end - sp.startNs,
		})
	}
	return &TraceRecord{
		ID:           tr.id,
		Node:         ts.node,
		Route:        route,
		Key:          tr.rootKey,
		Status:       status,
		From:         from,
		ParentSpan:   tr.parent,
		Root:         tr.base,
		Retained:     reason,
		StartUnixNs:  startUnix,
		DurationNs:   int64(d),
		DroppedSpans: tr.dropped.Load(),
		Spans:        spans,
	}
}

// Get returns every retained segment for id — one node can hold several
// (a portfolio fan-out sends a peer several requests under one trace).
// Records are immutable after insertion; sharing pointers is safe.
func (ts *TraceStore) Get(id TraceID) []*TraceRecord {
	var out []*TraceRecord
	ts.mu.Lock()
	for _, rec := range ts.ring {
		if rec.ID == id {
			out = append(out, rec)
		}
	}
	ts.mu.Unlock()
	return out
}

// TraceFilter narrows Recent: Route matches exactly when non-empty,
// MinDuration drops faster traces, Limit caps the result (0 = 50).
type TraceFilter struct {
	Route       string
	MinDuration time.Duration
	Limit       int
}

// Recent returns retained segments, newest first, filtered.
func (ts *TraceStore) Recent(f TraceFilter) []*TraceRecord {
	limit := f.Limit
	if limit <= 0 {
		limit = 50
	}
	out := make([]*TraceRecord, 0, limit)
	ts.mu.Lock()
	// Newest first: before the ring wraps, insertion order is slice
	// order; after, the slot before next is the most recent insertion.
	for i := 0; i < len(ts.ring) && len(out) < limit; i++ {
		var idx int
		if len(ts.ring) < ts.cap {
			idx = len(ts.ring) - 1 - i
		} else {
			idx = ts.next - 1 - i
			if idx < 0 {
				idx += len(ts.ring)
			}
		}
		rec := ts.ring[idx]
		if f.Route != "" && rec.Route != f.Route {
			continue
		}
		if f.MinDuration > 0 && time.Duration(rec.DurationNs) < f.MinDuration {
			continue
		}
		out = append(out, rec)
	}
	ts.mu.Unlock()
	return out
}

// Stats returns the lifetime offered/retained counters and the current
// buffer depth, for scrape-time metric funcs.
func (ts *TraceStore) Stats() (offered, retained int64, buffered int) {
	ts.mu.Lock()
	buffered = len(ts.ring)
	ts.mu.Unlock()
	return ts.offered.Load(), ts.retained.Load(), buffered
}
