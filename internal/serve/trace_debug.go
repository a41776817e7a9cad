// Trace debug endpoints: GET /v1/debug/traces lists this node's retained
// trace segments (newest first, filterable), GET /v1/debug/traces/{id}
// returns one trace assembled cluster-wide — the serving node pulls the
// remote segments from the peers its spans name (and the upstream node
// the forward mark recorded), merges them into one span tree, and
// degrades gracefully to a partial trace with a `missing` list when a
// peer is down or has already evicted its segment.
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"time"

	"mps/internal/obs"
)

// traceSummary is one row of the /v1/debug/traces listing.
type traceSummary struct {
	ID       obs.TraceID `json:"id"`
	Node     string      `json:"node"`
	Route    string      `json:"route"`
	Key      string      `json:"key,omitempty"`
	Status   int         `json:"status"`
	Millis   float64     `json:"ms"`
	Retained string      `json:"retained"`
	Spans    int         `json:"spans"`
	From     string      `json:"from,omitempty"`
	Start    time.Time   `json:"start"`
}

func (s *Server) handleTraceList(w http.ResponseWriter, r *http.Request) {
	f := obs.TraceFilter{Route: r.URL.Query().Get("route")}
	if v := r.URL.Query().Get("min_ms"); v != "" {
		ms, err := strconv.ParseFloat(v, 64)
		if err != nil || ms < 0 {
			writeError(w, http.StatusBadRequest, "min_ms must be a non-negative number")
			return
		}
		f.MinDuration = time.Duration(ms * float64(time.Millisecond))
	}
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 || n > 1000 {
			writeError(w, http.StatusBadRequest, "limit must be in [1, 1000]")
			return
		}
		f.Limit = n
	}
	recs := s.traces.Recent(f)
	out := make([]traceSummary, 0, len(recs))
	for _, rec := range recs {
		out = append(out, traceSummary{
			ID:       rec.ID,
			Node:     rec.Node,
			Route:    rec.Route,
			Key:      rec.Key,
			Status:   rec.Status,
			Millis:   float64(rec.DurationNs) / float64(time.Millisecond),
			Retained: rec.Retained,
			Spans:    len(rec.Spans),
			From:     rec.From,
			Start:    time.Unix(0, rec.StartUnixNs).UTC(),
		})
	}
	writeJSON(w, http.StatusOK, map[string]any{"node": s.traces.Node(), "traces": out})
}

func (s *Server) handleTraceGet(w http.ResponseWriter, r *http.Request) {
	id, ok := obs.ParseTraceID(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusBadRequest, "trace id must be 32 lowercase hex digits")
		return
	}
	// local=1 answers from this node's ring only — the peer-to-peer leg
	// of assembly, so two nodes asking each other can never recurse.
	if r.URL.Query().Get("local") == "1" {
		segs := s.traces.Get(id)
		if len(segs) == 0 {
			writeError(w, http.StatusNotFound, "trace not retained on this node")
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"segments": segs})
		return
	}
	at, found := s.assembleTrace(r.Context(), id)
	if !found {
		writeError(w, http.StatusNotFound, "trace not retained on any reachable node")
		return
	}
	writeJSON(w, http.StatusOK, at)
}

// assembleDepth bounds assembly's breadth-first peer walk. A request
// takes at most one forward hop plus fetch/generate legs, so real trees
// are 2–3 nodes deep; the cap is a defense against pathological span
// data, not a tuning knob.
const assembleDepth = 4

// assembleTrace merges every reachable segment of id into one tree:
// this node's ring first, then — in cluster mode — the peers named by
// the collected spans (downstream) and forward marks (upstream),
// breadth-first, each peer asked once via its local=1 endpoint. found
// is false when no node retained anything.
func (s *Server) assembleTrace(ctx context.Context, id obs.TraceID) (obs.AssembledTrace, bool) {
	segments := s.traces.Get(id)
	self := s.traces.Node()
	visited := map[string]bool{self: true}
	var missing []string

	if c := s.cluster; c != nil {
		known := make(map[string]bool, len(c.Peers()))
		for _, p := range c.Peers() {
			known[p] = true
		}
		frontier := nodesNamedBy(segments, visited, known)
		if len(segments) == 0 {
			// Nothing local to follow: ask every peer. The client may have
			// hit a node the request never touched.
			frontier = nil
			for _, p := range c.Peers() {
				if !visited[p] {
					frontier = append(frontier, p)
				}
			}
		}
		for depth := 0; depth < assembleDepth && len(frontier) > 0; depth++ {
			var next []string
			for _, peer := range frontier {
				if visited[peer] {
					continue
				}
				visited[peer] = true
				segs, err := s.traceSegmentsFrom(ctx, peer, id)
				if err != nil {
					missing = append(missing, peer)
					continue
				}
				segments = append(segments, segs...)
				next = append(next, nodesNamedBy(segs, visited, known)...)
			}
			frontier = next
		}
	}
	if len(segments) == 0 {
		return obs.AssembledTrace{}, false
	}

	at := obs.AssembledTrace{ID: id, Partial: true}
	nodes := map[string]bool{}
	var minStart, maxEnd int64
	for _, seg := range segments {
		nodes[seg.Node] = true
		if seg.ParentSpan == 0 {
			// The origin segment: its root span and wall-clock window are
			// the trace's own.
			at.Partial = false
			at.Root = seg.Root
			at.StartUnixNs = seg.StartUnixNs
			at.DurationNs = seg.DurationNs
		}
		at.Spans = append(at.Spans, seg.Spans...)
		if minStart == 0 || seg.StartUnixNs < minStart {
			minStart = seg.StartUnixNs
		}
		if end := seg.StartUnixNs + seg.DurationNs; end > maxEnd {
			maxEnd = end
		}
	}
	if at.Partial {
		// No origin: best-effort window from the segments we do have.
		at.StartUnixNs = minStart
		at.DurationNs = maxEnd - minStart
		if len(segments) > 0 {
			at.Root = segments[0].Root
		}
	}
	for n := range nodes {
		at.Nodes = append(at.Nodes, n)
	}
	sort.Strings(at.Nodes)
	sort.Strings(missing)
	at.Missing = missing
	sort.SliceStable(at.Spans, func(i, j int) bool {
		return at.Spans[i].StartUnixNs < at.Spans[j].StartUnixNs
	})
	return at, true
}

// nodesNamedBy collects the unvisited known-peer nodes the segments point
// at: span Remote attributes walk downstream (who this node called),
// record From fields walk upstream (who forwarded here). Restricting to
// the static membership means span data can name arbitrary strings
// without making the daemon dial them.
func nodesNamedBy(segs []*obs.TraceRecord, visited, known map[string]bool) []string {
	var out []string
	seen := map[string]bool{}
	add := func(n string) {
		if n != "" && !visited[n] && !seen[n] && known[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	for _, seg := range segs {
		add(seg.From)
		for i := range seg.Spans {
			add(seg.Spans[i].Remote)
		}
	}
	return out
}

// traceSegmentsFrom asks one peer for its local segments of id.
// Deliberately unmarked (no forward header): the debug endpoints never
// forward, so there is no loop to guard, and marking would count debug
// pulls as forwarded client traffic.
func (s *Server) traceSegmentsFrom(ctx context.Context, peer string, id obs.TraceID) ([]*obs.TraceRecord, error) {
	c := s.cluster
	resp, err := c.Do(ctx, peer, http.MethodGet,
		"/v1/debug/traces/"+id.String()+"?local=1", nil, nil, c.FetchTimeout())
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return nil, fmt.Errorf("peer %s has no segments", peer)
	}
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return nil, fmt.Errorf("peer %s answered %d", peer, resp.StatusCode)
	}
	var body struct {
		Segments []*obs.TraceRecord `json:"segments"`
	}
	// A trace segment is ~32 spans of short strings; 4 MiB is generous.
	if err := json.NewDecoder(io.LimitReader(resp.Body, 4<<20)).Decode(&body); err != nil {
		return nil, fmt.Errorf("decoding peer %s segments: %w", peer, err)
	}
	return body.Segments, nil
}
