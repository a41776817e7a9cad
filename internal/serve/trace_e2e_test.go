package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"mps/internal/cluster"
	"mps/internal/obs"
)

// fetchAssembled GETs /v1/debug/traces/{id} from baseURL and decodes the
// cluster-assembled trace.
func fetchAssembled(t *testing.T, baseURL, id string) obs.AssembledTrace {
	t.Helper()
	status, _, body := doClusterJSON(t, http.MethodGet, baseURL+"/v1/debug/traces/"+id, nil, nil)
	if status != http.StatusOK {
		t.Fatalf("GET %s/v1/debug/traces/%s: %d %s", baseURL, id, status, body)
	}
	var at obs.AssembledTrace
	if err := json.Unmarshal(body, &at); err != nil {
		t.Fatalf("decoding assembled trace: %v", err)
	}
	return at
}

// spanByID indexes an assembled trace's spans.
func spanByID(at obs.AssembledTrace) map[obs.SpanID]obs.SpanRecord {
	out := make(map[obs.SpanID]obs.SpanRecord, len(at.Spans))
	for _, sp := range at.Spans {
		out[sp.ID] = sp
	}
	return out
}

// TestClusterTraceEndToEnd drives a forwarded generate between two real
// nodes and checks the tentpole end to end: one trace ID on the wire,
// both nodes retain their segment (tail sampling's cross-node rule), the
// assembled tree is queryable from either node, names both nodes, nests
// the peer's segment under the entry node's forward span with consistent
// timestamps, and the forward span accounts for >= 90% of the end-to-end
// latency (the annealing ran on the owner, and the trace proves it).
func TestClusterTraceEndToEnd(t *testing.T) {
	fleet := newTestFleet(t, fleetConfig{
		n: 2,
		cluster: func(cfg *cluster.Config) {
			cfg.Replicas = 1 // every read of a peer-owned key forwards
			// The measured generate must complete within one forward
			// attempt — a timeout would retry and then degrade to local
			// generation, turning the one-hop trace into several.
			cfg.ForwardTimeout = 2 * time.Minute
		},
	})
	entry, peer := fleet.nodes[0], fleet.nodes[1]

	// A generation heavy enough that the entry node's own decode/encode
	// overhead is well under 10% of the request — the substance of the
	// >=90% attribution check — but still seconds, not minutes, under
	// the race detector.
	var spec GenerateSpec
	for seed := int64(5200); ; seed++ {
		if seed == 6200 {
			t.Fatal("no heavy spec owned by node 1 in 1000 seeds")
		}
		spec = GenerateSpec{Circuit: "circ01", Seed: seed, Effort: "quick",
			Iterations: 150, BDIOSteps: 100}
		if fleet.ownerIndex(t, specKey(t, spec)) == 1 {
			break
		}
	}

	status, hdr, body := doClusterJSON(t, http.MethodPost, entry.url+"/v1/structures", spec, nil)
	if status != http.StatusOK {
		t.Fatalf("forwarded generate: %d %s", status, body)
	}
	traceID := hdr.Get(obs.TraceIDHeader)
	if _, ok := obs.ParseTraceID(traceID); !ok {
		t.Fatalf("response %s = %q, want a 32-hex trace id", obs.TraceIDHeader, traceID)
	}

	// Both nodes retained their segment, and for the right reason: the
	// request crossed nodes, so tail sampling must keep both ends
	// unconditionally — that is what makes assembly reliable.
	for name, n := range map[string]*clusterNode{"entry": entry, "peer": peer} {
		segs := n.s.traces.Get(mustTraceID(t, traceID))
		if len(segs) != 1 {
			t.Fatalf("%s node retained %d segments, want 1", name, len(segs))
		}
		if segs[0].Retained != "cross_node" {
			t.Errorf("%s node retained trace as %q, want cross_node", name, segs[0].Retained)
		}
	}
	if segs := peer.s.traces.Get(mustTraceID(t, traceID)); segs[0].From != entry.url {
		t.Errorf("peer segment From = %q, want %q", segs[0].From, entry.url)
	}

	// The assembled trace is the same complete tree from either node.
	for _, baseURL := range []string{entry.url, peer.url} {
		at := fetchAssembled(t, baseURL, traceID)
		if len(at.Nodes) != 2 || at.Nodes[0] != entry.url && at.Nodes[1] != entry.url {
			t.Fatalf("assembled from %s names nodes %v, want both of [%s %s]",
				baseURL, at.Nodes, entry.url, peer.url)
		}
		if at.Partial || len(at.Missing) > 0 {
			t.Fatalf("assembled from %s: partial=%v missing=%v, want a complete trace",
				baseURL, at.Partial, at.Missing)
		}

		byID := spanByID(at)
		root, ok := byID[at.Root]
		if !ok || root.Stage != "request" || root.Node != entry.url || root.Parent != 0 {
			t.Fatalf("root span %+v, want the entry node's request span", root)
		}
		var peerReq, fwd obs.SpanRecord
		for _, sp := range at.Spans {
			if sp.Stage == "request" && sp.Node == peer.url {
				peerReq = sp
			}
			if sp.Stage == "forward" && sp.Node == entry.url && sp.Parent == root.ID {
				fwd = sp
			}
		}
		if peerReq.ID == 0 {
			t.Fatalf("assembled from %s has no request span on the peer node", baseURL)
		}
		if fwd.ID == 0 || fwd.Remote != peer.url {
			t.Fatalf("assembled from %s: forward span %+v, want one under the root naming the peer", baseURL, fwd)
		}

		// The peer's segment nests under the entry node's forward attempt:
		// following parent links from the peer's request span must reach
		// the root through the forward span, and the wall-clock windows
		// must nest the same way (one machine, one clock, strictly
		// client-wraps-server).
		onPath := false
		for sp, hops := peerReq, 0; sp.ID != root.ID; hops++ {
			if hops > len(at.Spans) {
				t.Fatalf("parent chain from peer request span never reaches the root")
			}
			parent, ok := byID[sp.Parent]
			if !ok {
				t.Fatalf("span %x's parent %x missing from the assembled trace", sp.ID, sp.Parent)
			}
			if parent.ID == fwd.ID {
				onPath = true
			}
			sp = parent
		}
		if !onPath {
			t.Errorf("peer request span does not nest under the entry's forward span")
		}
		attempt := byID[peerReq.Parent]
		if peerReq.StartUnixNs < attempt.StartUnixNs {
			t.Errorf("peer request started %dns before the forward attempt that carried it",
				attempt.StartUnixNs-peerReq.StartUnixNs)
		}
		if peerReq.DurationNs > attempt.DurationNs {
			t.Errorf("peer request ran %dns, longer than the client-side attempt's %dns",
				peerReq.DurationNs, attempt.DurationNs)
		}

		// >= 90% of the end-to-end latency is attributed to the forward —
		// the annealing happened on the owner and the trace accounts for it.
		if root.DurationNs <= 0 {
			t.Fatalf("root span has no duration")
		}
		if ratio := float64(fwd.DurationNs) / float64(root.DurationNs); ratio < 0.9 {
			t.Errorf("forward span covers %.1f%% of the request, want >= 90%%", 100*ratio)
		}

		// The owner's annealing shows up as a job_run span on the peer.
		jobRunNode := ""
		for _, sp := range at.Spans {
			if sp.Stage == "job_run" {
				jobRunNode = sp.Node
			}
		}
		if jobRunNode != peer.url {
			t.Errorf("job_run span on %q, want the owning peer %q", jobRunNode, peer.url)
		}
	}

	// The listing surfaces the trace on both nodes, filterably.
	for _, n := range fleet.nodes {
		status, _, body := doClusterJSON(t, http.MethodGet,
			n.url+"/v1/debug/traces?route=structures", nil, nil)
		if status != http.StatusOK {
			t.Fatalf("trace listing on %s: %d %s", n.url, status, body)
		}
		var listing struct {
			Node   string `json:"node"`
			Traces []struct {
				ID       string `json:"id"`
				Retained string `json:"retained"`
			} `json:"traces"`
		}
		if err := json.Unmarshal(body, &listing); err != nil {
			t.Fatal(err)
		}
		found := false
		for _, row := range listing.Traces {
			if row.ID == traceID {
				found = true
			}
		}
		if !found {
			t.Errorf("node %s listing does not include trace %s", n.url, traceID)
		}
	}
}

// TestClusterSlowQueryReadsRetainedTrace drives a forwarded instantiate
// through a 2-node fleet where every request is over the slow-query
// threshold. The entry node's slow-query line must name a trace that node
// retained, and its stages.forward must equal exactly the forward span
// under that segment's root: the cluster.Do attempt span nested under it
// is the same time and is not counted again, as /metrics does not count
// it either.
func TestClusterSlowQueryReadsRetainedTrace(t *testing.T) {
	var mu sync.Mutex
	lines := map[string][]string{} // node → its slow-query JSON lines
	fleet := newTestFleet(t, fleetConfig{
		n: 2,
		cluster: func(cfg *cluster.Config) {
			cfg.Replicas = 1 // every read of a peer-owned key forwards
		},
		serve: func(cfg *Config) {
			cfg.SlowQuery = time.Nanosecond
			self, logf := cfg.Cluster.Self(), cfg.Logf
			cfg.Logf = func(format string, args ...any) {
				if rest, ok := strings.CutPrefix(format, "slow-query "); ok {
					mu.Lock()
					lines[self] = append(lines[self], fmt.Sprintf(rest, args...))
					mu.Unlock()
				}
				logf(format, args...)
			}
		},
	})
	entry := fleet.nodes[0]
	spec := fleet.specOwnedBy(t, 1, 700)
	if status, _, body := doClusterJSON(t, http.MethodPost, entry.url+"/v1/structures", spec, nil); status != http.StatusOK {
		t.Fatalf("generate via entry: %d %s", status, body)
	}
	instReq := map[string]any{"spec": spec, "queries": []any{testQuery(t, 0), testQuery(t, 1)}}
	status, hdr, body := doClusterJSON(t, http.MethodPost, entry.url+"/v1/instantiate", instReq, nil)
	if status != http.StatusOK {
		t.Fatalf("instantiate via entry: %d %s", status, body)
	}
	traceID := hdr.Get(obs.TraceIDHeader)

	// The middleware epilogue writes the line and may finish after the
	// client has read the response.
	var line obs.SlowQueryEntry
	for deadline := time.Now().Add(5 * time.Second); line.TraceID != traceID; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("entry node logged no slow-query line for trace %s", traceID)
		}
		mu.Lock()
		logged := append([]string(nil), lines[entry.url]...)
		mu.Unlock()
		for _, l := range logged {
			var e obs.SlowQueryEntry
			if err := json.Unmarshal([]byte(l), &e); err != nil {
				t.Fatalf("slow-query line %q: %v", l, err)
			}
			if e.TraceID == traceID {
				line = e
			}
		}
	}
	if line.Route != "instantiate" || line.Status != http.StatusOK {
		t.Fatalf("slow-query line %+v, want the instantiate's 200", line)
	}

	segs := entry.s.traces.Get(mustTraceID(t, line.TraceID))
	if len(segs) != 1 {
		t.Fatalf("entry node retained %d segments of the line's trace, want 1", len(segs))
	}
	var fwd obs.SpanRecord
	for _, sp := range segs[0].Spans {
		if sp.Stage == "forward" && sp.Parent == segs[0].Root {
			fwd = sp
		}
	}
	if fwd.ID == 0 {
		t.Fatalf("entry segment has no forward span under its root: %+v", segs[0].Spans)
	}
	if want := float64(fwd.DurationNs) / float64(time.Millisecond); line.Stages["forward"] != want {
		t.Fatalf("slow-query stages.forward = %v ms, want the forward span's %v ms", line.Stages["forward"], want)
	}
}

// TestClusterTracePortfolioFanOut builds a portfolio whose members span
// both nodes and checks the fan-out is one trace: the entry node's
// cross-node generate legs and the remote member's scheduler work all
// assemble under the portfolio request's ID — queried from the node that
// did NOT serve the request.
func TestClusterTracePortfolioFanOut(t *testing.T) {
	fleet := newTestFleet(t, fleetConfig{
		n: 2,
		cluster: func(cfg *cluster.Config) {
			cfg.Replicas = 1
		},
	})
	entry, peer := fleet.nodes[0], fleet.nodes[1]

	// A portfolio spec the entry node owns (no top-level forward) with at
	// least one member owned by the peer, so building it must fan out.
	var spec GenerateSpec
	for seed := int64(7400); ; seed++ {
		if seed == 8400 {
			t.Fatal("no suitable portfolio spec in 1000 seeds")
		}
		sp := testSpec(seed)
		sp.Portfolio = 2
		if fleet.ownerIndex(t, specKey(t, sp)) != 0 {
			continue
		}
		if fleet.ownerIndex(t, specKey(t, sp.memberSpec(0))) == 1 ||
			fleet.ownerIndex(t, specKey(t, sp.memberSpec(1))) == 1 {
			spec = sp
			break
		}
	}

	status, hdr, body := doClusterJSON(t, http.MethodPost, entry.url+"/v1/structures", spec, nil)
	if status != http.StatusOK {
		t.Fatalf("portfolio generate: %d %s", status, body)
	}
	traceID := hdr.Get(obs.TraceIDHeader)

	at := fetchAssembled(t, peer.url, traceID)
	if len(at.Nodes) != 2 {
		t.Fatalf("portfolio trace names nodes %v, want both fleet nodes", at.Nodes)
	}
	if at.Partial || len(at.Missing) > 0 {
		t.Fatalf("portfolio trace partial=%v missing=%v, want complete", at.Partial, at.Missing)
	}
	var peerWork, jobRun, crossLeg bool
	for _, sp := range at.Spans {
		if sp.Node == peer.url && sp.Stage != "request" {
			peerWork = true
		}
		if sp.Stage == "job_run" {
			jobRun = true
		}
		if sp.Node == entry.url && sp.Remote == peer.url {
			crossLeg = true
		}
	}
	if !crossLeg {
		t.Errorf("no entry-node span names the peer: fan-out leg untraced")
	}
	if !peerWork {
		t.Errorf("no non-root span on the peer: remote member generation untraced")
	}
	if !jobRun {
		t.Errorf("no job_run span anywhere: scheduler work untraced")
	}
}

// TestTracePanicRetained is the regression test for the middleware leak:
// a handler that panics mid-request must still get its trace finished and
// retained under the error rule — previously the live span leaked and the
// trace vanished.
func TestTracePanicRetained(t *testing.T) {
	s := New(Config{Logf: testLogf(t)})
	t.Cleanup(func() { s.Close() })

	h := s.instrument(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := obs.TraceFrom(r.Context())
		sp := tr.StartSpan(obs.StageCache)
		defer sp.End()
		w.WriteHeader(http.StatusOK) // partial write, then death
		panic(http.ErrAbortHandler)
	}))
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)

	resp, err := http.Get(srv.URL + "/v1/circuits")
	if err == nil {
		resp.Body.Close()
	}

	deadline := time.Now().Add(2 * time.Second)
	for {
		recs := s.traces.Recent(obs.TraceFilter{Route: "circuits"})
		if len(recs) == 1 {
			rec := recs[0]
			if rec.Retained != "error" {
				t.Errorf("panicked request retained as %q, want error", rec.Retained)
			}
			if rec.Status != http.StatusInternalServerError {
				t.Errorf("panicked request recorded status %d, want 500", rec.Status)
			}
			if len(rec.Spans) == 0 || rec.Spans[0].Stage != "request" {
				t.Errorf("panicked request's root span missing: %+v", rec.Spans)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("panicked request's trace never retained: %d records", len(recs))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func mustTraceID(t *testing.T, s string) obs.TraceID {
	t.Helper()
	id, ok := obs.ParseTraceID(s)
	if !ok {
		t.Fatalf("bad trace id %q", s)
	}
	return id
}
