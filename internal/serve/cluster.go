// Cluster-mode routing for the serve layer: which node answers a request,
// how non-owned requests are proxied there, and how structure artifacts
// move between nodes (peer fetch, rebalance transfer) using the store's
// structure files (v2; legacy v3 files move as they are) as the wire
// format.
//
// Routing rules (the whole protocol):
//
//  1. The canonical spec key — already the cache, store and job key — is
//     the shard key. The consistent-hash ring maps it to one owning node.
//  2. A node receiving a client request for a key it does not own proxies
//     it to the owner (reads of hot keys: to a uniform pick from the
//     key's replica set), marking it with the cluster.ForwardHeader.
//  3. A request carrying the forward mark — well-formed or not — is NEVER
//     forwarded again: the receiving node answers locally. Forwarding is
//     therefore single-hop by construction.
//  4. If the proxied request fails (timeouts, retries exhausted, breaker
//     open), the node degrades gracefully: it answers locally, fetching
//     the artifact from any replica that has it, and only generating
//     itself as the last resort. Dedup still collapses concurrent local
//     fallbacks for one key into one job.
//  5. A node serving a key it does not own (replica fan-out, fallback, a
//     forwarded portfolio member) first tries to *fetch* the built
//     artifact (v2 bytes) from the owner — milliseconds — so generation
//     still happens exactly once cluster-wide while owners are up.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"sync"

	"mps"
	"mps/internal/cluster"
	"mps/internal/core"
	"mps/internal/obs"
)

// maxTransferBytes bounds a fetched or pushed structure artifact.
// Structure files for the paper's circuits are KBs to low MBs (legacy v3
// ones up to six times larger than v2); 256 MiB is far above
// any legitimate structure and merely stops a rogue peer from ballooning
// memory.
const maxTransferBytes = 256 << 20

// forwarded reports whether r already carries the forward mark. Presence
// alone decides — a malformed mark still counts as forwarded (and is the
// loop guard; see cluster.ForwardHeader).
func forwarded(r *http.Request) bool {
	return r.Header.Get(cluster.ForwardHeader) != ""
}

// maybeForward proxies the request to the node that should answer it and
// reports whether the response has been written. false means "serve
// locally": single-node mode, an already-forwarded request, a key this
// node should answer itself, or a proxy failure (graceful degradation —
// the caller proceeds exactly as if no cluster existed, and the entry
// pipeline's peer read-through keeps generation single-copy when some
// replica still has the artifact).
//
// body is the already-read request body, replayed verbatim to the peer.
// readOnly routes hot keys across the replica set instead of pinning the
// owner.
func (s *Server) maybeForward(w http.ResponseWriter, r *http.Request, key string, readOnly bool, body []byte) bool {
	c := s.cluster
	if c == nil || forwarded(r) {
		return false
	}
	var target string
	if readOnly {
		target = c.RouteRead(key)
	} else {
		target = c.Owner(key)
	}
	if target == c.Self() {
		return false
	}
	hdr := http.Header{}
	if ct := r.Header.Get("Content-Type"); ct != "" {
		hdr.Set("Content-Type", ct)
	}
	hdr.Set(cluster.ForwardHeader, c.ForwardMark())
	// Everything past this point is forward work — the peer round trip
	// and, on success, relaying its response — so one deferred span
	// covers every outcome. Do's per-attempt child spans (which carry the
	// X-Mps-Trace header to the peer) nest under it via the context.
	tr := obs.TraceFrom(r.Context())
	tr.Annotate(key)
	fwdSpan := tr.StartSpan(obs.StageForward)
	fwdSpan.SetRemote(target)
	fwdSpan.SetKey(key)
	defer func() { s.metrics.endSpan(fwdSpan) }()
	ctx := obs.ContextWithSpan(r.Context(), fwdSpan)
	resp, err := c.Do(ctx, target, r.Method, r.URL.RequestURI(), body, hdr, c.ForwardTimeout())
	if err != nil {
		if r.Context().Err() != nil {
			// The client is gone: nobody would read a local answer, so
			// there is no fallback to count and no local work to start.
			writeError(w, http.StatusServiceUnavailable, "canceled while forwarding")
			return true
		}
		c.CountFallback()
		s.logf("cluster: forwarding %s %s (key %s) to %s: %v — serving locally",
			r.Method, r.URL.Path, key, target, err)
		return false
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 500 {
		// The peer is up but failing — same degradation as unreachable,
		// and the breaker hears about it so a persistently failing peer
		// stops costing round trips. 4xx is different: the peer understood
		// the request and refused it; relaying that verdict is correct.
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		c.MarkFailure(target)
		if r.Context().Err() != nil {
			writeError(w, http.StatusServiceUnavailable, "canceled while forwarding")
			return true
		}
		c.CountFallback()
		s.logf("cluster: %s answered %d for %s %s (key %s) — serving locally",
			target, resp.StatusCode, r.Method, r.URL.Path, key)
		return false
	}
	c.CountForward()
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if by := resp.Header.Get(cluster.ServedByHeader); by != "" {
		// Relay who actually answered (the peer, or whoever it warmed the
		// response from) so clients and tests can observe the routing.
		w.Header().Set(cluster.ServedByHeader, by)
	}
	w.WriteHeader(resp.StatusCode)
	bp := relayBufs.Get().(*[]byte)
	_, err = io.CopyBuffer(w, resp.Body, *bp)
	relayBufs.Put(bp)
	if err != nil {
		// Status already sent; nothing to recover. The access log notes it.
		s.logf("cluster: relaying response from %s: %v", target, err)
	}
	return true
}

// relayBufs recycles the buffers maybeForward relays peer answers
// through. io.Copy would allocate a fresh 32 KB buffer per forwarded
// request, because the instrument middleware's recorder hides
// io.ReaderFrom. The buffer has io.Copy's size, so the writes, and with
// them the Content-Length or chunked framing of the relayed answer, stay
// as they were.
var relayBufs = sync.Pool{New: func() any {
	b := make([]byte, 32<<10)
	return &b
}}

// remoteWork is the entry pipeline for a key this node does not own,
// run off the ensure caller's goroutine (peer calls are network-scale,
// and a portfolio fan-out must not serialize behind them):
//
//	fetch built artifact from a replica -> ask the owner to generate,
//	then fetch -> degrade to a local generation job.
//
// Exactly one of the paths publishes the entry.
//
// tr is the trace of the request that created the entry (nil when none):
// the fetch/forward spans land on it even though this goroutine outlives
// the ensure call — Trace is atomic, so a post-response record is safe,
// and the global stage counters see the spans either way.
func (s *Server) remoteWork(tr *obs.Trace, e *entry) {
	// Spans parent to the trace root: this goroutine is asynchronous to
	// the request's span stack, so nesting under a span that may already
	// have ended would misrepresent the timeline.
	fetchSpan := tr.StartSpan(obs.StageFetch)
	fetchSpan.SetKey(e.key)
	p, stats, ok := s.fetchFromPeers(fetchSpan, e.spec)
	s.metrics.endSpan(fetchSpan)
	if ok {
		s.publishDone(e, p, stats)
		return
	}
	genSpan := tr.StartSpan(obs.StageForward)
	genSpan.SetKey(e.key)
	genSpan.SetRemote(s.cluster.Owner(e.key))
	p, stats, handled, err := s.generateOnOwner(genSpan, e.spec)
	s.metrics.endSpan(genSpan)
	switch {
	case handled && err != nil:
		s.publish(e, nil, mps.Stats{}, err)
	case handled:
		s.publishDone(e, p, stats)
	default:
		// Owner and replicas unreachable: serve anyway. The key's one cache
		// entry submits one job, so concurrent fallbacks share it.
		s.cluster.CountFallback()
		s.logf("cluster: owner %s unreachable for %s — degrading to local generation",
			s.cluster.Owner(e.key), e.key)
		s.submitGeneration(tr, e)
	}
}

// fetchFromPeers tries to pull the built structure (v2 bytes) for spec
// from the key's replica set, owner first. Milliseconds against a healthy
// peer; a dead one costs at most one FetchTimeout before its breaker
// starts refusing instantly.
func (s *Server) fetchFromPeers(sp obs.SpanRef, spec GenerateSpec) (*mps.Portfolio, mps.Stats, bool) {
	c := s.cluster
	key := spec.key()
	for _, peer := range c.Ring().Replicas(key, len(c.Peers())) {
		if peer == c.Self() {
			continue
		}
		p, stats, err := s.fetchFrom(sp, peer, spec)
		if err != nil {
			s.logf("cluster: fetching %s from %s: %v", key, peer, err)
			continue
		}
		if p != nil {
			c.CountFetch()
			return p, stats, true
		}
	}
	return nil, mps.Stats{}, false
}

// errPeerMiss distinguishes "peer answered: not here" from transport
// failure in fetchFrom.
var errPeerMiss = fmt.Errorf("peer does not have the structure")

// fetchFrom pulls spec's structure from one peer, as the one-member
// portfolio its cache entry holds. (nil, _, nil) is returned for a clean
// miss (the peer answered 404). sp, when backed by a trace, parents the
// per-attempt spans Do records for this pull.
func (s *Server) fetchFrom(sp obs.SpanRef, peer string, spec GenerateSpec) (*mps.Portfolio, mps.Stats, error) {
	c := s.cluster
	hdr := http.Header{}
	hdr.Set(cluster.ForwardHeader, c.ForwardMark())
	resp, err := c.Do(obs.ContextWithSpan(context.Background(), sp), peer, http.MethodGet,
		"/v1/cluster/structure?key="+url.QueryEscape(spec.key()), nil, hdr, c.FetchTimeout())
	if err != nil {
		return nil, mps.Stats{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return nil, mps.Stats{}, nil
	}
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return nil, mps.Stats{}, fmt.Errorf("peer answered %d", resp.StatusCode)
	}
	circuit, err := mps.Benchmark(spec.Circuit)
	if err != nil {
		return nil, mps.Stats{}, err
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxTransferBytes+1))
	if err != nil {
		return nil, mps.Stats{}, err
	}
	if len(body) == 0 {
		return nil, mps.Stats{}, errPeerMiss
	}
	if len(body) > maxTransferBytes {
		return nil, mps.Stats{}, fmt.Errorf("artifact exceeds %d bytes", maxTransferBytes)
	}
	// core.Load validates checksum and invariants: a corrupt or forged
	// peer response is an error here, never a served structure.
	cs, err := core.Load(bytes.NewReader(body), circuit)
	if err != nil {
		return nil, mps.Stats{}, fmt.Errorf("decoding peer artifact: %w", err)
	}
	var stats mps.Stats
	if cov := resp.Header.Get(clusterCoverageHeader); cov != "" {
		fmt.Sscanf(cov, "%g", &stats.FinalCoverage)
	}
	return single(spec.structure(cs)), stats, nil
}

// generateOnOwner asks the key's owner to generate spec (a marked,
// submit-and-wait POST /v1/structures — the owner dedups it against its
// own cache, store, and queue) and then fetches the built artifact.
// handled=false means the owner was unreachable and the caller should
// degrade to local generation; handled=true with err carries an owner
// verdict (e.g. a 4xx) that local generation could not improve on.
func (s *Server) generateOnOwner(sp obs.SpanRef, spec GenerateSpec) (*mps.Portfolio, mps.Stats, bool, error) {
	c := s.cluster
	owner := c.Owner(spec.key())
	hdr := http.Header{}
	hdr.Set("Content-Type", "application/json")
	hdr.Set(cluster.ForwardHeader, c.ForwardMark())
	resp, err := c.Do(obs.ContextWithSpan(context.Background(), sp), owner, http.MethodPost, "/v1/structures",
		mustSpecJSON(spec), hdr, c.ForwardTimeout())
	if err != nil {
		return nil, mps.Stats{}, false, nil
	}
	defer resp.Body.Close()
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	switch {
	case resp.StatusCode == http.StatusOK:
		p, stats, err := s.fetchFrom(sp, owner, spec)
		if err != nil || p == nil {
			// Generated there but the artifact will not come over; local
			// generation still serves the client.
			s.logf("cluster: owner %s generated %s but fetch failed: %v", owner, spec.key(), err)
			return nil, mps.Stats{}, false, nil
		}
		c.CountFetch()
		return p, stats, true, nil
	case resp.StatusCode >= 400 && resp.StatusCode < 500:
		// The owner understood and refused (bad spec, over budget); a
		// local run would be refused the same way.
		return nil, mps.Stats{}, true, fmt.Errorf("owner %s refused generation (%d): %s",
			owner, resp.StatusCode, bytes.TrimSpace(msg))
	default:
		// 5xx: owner is up but failing — same degradation as unreachable.
		return nil, mps.Stats{}, false, nil
	}
}

// entryForKey resolves a bare cache key — the instantiate fast path — in
// cluster order: LRU, local store (the manifest row's recorded spec), then
// the key's owner (the spec it records; the artifact follows through the
// ordinary entry pipeline). The first record found is admitted through
// recordedSpec, so a record over this node's caps answers the refusal a
// spec-addressed request gets; every LRU entry was admitted already. A nil
// entry with nil error means the key is unknown everywhere reachable.
func (s *Server) entryForKey(ctx context.Context, key string) (*entry, error) {
	if e, ok := s.lookup(key); ok {
		return e, nil
	}
	spec, err := s.recordedSpec(key, s.storedSpec(key))
	if errors.Is(err, errNoRecord) && s.cluster != nil && !forwardedFromCtx(ctx) {
		spec, err = s.recordedSpec(key, s.peerSpec(ctx, key))
	}
	switch {
	case errors.Is(err, errNoRecord):
		return nil, nil
	case err != nil:
		return nil, err
	}
	e, _, err := s.structureFor(ctx, spec, key)
	return e, err
}

// forwardedCtxKey marks request contexts of already-forwarded requests so
// entryForKey does not chase peers for a request a peer just sent us.
type forwardedCtxKey struct{}

func forwardedFromCtx(ctx context.Context) bool {
	v, _ := ctx.Value(forwardedCtxKey{}).(bool)
	return v
}

// storedSpec returns the spec JSON the local store manifest records for
// key (structure row or portfolio grouping row), "" when it has none.
func (s *Server) storedSpec(key string) string {
	if s.cfg.Store == nil {
		return ""
	}
	if m, ok := s.cfg.Store.Stat(key); ok {
		return m.Options
	}
	row, _ := s.cfg.Store.GetPortfolio(key)
	return row.Options
}

// peerSpec asks the key's owner which spec JSON it records for the key
// (metadata only — the artifact follows through the entry pipeline, where
// every replica gets a chance to serve it), "" when it records none.
func (s *Server) peerSpec(ctx context.Context, key string) string {
	c := s.cluster
	owner := c.Owner(key)
	if owner == c.Self() {
		return ""
	}
	hdr := http.Header{}
	hdr.Set(cluster.ForwardHeader, c.ForwardMark())
	tr := obs.TraceFrom(ctx)
	sp := tr.StartSpan(obs.StageFetch)
	sp.SetRemote(owner)
	sp.SetKey(key)
	defer func() { s.metrics.endSpan(sp) }()
	resp, err := c.Do(obs.ContextWithSpan(context.Background(), sp), owner, http.MethodGet,
		"/v1/cluster/structure?key="+url.QueryEscape(key)+"&meta=1", nil, hdr, c.FetchTimeout())
	if err != nil {
		return ""
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	if resp.StatusCode != http.StatusOK {
		return ""
	}
	return resp.Header.Get(clusterSpecHeader)
}

// Cluster transfer headers. clusterSpecHeader carries the recorded spec
// JSON (single-line as the server writes it), which the receiver admits;
// clusterCoverageHeader and clusterPlacementsHeader carry the manifest
// snapshot numbers.
const (
	clusterSpecHeader       = "X-Mps-Spec"
	clusterCoverageHeader   = "X-Mps-Coverage"
	clusterPlacementsHeader = "X-Mps-Placements"
)

// handleClusterStructure is GET /v1/cluster/structure?key=K[&meta=1]: the
// peer artifact endpoint. Answers from the LRU (encoding member 0 of a
// one-member entry as v2) or the store (streaming the file as it is on
// disk); never generates, never forwards — it exists so peers can move
// built artifacts, not work. So it admits nothing: a store row's spec
// JSON is relayed as recorded, and the asking peer admits it.
// Portfolio keys (K > 1) answer meta-only (the artifact is its members;
// peers assemble locally, fetching each member from its own owner).
func (s *Server) handleClusterStructure(w http.ResponseWriter, r *http.Request) {
	key := r.URL.Query().Get("key")
	if key == "" {
		writeError(w, http.StatusBadRequest, "missing key")
		return
	}
	metaOnly := r.URL.Query().Get("meta") == "1"

	if e, ok := s.lookup(key); ok {
		w.Header().Set(clusterSpecHeader, string(mustSpecJSON(e.spec)))
		w.Header().Set(clusterCoverageHeader, strconv.FormatFloat(e.coverage, 'g', -1, 64))
		w.Header().Set(clusterPlacementsHeader, strconv.Itoa(e.placements))
		if metaOnly || e.p.K() > 1 {
			w.WriteHeader(http.StatusOK)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		if err := e.p.Member(0).SaveBinary(w); err != nil {
			s.logf("cluster: encoding %s for peer: %v", key, err)
		}
		return
	}
	if raw := s.storedSpec(key); raw != "" {
		w.Header().Set(clusterSpecHeader, raw)
		if m, ok := s.cfg.Store.Stat(key); ok {
			w.Header().Set(clusterCoverageHeader, strconv.FormatFloat(m.Coverage, 'g', -1, 64))
			w.Header().Set(clusterPlacementsHeader, strconv.Itoa(m.Placements))
			if metaOnly {
				w.WriteHeader(http.StatusOK)
				return
			}
			data, _, err := s.cfg.Store.ReadFile(key)
			if err != nil {
				s.loadErrs.Add(1)
				writeError(w, http.StatusInternalServerError, err.Error())
				return
			}
			w.Header().Set("Content-Type", "application/octet-stream")
			w.Write(data)
			return
		}
		// Portfolio grouping row: meta only.
		w.WriteHeader(http.StatusOK)
		return
	}
	writeError(w, http.StatusNotFound, fmt.Sprintf("structure %q not held here", key))
}

// handleClusterAccept is POST /v1/cluster/accept: the receiving side of a
// rebalance transfer — manifest meta in headers, the structure file as the
// body. The spec is admitted and the artifact revalidates through
// core.Load before anything persists, so an over-cap spec or a corrupt
// transfer is refused, never stored.
func (s *Server) handleClusterAccept(w http.ResponseWriter, r *http.Request) {
	var spec GenerateSpec
	if err := json.Unmarshal([]byte(r.Header.Get(clusterSpecHeader)), &spec); err != nil {
		writeError(w, http.StatusBadRequest, "missing or invalid "+clusterSpecHeader)
		return
	}
	key, err := s.admit(&spec)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if spec.Portfolio > 1 {
		writeError(w, http.StatusBadRequest, "portfolio groupings do not transfer (members do)")
		return
	}
	circuit, err := mps.Benchmark(spec.Circuit)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxTransferBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("reading artifact: %v", err))
		return
	}
	cs, err := core.Load(bytes.NewReader(body), circuit)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("invalid artifact: %v", err))
		return
	}
	coverage, _ := strconv.ParseFloat(r.Header.Get(clusterCoverageHeader), 64)
	if s.cfg.Store != nil {
		if _, err := s.cfg.Store.Put(structureMeta(spec, coverage), cs); err != nil {
			writeError(w, http.StatusInternalServerError, err.Error())
			return
		}
	} else {
		// Store-less node: hold the transferred structure in the LRU.
		s.install(spec, single(spec.structure(cs)), mps.Stats{FinalCoverage: coverage}, false)
	}
	writeJSON(w, http.StatusOK, map[string]any{"key": key, "stored": true})
}

// RebalanceReport summarizes one rebalance pass.
type RebalanceReport struct {
	Scanned     int `json:"scanned"`
	Kept        int `json:"kept"`        // keys this node owns
	Transferred int `json:"transferred"` // keys pushed to their owner
	Dropped     int `json:"dropped"`     // local copies deleted after transfer
	Failed      int `json:"failed"`
}

// Rebalance walks the local store and pushes every structure whose key
// this node no longer owns to its owning peer, reusing the persisted
// structure file verbatim as the transfer format (the receiver's Put
// rewrites a legacy v3 file as v2). With drop, successfully
// transferred local copies are deleted (run without drop first: keeping
// the copy is free read-replica capacity until space matters). Portfolio
// grouping rows never transfer — the artifact is its members, which
// transfer under their own keys. A member that a local grouping row names
// transfers but is never dropped: the row requires a local copy of every
// member, so dropping one would delete the row, and with it this node's
// way to resolve the portfolio key it owns.
func (s *Server) Rebalance(ctx context.Context, drop bool) (RebalanceReport, error) {
	if s.cluster == nil {
		return RebalanceReport{}, fmt.Errorf("serve: not in cluster mode")
	}
	if s.cfg.Store == nil {
		return RebalanceReport{}, fmt.Errorf("serve: no store to rebalance")
	}
	var rep RebalanceReport
	for _, m := range s.cfg.Store.List() {
		if ctx.Err() != nil {
			return rep, ctx.Err()
		}
		rep.Scanned++
		owner := s.cluster.Owner(m.Key)
		if owner == s.cluster.Self() {
			rep.Kept++
			continue
		}
		data, meta, err := s.cfg.Store.ReadFile(m.Key)
		if err != nil {
			s.logf("rebalance: reading %s: %v", m.Key, err)
			rep.Failed++
			continue
		}
		hdr := http.Header{}
		hdr.Set(cluster.ForwardHeader, s.cluster.ForwardMark())
		hdr.Set("Content-Type", "application/octet-stream")
		hdr.Set(clusterSpecHeader, meta.Options)
		hdr.Set(clusterCoverageHeader, strconv.FormatFloat(meta.Coverage, 'g', -1, 64))
		hdr.Set(clusterPlacementsHeader, strconv.Itoa(meta.Placements))
		resp, err := s.cluster.Do(ctx, owner, http.MethodPost, "/v1/cluster/accept", data, hdr, s.cluster.ForwardTimeout())
		if err != nil {
			s.logf("rebalance: pushing %s to %s: %v", m.Key, owner, err)
			rep.Failed++
			continue
		}
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			s.logf("rebalance: %s refused %s: %d", owner, m.Key, resp.StatusCode)
			rep.Failed++
			continue
		}
		rep.Transferred++
		if drop && !s.grouped(m.Key) {
			if err := s.cfg.Store.Delete(m.Key); err != nil {
				s.logf("rebalance: dropping local %s: %v", m.Key, err)
			} else {
				rep.Dropped++
			}
		}
	}
	return rep, nil
}

// grouped reports whether a local portfolio grouping row names key as a
// member.
func (s *Server) grouped(key string) bool {
	for _, row := range s.cfg.Store.Portfolios() {
		if slices.Contains(row.Members, key) {
			return true
		}
	}
	return false
}

// handleClusterRebalance is POST /v1/cluster/rebalance[?drop=1].
func (s *Server) handleClusterRebalance(w http.ResponseWriter, r *http.Request) {
	rep, err := s.Rebalance(r.Context(), r.URL.Query().Get("drop") == "1")
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, rep)
}
