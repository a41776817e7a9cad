package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"net/http"
	"net/http/httputil"
	"net/url"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"mps/internal/cluster"
	"mps/internal/core"
	"mps/internal/store"
)

// testLogf returns a t.Logf wrapper that goes silent once the test's
// cleanups have run, so a straggling remoteWork goroutine can never log
// into a finished test. Register it before anything that spawns
// goroutines: cleanups run LIFO, so the silencer fires last.
func testLogf(t *testing.T) func(string, ...any) {
	var mu sync.Mutex
	done := false
	t.Cleanup(func() { mu.Lock(); done = true; mu.Unlock() })
	return func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		if !done {
			t.Logf(format, args...)
		}
	}
}

// flakyProxy fronts one node's listener and injects faults on demand:
// mode "ok" reverse-proxies to the backend, "hang" holds the request open
// until the client gives up, "500" answers every request with an injected
// server error, and "drop" severs the TCP connection without a response.
type flakyProxy struct {
	url  string
	rp   *httputil.ReverseProxy
	mu   sync.Mutex
	mode string
	hits int64
}

func newFlakyProxy(t *testing.T, backend string) *flakyProxy {
	t.Helper()
	bu, err := url.Parse(backend)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &flakyProxy{
		url:  "http://" + ln.Addr().String(),
		rp:   httputil.NewSingleHostReverseProxy(bu),
		mode: "ok",
	}
	p.rp.ErrorLog = log.New(io.Discard, "", 0)
	hs := &http.Server{Handler: p}
	go hs.Serve(ln)
	t.Cleanup(func() { hs.Close() })
	return p
}

func (p *flakyProxy) setMode(m string) {
	p.mu.Lock()
	p.mode = m
	p.mu.Unlock()
}

func (p *flakyProxy) hitCount() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.hits
}

func (p *flakyProxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	p.mu.Lock()
	p.hits++
	mode := p.mode
	p.mu.Unlock()
	switch mode {
	case "hang":
		<-r.Context().Done()
	case "500":
		http.Error(w, "injected fault", http.StatusInternalServerError)
	case "drop":
		if hj, ok := w.(http.Hijacker); ok {
			if conn, _, err := hj.Hijack(); err == nil {
				conn.Close()
				return
			}
		}
		panic(http.ErrAbortHandler)
	default:
		p.rp.ServeHTTP(w, r)
	}
}

// clusterNode is one in-process daemon of a test fleet.
type clusterNode struct {
	s     *Server
	c     *cluster.Cluster
	url   string // advertised base URL (the proxy's, for flaky nodes)
	store *store.Dir
}

type testFleet struct {
	nodes   []*clusterNode
	proxies map[int]*flakyProxy
}

// fleetConfig shapes newTestFleet: n nodes, the listed indexes fronted by
// a flakyProxy, optional per-node disk stores, and override hooks for the
// cluster and serve configs (applied to every node).
type fleetConfig struct {
	n       int
	flaky   []int
	stores  bool
	cluster func(cfg *cluster.Config)
	serve   func(cfg *Config)
}

// newTestFleet starts n serve.Servers on real localhost listeners wired
// into one cluster. Listeners are bound first so every node knows the
// full advertised peer set before any server starts.
func newTestFleet(t *testing.T, fc fleetConfig) *testFleet {
	t.Helper()
	logf := testLogf(t)
	backends := make([]net.Listener, fc.n)
	advertised := make([]string, fc.n)
	for i := range backends {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		backends[i] = ln
		advertised[i] = "http://" + ln.Addr().String()
	}
	f := &testFleet{proxies: map[int]*flakyProxy{}}
	for _, i := range fc.flaky {
		p := newFlakyProxy(t, advertised[i])
		f.proxies[i] = p
		advertised[i] = p.url
	}
	for i := 0; i < fc.n; i++ {
		ccfg := cluster.Config{
			Self:             advertised[i],
			Peers:            advertised,
			VNodes:           64, // ownership determinism is all these tests need
			ForwardTimeout:   10 * time.Second,
			FetchTimeout:     2 * time.Second,
			Retries:          1,
			RetryBackoff:     20 * time.Millisecond,
			BreakerThreshold: 2,
			BreakerCooldown:  100 * time.Millisecond,
			Logf:             logf,
		}
		if fc.cluster != nil {
			fc.cluster(&ccfg)
		}
		cl, err := cluster.New(ccfg)
		if err != nil {
			t.Fatal(err)
		}
		scfg := Config{Cluster: cl, Logf: logf}
		if fc.stores {
			scfg.Store = openStore(t, t.TempDir())
		}
		if fc.serve != nil {
			fc.serve(&scfg)
		}
		srv := New(scfg)
		hs := &http.Server{Handler: srv.Handler()}
		go hs.Serve(backends[i])
		t.Cleanup(func() {
			hs.Close()
			srv.Close()
			srv.Flush()
		})
		f.nodes = append(f.nodes, &clusterNode{s: srv, c: cl, url: advertised[i], store: scfg.Store})
	}
	return f
}

// ownerIndex returns the node index owning key, first asserting every
// node's ring agrees on the owner.
func (f *testFleet) ownerIndex(t *testing.T, key string) int {
	t.Helper()
	owner := f.nodes[0].c.Owner(key)
	for i, n := range f.nodes {
		if got := n.c.Owner(key); got != owner {
			t.Fatalf("node %d disagrees on owner of %s: %s vs %s", i, key, got, owner)
		}
	}
	for i, n := range f.nodes {
		if n.c.Self() == owner {
			return i
		}
	}
	t.Fatalf("owner %s of %s is not a fleet node", owner, key)
	return -1
}

// specOwnedBy scans seeds from startSeed until it finds a testSpec whose
// key the ring assigns to node idx.
func (f *testFleet) specOwnedBy(t *testing.T, idx int, startSeed int64) GenerateSpec {
	t.Helper()
	for seed := startSeed; seed < startSeed+1000; seed++ {
		spec := testSpec(seed)
		if f.ownerIndex(t, specKey(t, spec)) == idx {
			return spec
		}
	}
	t.Fatalf("no spec owned by node %d in 1000 seeds from %d", idx, startSeed)
	return GenerateSpec{}
}

func (f *testFleet) genRunsTotal() int64 {
	var total int64
	for _, n := range f.nodes {
		total += n.s.genRuns.Load()
	}
	return total
}

// specKey normalizes a copy of spec and returns its canonical key.
func specKey(t *testing.T, spec GenerateSpec) string {
	t.Helper()
	if err := spec.normalize(); err != nil {
		t.Fatal(err)
	}
	return spec.key()
}

// doJSON issues one request and returns status, response headers, and the
// raw body.
func doClusterJSON(t *testing.T, method, url string, body any, hdr map[string]string) (int, http.Header, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, data
}

// countJobs returns how many scheduler jobs on s carry key.
func countJobs(s *Server, key string) int {
	n := 0
	for _, snap := range s.Jobs().List() {
		if snap.Key == key {
			n++
		}
	}
	return n
}

// TestClusterThreeNodeE2E is the in-process three-node end-to-end check:
// every entry node answers every spec key identically, forwarding is at
// most one hop, and the structure is generated exactly once cluster-wide.
func TestClusterThreeNodeE2E(t *testing.T) {
	fleet := newTestFleet(t, fleetConfig{n: 3})
	spec := testSpec(1)
	key := specKey(t, spec)
	owner := fleet.ownerIndex(t, key)
	nonOwnerA, nonOwnerB := -1, -1
	for i := range fleet.nodes {
		if i == owner {
			continue
		}
		if nonOwnerA < 0 {
			nonOwnerA = i
		} else {
			nonOwnerB = i
		}
	}

	// Generate through a non-owner first (forces the forward), then ask
	// the owner and the other non-owner: identical answers everywhere.
	var refGen []byte
	for round, i := range []int{nonOwnerA, owner, nonOwnerB} {
		status, hdr, body := doClusterJSON(t, http.MethodPost, fleet.nodes[i].url+"/v1/structures", spec, nil)
		if status != http.StatusOK {
			t.Fatalf("POST /v1/structures via node %d: %d %s", i, status, body)
		}
		var info StructureInfo
		if err := json.Unmarshal(body, &info); err != nil {
			t.Fatal(err)
		}
		if info.Key != key {
			t.Fatalf("node %d answered key %s, want %s", i, info.Key, key)
		}
		if i != owner {
			if by := hdr.Get(cluster.ServedByHeader); by != fleet.nodes[owner].c.Self() {
				t.Fatalf("node %d response served by %q, want owner %q (one hop)", i, by, fleet.nodes[owner].c.Self())
			}
		}
		norm := info // placements/coverage must agree across entry nodes
		normJSON, _ := json.Marshal(map[string]any{"p": norm.Placements, "c": norm.Coverage})
		if round == 0 {
			refGen = normJSON
		} else if !bytes.Equal(refGen, normJSON) {
			t.Fatalf("node %d generation answer %s differs from %s", i, normJSON, refGen)
		}
	}
	if got := fleet.genRunsTotal(); got != 1 {
		t.Fatalf("cluster generated %d times, want exactly 1", got)
	}
	if got := fleet.nodes[owner].s.genRuns.Load(); got != 1 {
		t.Fatalf("owner ran %d generations, want 1", got)
	}
	if fwd := fleet.nodes[owner].c.Stats().Forwards; fwd != 0 {
		t.Fatalf("owner forwarded %d requests for a key it owns", fwd)
	}
	if fwd := fleet.nodes[nonOwnerA].c.Stats().Forwards; fwd == 0 {
		t.Fatal("entry node never forwarded")
	}

	// Async job submission follows the same routing: the job lives on the
	// owner (the ServedBy header names the node to poll), never on the
	// entry node.
	status, hdr, body := doClusterJSON(t, http.MethodPost, fleet.nodes[nonOwnerA].url+"/v1/jobs",
		map[string]any{"spec": spec}, nil)
	if status != http.StatusOK {
		t.Fatalf("POST /v1/jobs via node %d: %d %s", nonOwnerA, status, body)
	}
	if by := hdr.Get(cluster.ServedByHeader); by != fleet.nodes[owner].c.Self() {
		t.Fatalf("job submitted via node %d served by %q, want owner", nonOwnerA, by)
	}
	var job map[string]any
	if err := json.Unmarshal(body, &job); err != nil {
		t.Fatal(err)
	}
	if job["key"] != key {
		t.Fatalf("job key %v, want %s", job["key"], key)
	}
	if n := countJobs(fleet.nodes[owner].s, key); n != 1 {
		t.Fatalf("owner has %d jobs for %s, want 1", n, key)
	}
	if n := countJobs(fleet.nodes[nonOwnerA].s, key); n != 0 {
		t.Fatalf("entry node has %d jobs for %s, want 0 (job lives on the owner)", n, key)
	}

	// Instantiate answers byte-identically from every entry node.
	instReq := map[string]any{"spec": spec, "queries": []any{testQuery(t, 0), testQuery(t, 1)}}
	var refInst []byte
	for round, i := range []int{owner, nonOwnerA, nonOwnerB} {
		status, _, body := doClusterJSON(t, http.MethodPost, fleet.nodes[i].url+"/v1/instantiate", instReq, nil)
		if status != http.StatusOK {
			t.Fatalf("instantiate via node %d: %d %s", i, status, body)
		}
		if round == 0 {
			refInst = body
		} else if !bytes.Equal(refInst, body) {
			t.Fatalf("instantiate via node %d differs:\n%s\nvs\n%s", i, body, refInst)
		}
	}

	// A request already carrying the forward mark is served locally even
	// by a non-owner — the single-hop guarantee. The replica satisfies it
	// by fetching the built artifact, not by regenerating.
	mark, err := cluster.EncodeForward(cluster.Forward{From: fleet.nodes[owner].c.Self(), Hop: 1})
	if err != nil {
		t.Fatal(err)
	}
	status, hdr, body = doClusterJSON(t, http.MethodPost, fleet.nodes[nonOwnerA].url+"/v1/instantiate",
		instReq, map[string]string{cluster.ForwardHeader: mark})
	if status != http.StatusOK {
		t.Fatalf("marked instantiate: %d %s", status, body)
	}
	if by := hdr.Get(cluster.ServedByHeader); by != fleet.nodes[nonOwnerA].c.Self() {
		t.Fatalf("marked request served by %q, want the receiving node itself", by)
	}
	if !bytes.Equal(refInst, body) {
		t.Fatalf("replica-served instantiate differs:\n%s\nvs\n%s", body, refInst)
	}
	if fetches := fleet.nodes[nonOwnerA].c.Stats().Fetches; fetches == 0 {
		t.Fatal("replica served a non-owned key without fetching the artifact")
	}

	// A malformed mark still counts as forwarded (loop guard by presence):
	// the node answers locally instead of forwarding again.
	before := fleet.nodes[nonOwnerB].c.Stats().Forwards
	status, hdr, body = doClusterJSON(t, http.MethodPost, fleet.nodes[nonOwnerB].url+"/v1/instantiate",
		instReq, map[string]string{cluster.ForwardHeader: "???not-a-mark"})
	if status != http.StatusOK {
		t.Fatalf("malformed-mark instantiate: %d %s", status, body)
	}
	if by := hdr.Get(cluster.ServedByHeader); by != fleet.nodes[nonOwnerB].c.Self() {
		t.Fatalf("malformed-mark request served by %q, want the receiving node", by)
	}
	if after := fleet.nodes[nonOwnerB].c.Stats().Forwards; after != before {
		t.Fatal("node forwarded a request that already carried a (malformed) mark")
	}

	// Replica fan-out and marked requests must not have duplicated the
	// annealing work.
	if got := fleet.genRunsTotal(); got != 1 {
		t.Fatalf("cluster generated %d times after replica serving, want exactly 1", got)
	}
}

// TestClusterPortfolioMemberFanout checks that a portfolio request routes
// each of its K member generations to the member key's owning node, with
// every member generated exactly once cluster-wide.
func TestClusterPortfolioMemberFanout(t *testing.T) {
	fleet := newTestFleet(t, fleetConfig{n: 3})
	spec := testSpec(7)
	spec.Portfolio = 2
	key := specKey(t, spec)
	entry := (fleet.ownerIndex(t, key) + 1) % 3 // enter through a non-owner

	status, _, body := doClusterJSON(t, http.MethodPost, fleet.nodes[entry].url+"/v1/structures", spec, nil)
	if status != http.StatusOK {
		t.Fatalf("portfolio generate: %d %s", status, body)
	}
	var info StructureInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if info.Key != key {
		t.Fatalf("answered key %s, want %s", info.Key, key)
	}

	// Each member annealed exactly once, on the node owning its key.
	owned := make([]int64, 3)
	for i := 0; i < spec.Portfolio; i++ {
		mkey := specKey(t, spec.memberSpec(i))
		owned[fleet.ownerIndex(t, mkey)]++
	}
	for i, n := range fleet.nodes {
		if got := n.s.genRuns.Load(); got != owned[i] {
			t.Errorf("node %d ran %d generations, want %d (its owned member keys)", i, got, owned[i])
		}
	}
	if got := fleet.genRunsTotal(); got != int64(spec.Portfolio) {
		t.Fatalf("cluster generated %d times, want %d (one per member)", got, spec.Portfolio)
	}

	// The portfolio answers identically from every node.
	instReq := map[string]any{"spec": spec, "queries": []any{testQuery(t, 0), testQuery(t, 1)}}
	var ref []byte
	for i := range fleet.nodes {
		status, _, body := doClusterJSON(t, http.MethodPost, fleet.nodes[i].url+"/v1/instantiate", instReq, nil)
		if status != http.StatusOK {
			t.Fatalf("portfolio instantiate via node %d: %d %s", i, status, body)
		}
		if ref == nil {
			ref = body
		} else if !bytes.Equal(ref, body) {
			t.Fatalf("portfolio instantiate via node %d differs:\n%s\nvs\n%s", i, body, ref)
		}
	}
}

// TestClusterFaultInjection drives the degradation cascade through a
// fault-injecting proxy in front of the owning peer: hangs time out and
// retry with backoff, errors and drops trip the breaker, and every mode
// falls back to local generation without duplicate jobs.
func TestClusterFaultInjection(t *testing.T) {
	const forwardTimeout = 1 * time.Second
	const fetchTimeout = 200 * time.Millisecond
	const backoff = 20 * time.Millisecond
	const cooldown = 100 * time.Millisecond
	fleet := newTestFleet(t, fleetConfig{
		n:     2,
		flaky: []int{1},
		cluster: func(cfg *cluster.Config) {
			cfg.ForwardTimeout = forwardTimeout
			cfg.FetchTimeout = fetchTimeout
			cfg.RetryBackoff = backoff
			cfg.BreakerThreshold = 2
			cfg.BreakerCooldown = cooldown
		},
	})
	entry, peer := fleet.nodes[0], fleet.nodes[1]
	proxy := fleet.proxies[1]
	peerURL := peer.c.Self()

	// Phase 1 — hang: the forward times out per attempt, retries with
	// backoff, and the request is served by local generation.
	spec1 := fleet.specOwnedBy(t, 1, 100)
	key1 := specKey(t, spec1)
	proxy.setMode("hang")
	start := time.Now()
	status, hdr, body := doClusterJSON(t, http.MethodPost, entry.url+"/v1/structures", spec1, nil)
	elapsed := time.Since(start)
	if status != http.StatusOK {
		t.Fatalf("generate with hanging owner: %d %s", status, body)
	}
	if by := hdr.Get(cluster.ServedByHeader); by != entry.c.Self() {
		t.Fatalf("served by %q, want local fallback on %q", by, entry.c.Self())
	}
	if elapsed < 2*forwardTimeout+backoff {
		t.Fatalf("request finished in %v — did not wait out both forward attempts (%v each) plus backoff", elapsed, forwardTimeout)
	}
	// Retries=1 means two attempts per Do; the forward Do and the artifact
	// fetch Do each hit the peer twice.
	if hits := proxy.hitCount(); hits < 4 {
		t.Fatalf("peer saw %d attempts, want >= 4 (both forward and fetch retried)", hits)
	}
	if got := entry.s.genRuns.Load(); got != 1 {
		t.Fatalf("entry node ran %d generations, want 1", got)
	}
	if got := peer.s.genRuns.Load(); got != 0 {
		t.Fatalf("hanging peer ran %d generations, want 0", got)
	}
	if entry.c.Stats().Fallbacks == 0 {
		t.Fatal("no fallback counted")
	}
	open, closed := cluster.BreakerOpen.GaugeValue(), cluster.BreakerClosed.GaugeValue()
	if g := entry.c.BreakerGauges()[peerURL]; g != open {
		t.Fatalf("breaker gauge for %s is %v, want %v (open) after consecutive failures", peerURL, g, open)
	}

	// Phase 2 — breaker open: the same request again is answered from the
	// local cache instantly; the open breaker skips the network entirely.
	start = time.Now()
	status, _, body = doClusterJSON(t, http.MethodPost, entry.url+"/v1/structures", spec1, nil)
	if status != http.StatusOK {
		t.Fatalf("repeat generate: %d %s", status, body)
	}
	if elapsed := time.Since(start); elapsed >= forwardTimeout {
		t.Fatalf("repeat request took %v — breaker did not short-circuit the dead peer", elapsed)
	}
	var info StructureInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if !info.Cached {
		t.Fatal("repeat request not served from cache")
	}
	if skips := entry.c.Stats().BreakerSkips; skips == 0 {
		t.Fatal("open breaker never skipped an attempt")
	}
	// No duplicate jobs: the fallback generation is the only job for the
	// key, on the entry node only.
	if n := countJobs(entry.s, key1); n != 1 {
		t.Fatalf("entry node has %d jobs for %s, want 1", n, key1)
	}
	if n := countJobs(peer.s, key1); n != 0 {
		t.Fatalf("hanging peer has %d jobs for %s, want 0", n, key1)
	}

	// Phase 3 — 500s: the peer answers instantly with server errors; the
	// entry node falls back locally without burning any timeout.
	time.Sleep(cooldown + 50*time.Millisecond) // let the breaker go half-open
	proxy.setMode("500")
	spec2 := fleet.specOwnedBy(t, 1, 200)
	start = time.Now()
	status, hdr, body = doClusterJSON(t, http.MethodPost, entry.url+"/v1/structures", spec2, nil)
	if status != http.StatusOK {
		t.Fatalf("generate with 500ing owner: %d %s", status, body)
	}
	if by := hdr.Get(cluster.ServedByHeader); by != entry.c.Self() {
		t.Fatalf("served by %q, want local fallback", by)
	}
	if elapsed := time.Since(start); elapsed >= forwardTimeout {
		t.Fatalf("5xx fallback took %v — error responses must not consume the forward timeout", elapsed)
	}
	if got := entry.s.genRuns.Load(); got != 2 {
		t.Fatalf("entry node ran %d generations, want 2", got)
	}

	// Phase 4 — dropped connections: instant transport errors re-trip the
	// breaker; the request is still served locally.
	proxy.setMode("drop")
	spec3 := fleet.specOwnedBy(t, 1, 300)
	status, _, body = doClusterJSON(t, http.MethodPost, entry.url+"/v1/structures", spec3, nil)
	if status != http.StatusOK {
		t.Fatalf("generate with dropping owner: %d %s", status, body)
	}
	if got := entry.s.genRuns.Load(); got != 3 {
		t.Fatalf("entry node ran %d generations, want 3", got)
	}
	if g := entry.c.BreakerGauges()[peerURL]; g != open {
		t.Fatalf("breaker gauge is %v after dropped connections, want %v (open)", g, open)
	}

	// Phase 5 — recovery: once the peer heals and the cooldown elapses,
	// the half-open probe succeeds and the breaker closes again.
	proxy.setMode("ok")
	time.Sleep(cooldown + 50*time.Millisecond)
	resp, err := entry.c.Do(context.Background(), peerURL, http.MethodGet, "/healthz", nil, nil, 2*time.Second)
	if err != nil {
		t.Fatalf("probe after recovery: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("probe answered %d", resp.StatusCode)
	}
	if g, ok := entry.c.BreakerGauges()[peerURL]; !ok || g != closed {
		t.Fatalf("breaker gauge is (%v, %v) after a successful probe, want %v (closed)", g, ok, closed)
	}
}

// TestClusterFallbackMatchesOwner: a spec key names one artifact on every
// node, at any chain count. The owner generates a chains-4 spec; then,
// with the owner's connections dropped, the non-owner degrades to local
// generation and must hold the owner's member-0 bytes and give the
// owner's answers to a fixed batch of covered and uncovered queries.
func TestClusterFallbackMatchesOwner(t *testing.T) {
	fleet := newTestFleet(t, fleetConfig{n: 2, flaky: []int{1}})
	owner, entry := fleet.nodes[1], fleet.nodes[0]
	spec := GenerateSpec{Circuit: "circ01", Effort: "quick", Chains: 4}
	for spec.Seed = 400; fleet.ownerIndex(t, specKey(t, spec)) != 1; spec.Seed++ {
		if spec.Seed == 1400 {
			t.Fatal("no chains-4 spec owned by node 1 in 1000 seeds")
		}
	}
	key := specKey(t, spec)

	// artifact generates spec through node n and returns the SaveBinary
	// bytes of its member 0, and the member.
	artifact := func(n *clusterNode) ([]byte, *core.Structure) {
		t.Helper()
		if code, body := postJSON(t, n.url+"/v1/structures", spec, nil); code != http.StatusOK {
			t.Fatalf("generate via %s: %d %s", n.url, code, body)
		}
		e, ok := n.s.lookup(key)
		if !ok {
			t.Fatalf("%s is not cached on %s", key, n.url)
		}
		var buf bytes.Buffer
		if err := e.p.Member(0).SaveBinary(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), e.p.Member(0)
	}
	var queries []map[string][]int
	answers := func(n *clusterNode) string {
		t.Helper()
		var out struct {
			Results json.RawMessage `json:"results"`
		}
		if code, body := postJSON(t, n.url+"/v1/instantiate", map[string]any{"spec": spec, "queries": queries}, &out); code != http.StatusOK {
			t.Fatalf("instantiate via %s: %d %s", n.url, code, body)
		}
		return string(out.Results)
	}

	ownerBytes, st := artifact(owner)
	queries = oracleQueries(t, rand.New(rand.NewSource(spec.Seed)), []*core.Structure{st})
	ownerAnswers := answers(owner)
	if !strings.Contains(ownerAnswers, `"from_backup":false`) {
		t.Fatalf("no query of the batch is covered: %s", ownerAnswers)
	}

	fleet.proxies[1].setMode("drop")
	runs := entry.s.genRuns.Load()
	localBytes, _ := artifact(entry)
	if got := entry.s.genRuns.Load(); got != runs+1 {
		t.Fatalf("non-owner ran %d generations, want %d: no local fallback", got, runs+1)
	}
	if !bytes.Equal(localBytes, ownerBytes) {
		t.Errorf("the fallback artifact for %s differs from the owner's (%d vs %d bytes)", key, len(localBytes), len(ownerBytes))
	}
	if got := answers(entry); got != ownerAnswers {
		t.Errorf("the fallback answers differ from the owner's:\n%s\nvs\n%s", got, ownerAnswers)
	}
}

// TestClusterHotKeyFanOut checks the read-replica path: once a key's read
// rate crosses the hot threshold, the entry node starts answering some
// reads itself — fetching the built artifact, never regenerating.
func TestClusterHotKeyFanOut(t *testing.T) {
	fleet := newTestFleet(t, fleetConfig{
		n: 2,
		cluster: func(cfg *cluster.Config) {
			cfg.HotThreshold = 3
			cfg.HotWindow = time.Hour
			cfg.Replicas = 2
		},
	})
	spec := fleet.specOwnedBy(t, 1, 400)
	key := specKey(t, spec)

	status, _, body := doClusterJSON(t, http.MethodPost, fleet.nodes[1].url+"/v1/structures", spec, nil)
	if status != http.StatusOK {
		t.Fatalf("generate on owner: %d %s", status, body)
	}

	instReq := map[string]any{"key": key, "queries": []any{testQuery(t, 0)}}
	var ref []byte
	for i := 0; i < 25; i++ {
		status, _, body := doClusterJSON(t, http.MethodPost, fleet.nodes[0].url+"/v1/instantiate", instReq, nil)
		if status != http.StatusOK {
			t.Fatalf("instantiate %d: %d %s", i, status, body)
		}
		if ref == nil {
			ref = body
		} else if !bytes.Equal(ref, body) {
			t.Fatalf("instantiate %d differs:\n%s\nvs\n%s", i, body, ref)
		}
	}
	// With threshold 3 and 25 reads, the entry node picked itself from the
	// replica set with overwhelming probability, pulling the artifact over.
	if _, ok := fleet.nodes[0].s.lookup(key); !ok {
		t.Fatal("hot key never replicated to the entry node")
	}
	if fetches := fleet.nodes[0].c.Stats().Fetches; fetches == 0 {
		t.Fatal("entry node served the hot key without fetching the artifact")
	}
	if got := fleet.genRunsTotal(); got != 1 {
		t.Fatalf("cluster generated %d times, want 1 — fan-out must not regenerate", got)
	}
}

// TestClusterForwardAllocBound bounds the bytes a forwarded instantiate
// allocates across a two-node fleet, both nodes and the client included,
// for a key-addressed and a spec-addressed body. Relaying the owner's
// answer through io.Copy allocated a fresh 32 KB buffer per request (the
// instrument middleware's recorder hides io.ReaderFrom), about half of
// everything a forwarded request allocated. A spec-addressed body, as
// sizing loops send, also pays the spec's decode and key on both nodes.
func TestClusterForwardAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts do not hold under the race detector")
	}
	fleet := newTestFleet(t, fleetConfig{
		n: 2,
		// One replica: every read forwards to the owner, none turns local.
		cluster: func(cfg *cluster.Config) { cfg.Replicas = 1 },
	})
	spec := fleet.specOwnedBy(t, 1, 500)
	key := specKey(t, spec)
	if status, _, body := doClusterJSON(t, http.MethodPost, fleet.nodes[1].url+"/v1/structures", spec, nil); status != http.StatusOK {
		t.Fatalf("generate on owner: %d %s", status, body)
	}
	queries := []any{testQuery(t, 0), testQuery(t, 1), testQuery(t, 0), testQuery(t, 1)}
	entry := fleet.nodes[0].url + "/v1/instantiate"
	for _, leg := range []struct {
		name  string
		addr  map[string]any
		bound uint64
	}{
		// Measured at ~60 KB with a fresh relay buffer per request and
		// ~28 KB with a pooled one.
		{"key", map[string]any{"key": key}, 44 << 10},
		// Measured at ~30 KB with the spec decoded by encoding/json, keyed
		// by fmt.Sprintf and traced into 32 slots, and ~25 KB after.
		{"spec", map[string]any{"spec": spec}, 28 << 10},
	} {
		leg.addr["queries"] = queries
		req, err := json.Marshal(leg.addr)
		if err != nil {
			t.Fatal(err)
		}
		forward := func() {
			resp, err := http.Post(entry, "application/json", bytes.NewReader(req))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if _, err := io.Copy(io.Discard, resp.Body); err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("forwarded %s-addressed instantiate: %d", leg.name, resp.StatusCode)
			}
		}
		for i := 0; i < 20; i++ { // warm connections and pools
			forward()
		}
		const n = 200
		fwdBefore := fleet.nodes[0].c.Stats().Forwards
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			forward()
		}
		runtime.ReadMemStats(&after)
		if fwd := fleet.nodes[0].c.Stats().Forwards - fwdBefore; fwd < n {
			t.Fatalf("%s-addressed: entry node forwarded %d requests, want at least %d", leg.name, fwd, n)
		}
		perReq := (after.TotalAlloc - before.TotalAlloc) / n
		t.Logf("%s-addressed: %d bytes allocated per forwarded request", leg.name, perReq)
		if perReq > leg.bound {
			t.Errorf("forwarded %s-addressed instantiate allocated %d bytes per request, want at most %d",
				leg.name, perReq, leg.bound)
		}
	}
}

// TestClusterRebalance creates a misplaced artifact (owner down → local
// fallback persists it on the wrong node), then rebalances: the artifact
// transfers to its owner as v3 bytes, the local copy drops, and the owner
// serves it from its store without regenerating.
func TestClusterRebalance(t *testing.T) {
	fleet := newTestFleet(t, fleetConfig{
		n:      2,
		flaky:  []int{1},
		stores: true,
		cluster: func(cfg *cluster.Config) {
			cfg.ForwardTimeout = 300 * time.Millisecond
			cfg.FetchTimeout = 100 * time.Millisecond
		},
	})
	entry, peer := fleet.nodes[0], fleet.nodes[1]
	spec := fleet.specOwnedBy(t, 1, 500)
	key := specKey(t, spec)

	// Owner unreachable: the entry node generates locally and persists the
	// artifact into its own store — a misplaced key.
	fleet.proxies[1].setMode("drop")
	status, _, body := doClusterJSON(t, http.MethodPost, entry.url+"/v1/structures", spec, nil)
	if status != http.StatusOK {
		t.Fatalf("fallback generate: %d %s", status, body)
	}
	entry.s.Flush()
	if _, ok := entry.store.Stat(key); !ok {
		t.Fatal("fallback generation not persisted on the entry node")
	}

	// Peer heals; rebalance pushes the misplaced artifact home. The sleep
	// lets the tripped breaker reach its cooldown so the transfer's probe
	// is admitted.
	fleet.proxies[1].setMode("ok")
	time.Sleep(150 * time.Millisecond)
	status, _, body = doClusterJSON(t, http.MethodPost, entry.url+"/v1/cluster/rebalance?drop=1", nil, nil)
	if status != http.StatusOK {
		t.Fatalf("rebalance: %d %s", status, body)
	}
	var rep RebalanceReport
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Scanned != 1 || rep.Transferred != 1 || rep.Dropped != 1 || rep.Failed != 0 {
		t.Fatalf("rebalance report %+v, want 1 scanned/transferred/dropped, 0 failed", rep)
	}
	if _, ok := peer.store.Stat(key); !ok {
		t.Fatal("transferred artifact missing from the owner's store")
	}
	if _, ok := entry.store.Stat(key); ok {
		t.Fatal("dropped artifact still in the entry node's store")
	}

	// The owner serves the transferred artifact from its store —
	// read-through, no regeneration.
	instReq := map[string]any{"key": key, "queries": []any{testQuery(t, 0)}}
	status, _, body = doClusterJSON(t, http.MethodPost, peer.url+"/v1/instantiate", instReq, nil)
	if status != http.StatusOK {
		t.Fatalf("instantiate transferred key on owner: %d %s", status, body)
	}
	if got := peer.s.genRuns.Load(); got != 0 {
		t.Fatalf("owner regenerated a transferred artifact (%d runs)", got)
	}
	if got := fleet.genRunsTotal(); got != 1 {
		t.Fatalf("cluster generated %d times, want 1 (the original fallback)", got)
	}
}

// TestClusterRebalanceKeepsPortfolioRow: a node owning a portfolio key
// keeps local copies of members that a peer owns, because its grouping row
// names them. Rebalance with drop pushes those members home but must keep
// the local files: dropping one deletes the row, after which a restarted
// node can no longer resolve the bare portfolio key it owns.
func TestClusterRebalanceKeepsPortfolioRow(t *testing.T) {
	fleet := newTestFleet(t, fleetConfig{n: 2, stores: true})
	node := fleet.nodes[0]
	var spec GenerateSpec
	for seed := int64(600); ; seed++ {
		if seed == 1600 {
			t.Fatal("no K=2 spec owned by node 0 with both members owned by node 1 in 1000 seeds")
		}
		spec = testSpec(seed)
		spec.Portfolio = 2
		if fleet.ownerIndex(t, specKey(t, spec)) == 0 &&
			fleet.ownerIndex(t, specKey(t, spec.memberSpec(0))) == 1 &&
			fleet.ownerIndex(t, specKey(t, spec.memberSpec(1))) == 1 {
			break
		}
	}
	key := specKey(t, spec)

	status, _, body := doClusterJSON(t, http.MethodPost, node.url+"/v1/structures", spec, nil)
	if status != http.StatusOK {
		t.Fatalf("portfolio generate: %d %s", status, body)
	}
	node.s.Flush()
	if _, ok := node.store.GetPortfolio(key); !ok {
		t.Fatal("portfolio grouping row not persisted on its owner")
	}

	status, _, body = doClusterJSON(t, http.MethodPost, node.url+"/v1/cluster/rebalance?drop=1", nil, nil)
	if status != http.StatusOK {
		t.Fatalf("rebalance: %d %s", status, body)
	}
	var rep RebalanceReport
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Scanned != 2 || rep.Transferred != 2 || rep.Dropped != 0 || rep.Failed != 0 {
		t.Fatalf("rebalance report %+v, want 2 scanned/transferred, 0 dropped/failed", rep)
	}
	if _, ok := node.store.GetPortfolio(key); !ok {
		t.Fatal("rebalance dropped the portfolio grouping row of the node owning it")
	}

	// A server restarted on the store resolves the bare key from the row
	// and assembles the portfolio from the kept member files.
	restarted, ts := newTestServer(t, Config{Store: openStore(t, node.store.Root()), Logf: t.Logf})
	t.Cleanup(restarted.Flush) // assembling the portfolio re-records its row
	instReq := map[string]any{"key": key, "queries": []any{testQuery(t, 0)}}
	if code, body := postJSON(t, ts.URL+"/v1/instantiate", instReq, nil); code != http.StatusOK {
		t.Fatalf("instantiate bare portfolio key after restart: %d %s", code, body)
	}
	if runs := restarted.genRuns.Load(); runs != 0 {
		t.Fatalf("restarted server ran %d generations, want 0", runs)
	}
}

// TestClusterConcurrentTrafficWithFlappingPeer is the race sweep: mixed
// generate/instantiate traffic through two entry nodes while the third
// node flaps between healthy and every fault mode. Every request must
// complete successfully (local fallback guarantees service) and each node
// must hold at most one job per key.
func TestClusterConcurrentTrafficWithFlappingPeer(t *testing.T) {
	fleet := newTestFleet(t, fleetConfig{
		n:     3,
		flaky: []int{2},
		cluster: func(cfg *cluster.Config) {
			cfg.ForwardTimeout = 300 * time.Millisecond
			cfg.FetchTimeout = 100 * time.Millisecond
			cfg.RetryBackoff = 5 * time.Millisecond
			cfg.BreakerCooldown = 30 * time.Millisecond
		},
	})
	proxy := fleet.proxies[2]

	stopFlap := make(chan struct{})
	var flapWG sync.WaitGroup
	flapWG.Add(1)
	go func() {
		defer flapWG.Done()
		modes := []string{"ok", "500", "drop", "hang"}
		for i := 0; ; i++ {
			select {
			case <-stopFlap:
				proxy.setMode("ok")
				return
			case <-time.After(15 * time.Millisecond):
				proxy.setMode(modes[i%len(modes)])
			}
		}
	}()

	seeds := []int64{601, 602, 603}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 4; w++ {
		entry := fleet.nodes[w%2] // traffic through two entry nodes
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for op := 0; op < 4; op++ {
				spec := testSpec(seeds[(worker+op)%len(seeds)])
				var target string
				var payload any
				if op%2 == 0 {
					target = entry.url + "/v1/structures"
					payload = spec
				} else {
					target = entry.url + "/v1/instantiate"
					payload = map[string]any{"spec": spec, "queries": []any{testQuery(t, 0)}}
				}
				// A relay can break mid-body if the flapping node dies at
				// exactly the wrong moment; one retry must always land on
				// the local-fallback path.
				var lastErr error
				for attempt := 0; attempt < 3; attempt++ {
					status, body, err := tryJSON(target, payload)
					if err == nil && status == http.StatusOK {
						lastErr = nil
						break
					}
					lastErr = fmt.Errorf("worker %d op %d %s: status %d err %v body %s",
						worker, op, target, status, err, body)
				}
				if lastErr != nil {
					select {
					case errs <- lastErr:
					default:
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(stopFlap)
	flapWG.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Dedup must have held per node: at most one job per key anywhere.
	for i, n := range fleet.nodes {
		for _, seed := range seeds {
			key := specKey(t, testSpec(seed))
			if got := countJobs(n.s, key); got > 1 {
				t.Errorf("node %d has %d jobs for %s — dedup failed under flapping", i, got, key)
			}
		}
	}
}

// tryJSON is doJSON without test-fatal error handling, safe to call from
// worker goroutines.
func tryJSON(url string, body any) (int, []byte, error) {
	buf, err := json.Marshal(body)
	if err != nil {
		return 0, nil, err
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// TestClusterCancelledForwardIsNotAPeerFailure: clients that give up while
// the entry node forwards their request to a hanging owner are not peer
// failures. The entry node's breaker stays closed, mps_cluster_events_total
// does not move (no fallback is counted), no local generation starts for a
// client that is gone, and the next request forwards normally once the
// owner answers again.
func TestClusterCancelledForwardIsNotAPeerFailure(t *testing.T) {
	fleet := newTestFleet(t, fleetConfig{n: 2, flaky: []int{1}})
	entry, owner, proxy := fleet.nodes[0], fleet.nodes[1], fleet.proxies[1]
	peerURL := owner.c.Self()
	closed := cluster.BreakerClosed.GaugeValue()

	// One forward that succeeds, so the breaker exists and reads closed.
	if status, hdr, body := doClusterJSON(t, http.MethodPost, entry.url+"/v1/structures", fleet.specOwnedBy(t, 1, 100), nil); status != http.StatusOK || hdr.Get(cluster.ServedByHeader) != peerURL {
		t.Fatalf("warm-up forward: %d served by %q: %s", status, hdr.Get(cluster.ServedByHeader), body)
	}
	before := scrapeMetrics(t, entry.url)
	if g, ok := entry.c.BreakerGauges()[peerURL]; !ok || g != closed {
		t.Fatalf("breaker gauge (%v, %v) after a good forward, want %v (closed)", g, ok, closed)
	}

	// Two clients give up mid-forward: as many as the breaker's threshold,
	// so counting them as failures would open it.
	proxy.setMode("hang")
	for i := 0; i < 2; i++ {
		spec := fleet.specOwnedBy(t, 1, int64(200+100*i))
		buf, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, entry.url+"/v1/structures", bytes.NewReader(buf))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
			t.Fatalf("request %d answered %d although its owner hangs", i, resp.StatusCode)
		}
		cancel()
		// The entry node's handler records the request once it returns.
		deadline := time.Now().Add(5 * time.Second)
		for scrapeMetrics(t, entry.url).Sub(before).Sum("mps_http_requests_total", map[string]string{"route": "structures"}) < float64(i+1) {
			if time.Now().After(deadline) {
				t.Fatalf("entry node never finished cancelled request %d", i)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	after := scrapeMetrics(t, entry.url)
	if g := entry.c.BreakerGauges()[peerURL]; g != closed {
		t.Fatalf("breaker gauge %v after cancelled forwards, want %v (closed)", g, closed)
	}
	for _, event := range []string{"forward", "fallback", "fetch", "breaker_skip"} {
		sel := map[string]string{"event": event}
		if b, a := before.Sum("mps_cluster_events_total", sel), after.Sum("mps_cluster_events_total", sel); a != b {
			t.Fatalf("mps_cluster_events_total{event=%q} went %v -> %v for cancelled forwards", event, b, a)
		}
	}
	if got := entry.s.genRuns.Load(); got != 0 {
		t.Fatalf("entry node ran %d generations for clients that were gone", got)
	}

	// The owner answers again: the next request forwards as usual.
	proxy.setMode("ok")
	status, hdr, body := doClusterJSON(t, http.MethodPost, entry.url+"/v1/structures", fleet.specOwnedBy(t, 1, 400), nil)
	if status != http.StatusOK || hdr.Get(cluster.ServedByHeader) != peerURL {
		t.Fatalf("forward after cancellations: %d served by %q: %s", status, hdr.Get(cluster.ServedByHeader), body)
	}
	if got := entry.c.Stats().Forwards; got != 2 {
		t.Fatalf("entry node counted %d forwards, want 2", got)
	}
	if got := entry.s.genRuns.Load(); got != 0 {
		t.Fatalf("entry node ran %d generations, want 0", got)
	}
}
