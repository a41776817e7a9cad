package serve

import (
	"context"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"mps"
	"mps/internal/cluster"
	"mps/internal/loadgen"
)

// scrapeMetrics GETs a node's /metrics over its real listener and parses
// it with the same parser mpsload -scrape uses, so this test covers the
// whole pipeline an operator's Prometheus would: render, transport, parse.
func scrapeMetrics(t *testing.T, baseURL string) *loadgen.Scrape {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatalf("GET %s/metrics: %v", baseURL, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s/metrics: status %d", baseURL, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics content type %q, want text/plain exposition", ct)
	}
	s, err := loadgen.ParseProm(resp.Body)
	if err != nil {
		t.Fatalf("parsing %s/metrics: %v", baseURL, err)
	}
	return s
}

// hasSeries reports whether the scrape holds any series whose rendered
// identity starts with prefix (use "name{" to demand a labeled child).
func hasSeries(s *loadgen.Scrape, prefix string) bool {
	for id := range s.Values {
		if strings.HasPrefix(id, prefix) {
			return true
		}
	}
	return false
}

// TestRequestCounterByRouteAndCode checks mps_http_requests_total counts
// every (route, code) exactly and holds no series for a pair no request
// produced.
func TestRequestCounterByRouteAndCode(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	spec := testSpec(1)
	inst := map[string]any{"spec": spec, "queries": []any{testQuery(t, 0)}}
	sends := []struct {
		path string
		body any
		code int
		n    int
	}{
		{"/v1/structures", spec, http.StatusOK, 1},
		{"/v1/structures", GenerateSpec{Circuit: "nope"}, http.StatusBadRequest, 2},
		{"/v1/instantiate", inst, http.StatusOK, 3},
		{"/v1/instantiate", map[string]any{"queries": []any{testQuery(t, 0)}}, http.StatusBadRequest, 2},
		{"/v1/instantiate", map[string]any{"key": "nope", "queries": []any{testQuery(t, 0)}}, http.StatusNotFound, 1},
	}
	want := map[string]float64{} // series identity → count
	labels := map[string]map[string]string{}
	for _, sd := range sends {
		for i := 0; i < sd.n; i++ {
			if status, body := postJSON(t, ts.URL+sd.path, sd.body, nil); status != sd.code {
				t.Fatalf("POST %s: %d %s, want %d", sd.path, status, body, sd.code)
			}
		}
		route, code := routeLabel(sd.path), strconv.Itoa(sd.code)
		id := `mps_http_requests_total{route="` + route + `",code="` + code + `"}`
		want[id] += float64(sd.n)
		labels[id] = map[string]string{"route": route, "code": code}
	}

	scrape := scrapeMetrics(t, ts.URL)
	for id := range scrape.Values {
		if _, ok := want[id]; !ok && strings.HasPrefix(id, "mps_http_requests_total{") {
			t.Errorf("unexpected series %s", id)
		}
	}
	for id, n := range want {
		if _, ok := scrape.Values[id]; !ok {
			t.Errorf("missing series %s", id)
		} else if got := scrape.Sum("mps_http_requests_total", labels[id]); got != n {
			t.Errorf("%s = %v, want %v", id, got, n)
		}
	}
}

// TestClusterMetricsEndToEnd drives real traffic through a two-node fleet
// and checks the /metrics surface end to end: both nodes export the key
// families, cross-node accounting agrees (the entry node's forward count
// equals the peer's forwarded-served count), per-stage attribution lands
// on the node that did the work, and the job queue gauges read drained
// once the traffic completes.
func TestClusterMetricsEndToEnd(t *testing.T) {
	fleet := newTestFleet(t, fleetConfig{
		n: 2,
		cluster: func(cfg *cluster.Config) {
			// One replica per key: every read of a peer-owned key forwards,
			// which is what makes forward/forwarded-served counts equal.
			cfg.Replicas = 1
		},
		serve: func(cfg *Config) {
			// A 1ns threshold makes every request a slow query, so the
			// slow-query counter and log line are on the tested path.
			cfg.SlowQuery = time.Nanosecond
		},
	})
	entry, peer := fleet.nodes[0], fleet.nodes[1]
	spec := fleet.specOwnedBy(t, 1, 700)

	// One forwarded generate plus several forwarded instantiates through
	// the non-owner, and one instantiate served by the owner directly.
	status, _, body := doClusterJSON(t, http.MethodPost, entry.url+"/v1/structures", spec, nil)
	if status != http.StatusOK {
		t.Fatalf("generate via entry: %d %s", status, body)
	}
	instReq := map[string]any{"spec": spec, "queries": []any{testQuery(t, 0), testQuery(t, 1)}}
	const instantiates = 4
	for i := 0; i < instantiates; i++ {
		if status, _, body := doClusterJSON(t, http.MethodPost, entry.url+"/v1/instantiate", instReq, nil); status != http.StatusOK {
			t.Fatalf("instantiate %d via entry: %d %s", i, status, body)
		}
	}
	if status, _, body := doClusterJSON(t, http.MethodPost, peer.url+"/v1/instantiate", instReq, nil); status != http.StatusOK {
		t.Fatalf("instantiate via owner: %d %s", status, body)
	}

	entryScrape := scrapeMetrics(t, entry.url)
	peerScrape := scrapeMetrics(t, peer.url)

	// Every key family is present on both nodes — the same check the CI
	// cluster smoke greps for against real daemons.
	for _, prefix := range []string{
		"mps_http_requests_total{",
		"mps_http_request_duration_seconds_bucket{",
		"mps_http_request_duration_seconds_count{",
		"mps_stage_ops_total{",
		"mps_jobs_transitions_total{",
		"mps_jobs_running",
		"mps_cluster_events_total{",
		"mps_cluster_ring_share{",
		"mps_cache_entries",
		"mps_generation_runs_total",
	} {
		for name, s := range map[string]*loadgen.Scrape{"entry": entryScrape, "peer": peerScrape} {
			if !hasSeries(s, prefix) {
				t.Errorf("%s node /metrics missing series %s...", name, prefix)
			}
		}
	}

	// Cross-node accounting: every client request the entry node forwarded
	// was served by the peer as forwarded traffic — and the scrape agrees
	// with the in-memory cluster stats it is derived from.
	wantForwards := 1 + instantiates
	if got := entryScrape.Sum("mps_cluster_events_total", map[string]string{"event": "forward"}); got != float64(wantForwards) {
		t.Errorf("entry forward events = %v, want %d", got, wantForwards)
	}
	if got := int(entry.c.Stats().Forwards); got != wantForwards {
		t.Errorf("entry in-memory forwards = %d, want %d", got, wantForwards)
	}
	if fwd, served := entryScrape.Sum("mps_cluster_events_total", map[string]string{"event": "forward"}),
		peerScrape.Sum("mps_forwarded_served_total", nil); fwd != served {
		t.Errorf("entry forwards (%v) != peer forwarded-served (%v): peer-protocol traffic leaked into the client counter", fwd, served)
	}
	if got := entryScrape.Sum("mps_forwarded_served_total", nil); got != 0 {
		t.Errorf("entry forwarded-served = %v, want 0 (no one forwards to a non-owner)", got)
	}

	// Answers count on the node that ran the batch: the owner, for the
	// forwarded and the direct instantiates alike. The entry node forwarded
	// every one and counts none.
	if got := entryScrape.Sum("mps_instantiate_answers_total", nil); got != 0 {
		t.Errorf("entry node counted %v answers, want 0 (it forwarded every batch)", got)
	}
	if got, want := peerScrape.Sum("mps_instantiate_answers_total", nil), float64(2*(instantiates+1)); got != want {
		t.Errorf("owner counted %v answers, want %v", got, want)
	}

	// The annealing ran once, on the owner — the migrated healthz counter
	// reads the same through /metrics.
	if got := peerScrape.Sum("mps_generation_runs_total", nil); got != 1 {
		t.Errorf("peer generation runs = %v, want 1", got)
	}
	if got := entryScrape.Sum("mps_generation_runs_total", nil); got != 0 {
		t.Errorf("entry generation runs = %v, want 0", got)
	}

	// Stage attribution follows the work: the entry node spent its time
	// forwarding, the owner decoding, instantiating and encoding.
	if got := entryScrape.Sum("mps_stage_ops_total", map[string]string{"stage": "forward"}); got < float64(wantForwards) {
		t.Errorf("entry forward spans = %v, want >= %d", got, wantForwards)
	}
	for _, stage := range []string{"decode", "instantiate", "encode", "job_wait"} {
		if got := peerScrape.Sum("mps_stage_ops_total", map[string]string{"stage": stage}); got == 0 {
			t.Errorf("peer recorded no %s spans", stage)
		}
	}

	// Request accounting: the entry node saw the generate and the forwarded
	// instantiates on their routes, all 200s; the histogram count matches.
	if got := entryScrape.Sum("mps_http_requests_total", map[string]string{"route": "structures", "code": "200"}); got != 1 {
		t.Errorf("entry structures requests = %v, want 1", got)
	}
	if got := entryScrape.Sum("mps_http_requests_total", map[string]string{"route": "instantiate", "code": "200"}); got != float64(instantiates) {
		t.Errorf("entry instantiate requests = %v, want %d", got, instantiates)
	}
	if got := entryScrape.Sum("mps_http_request_duration_seconds_count", map[string]string{"route": "instantiate"}); got != float64(instantiates) {
		t.Errorf("entry instantiate histogram count = %v, want %d", got, instantiates)
	}
	if d, ok := entryScrape.HistogramQuantile("mps_http_request_duration_seconds",
		map[string]string{"route": "instantiate"}, 0.5); !ok || d <= 0 {
		t.Errorf("entry instantiate p50 = (%v, %v), want a positive reconstructed quantile", d, ok)
	}

	// The queue drained: traffic is done, so no priority holds queued jobs
	// and nothing is running (gauges are non-negative, so a zero sum means
	// every series is zero or absent).
	for name, s := range map[string]*loadgen.Scrape{"entry": entryScrape, "peer": peerScrape} {
		if got := s.Sum("mps_jobs_queue_depth", nil); got != 0 {
			t.Errorf("%s node queue depth = %v after traffic drained, want 0", name, got)
		}
		if got := s.Sum("mps_jobs_running", nil); got != 0 {
			t.Errorf("%s node running jobs = %v after traffic drained, want 0", name, got)
		}
	}

	// The peer completed at least the generate job through the scheduler.
	if got := peerScrape.Sum("mps_jobs_transitions_total", map[string]string{"event": "done"}); got < 1 {
		t.Errorf("peer completed jobs = %v, want >= 1", got)
	}

	// The 1ns threshold flagged everything as slow on both nodes.
	for name, s := range map[string]*loadgen.Scrape{"entry": entryScrape, "peer": peerScrape} {
		if got := s.Sum("mps_slow_queries_total", nil); got == 0 {
			t.Errorf("%s node slow-query counter never fired under a 1ns threshold", name)
		}
	}

	// Contacting the peer materialized its breaker series, reading closed.
	if !hasSeries(entryScrape, "mps_cluster_breaker_state{") {
		t.Error("entry node exports no breaker series despite contacting its peer")
	} else if got := entryScrape.Sum("mps_cluster_breaker_state", map[string]string{"peer": peer.c.Self()}); got != 0 {
		t.Errorf("breaker state for healthy peer = %v, want 0 (closed)", got)
	}

	// Ring shares sum to 1 on each node (both export the full membership).
	for name, s := range map[string]*loadgen.Scrape{"entry": entryScrape, "peer": peerScrape} {
		if got := s.Sum("mps_cluster_ring_share", nil); got < 0.999 || got > 1.001 {
			t.Errorf("%s node ring shares sum to %v, want 1", name, got)
		}
	}

	// /metrics observes itself: the scrape above lands in the route
	// counter, visible to the next scrape.
	second := scrapeMetrics(t, entry.url)
	if got := second.Sum("mps_http_requests_total", map[string]string{"route": "metrics"}); got < 1 {
		t.Errorf("metrics route count = %v after a scrape, want >= 1", got)
	}
}

// answerMix draws a known mix of queries for a served portfolio: one
// covered query inside a stored box of each member (so a stored placement
// answers), uncovered in-bounds queries (the backup answers) and
// wrong-length queries (a per-query error), in that order.
func answerMix(t *testing.T, p *mps.Portfolio, uncovered, wrong int) []map[string][]int {
	t.Helper()
	c := p.Circuit()
	var out []map[string][]int
	for m := 0; m < p.K(); m++ {
		member := p.Member(m)
		ids := member.IDs()
		if len(ids) == 0 {
			t.Fatalf("member %d stored no placements", m)
		}
		pl := member.Get(ids[0])
		out = append(out, map[string][]int{"ws": pl.WLo, "hs": pl.HLo})
	}
	rng := rand.New(rand.NewSource(5))
	for found := 0; found < uncovered; {
		ws, hs := make([]int, c.N()), make([]int, c.N())
		for i, b := range c.Blocks {
			ws[i] = b.WRange().Rand(rng)
			hs[i] = b.HRange().Rand(rng)
		}
		res, err := p.Instantiate(ws, hs)
		if err != nil {
			t.Fatal(err)
		}
		if res.FromBackup {
			out = append(out, map[string][]int{"ws": ws, "hs": hs})
			found++
		}
	}
	for i := 0; i < wrong; i++ {
		ws := make([]int, c.N()-1)
		for j := range ws {
			ws[j] = c.Blocks[j].WMin
		}
		out = append(out, map[string][]int{"ws": ws, "hs": make([]int, c.N())})
	}
	return out
}

// TestInstantiateAnswerMetrics sends a known mix of covered, uncovered and
// wrong-length queries to a K=2 portfolio spec and to a plain spec, and
// checks that the served-coverage counter moves by exactly that mix per
// circuit and source, and the route counter by exactly the member fields
// the responses returned.
func TestInstantiateAnswerMetrics(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	pspec := testSpec(41)
	pspec.Portfolio = 2
	plain := testSpec(42)
	plain.Circuit = "TwoStageOpamp"
	const uncovered, wrong = 3, 2

	before := scrapeMetrics(t, ts.URL)
	routed := map[int]int{}
	for _, spec := range []GenerateSpec{pspec, plain} {
		if code, body := postJSON(t, ts.URL+"/v1/structures", spec, nil); code != http.StatusOK {
			t.Fatalf("generate %s: %d %s", spec.Circuit, code, body)
		}
		norm := spec
		if err := norm.normalize(); err != nil {
			t.Fatal(err)
		}
		e, _, err := s.structureFor(context.Background(), norm, norm.key())
		if err != nil {
			t.Fatal(err)
		}
		queries := answerMix(t, e.p, uncovered, wrong)
		var out struct {
			Results []struct {
				Member     int    `json:"member"`
				FromBackup bool   `json:"from_backup"`
				Error      string `json:"error"`
			} `json:"results"`
		}
		if code, body := postJSON(t, ts.URL+"/v1/instantiate", map[string]any{"spec": spec, "queries": queries}, &out); code != http.StatusOK {
			t.Fatalf("instantiate %s: %d %s", spec.Circuit, code, body)
		}
		stored := 0
		for i, r := range out.Results {
			switch k := e.p.K(); {
			case i < k:
				if r.Member < 0 || r.FromBackup {
					t.Fatalf("%s query %d: member %d, backup %v; want a stored answer", spec.Circuit, i, r.Member, r.FromBackup)
				}
				stored++
				routed[r.Member]++
			case i < k+uncovered:
				if !r.FromBackup {
					t.Fatalf("%s query %d: %+v, want the backup", spec.Circuit, i, r)
				}
			case r.Error == "":
				t.Fatalf("%s query %d: %+v, want a wrong-length error", spec.Circuit, i, r)
			}
		}

		delta := scrapeMetrics(t, ts.URL).Sub(before)
		for source, want := range map[string]int{"stored": stored, "backup": uncovered, "error": wrong} {
			sel := map[string]string{"circuit": spec.Circuit, "source": source}
			if got := delta.Sum("mps_instantiate_answers_total", sel); got != float64(want) {
				t.Errorf("%s %s answers = %v, want %d", spec.Circuit, source, got, want)
			}
		}
	}

	delta := scrapeMetrics(t, ts.URL).Sub(before)
	if got := delta.Sum("mps_instantiate_answers_total", nil); got != float64(2+1+2*(uncovered+wrong)) {
		t.Errorf("answers across circuits = %v, want %d", got, 2+1+2*(uncovered+wrong))
	}
	for member := 0; member < maxPortfolio; member++ {
		sel := map[string]string{"member": strconv.Itoa(member)}
		if got := delta.Sum("mps_portfolio_route_total", sel); got != float64(routed[member]) {
			t.Errorf("member %d routes = %v, want %d (the responses' member fields)", member, got, routed[member])
		}
	}
}
