package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"mps"
	"mps/internal/circuits"
	"mps/internal/core"
	"mps/internal/store"
)

// testSpec is a seconds-scale generation spec for the smallest circuit.
func testSpec(seed int64) GenerateSpec {
	return GenerateSpec{Circuit: "circ01", Seed: seed, Effort: "quick", Iterations: 20, BDIOSteps: 40}
}

// testQuery returns an in-bounds dimension query for circ01: variant 0 is
// every block at mid-range, variant 1 leans low/high alternately.
func testQuery(t *testing.T, variant int) map[string][]int {
	t.Helper()
	c := circuits.MustByName("circ01")
	ws := make([]int, c.N())
	hs := make([]int, c.N())
	for i, b := range c.Blocks {
		switch variant {
		case 0:
			ws[i] = (b.WMin + b.WMax) / 2
			hs[i] = (b.HMin + b.HMax) / 2
		default:
			if i%2 == 0 {
				ws[i], hs[i] = b.WMin, b.HMax
			} else {
				ws[i], hs[i] = b.WMax, b.HMin
			}
		}
	}
	return map[string][]int{"ws": ws, "hs": hs}
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(s.Close)
	return s, ts
}

func postJSON(t *testing.T, url string, body any, out any) (int, string) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	code, raw := postRaw(t, url, buf)
	if out != nil && code < 300 {
		if err := json.Unmarshal([]byte(raw), out); err != nil {
			t.Fatalf("decode %s: %v\nbody: %s", url, err, raw)
		}
	}
	return code, raw
}

// postRaw POSTs body verbatim, for bodies json.Marshal cannot produce.
func postRaw(t *testing.T, url string, body []byte) (int, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var raw bytes.Buffer
	if _, err := raw.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw.String()
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

func TestHealthAndCircuits(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	health, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || string(health) != "{\"status\":\"ok\"}\n" {
		t.Fatalf("healthz: %d %q, want 200 {\"status\":\"ok\"}", resp.StatusCode, health)
	}
	var listing struct {
		Circuits []struct {
			Name   string `json:"name"`
			Blocks int    `json:"blocks"`
		} `json:"circuits"`
	}
	if code := getJSON(t, ts.URL+"/v1/circuits", &listing); code != http.StatusOK {
		t.Fatalf("circuits: %d", code)
	}
	if len(listing.Circuits) != 9 {
		t.Fatalf("got %d circuits, want 9 (Table 1)", len(listing.Circuits))
	}
}

// TestGenerateThenInstantiate is the wire-level happy path: POST a
// generation spec, then answer a batch of queries addressed by cache key.
func TestGenerateThenInstantiate(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	var info StructureInfo
	code, body := postJSON(t, ts.URL+"/v1/structures", testSpec(1), &info)
	if code != http.StatusOK {
		t.Fatalf("generate: %d %s", code, body)
	}
	if info.Key == "" || info.Placements == 0 {
		t.Fatalf("bad structure info: %+v", info)
	}
	if info.Cached {
		t.Error("first generation reported as cache hit")
	}

	// Second POST of the same spec must hit the cache.
	var again StructureInfo
	code, body = postJSON(t, ts.URL+"/v1/structures", testSpec(1), &again)
	if code != http.StatusOK {
		t.Fatalf("regenerate: %d %s", code, body)
	}
	if !again.Cached {
		t.Error("identical spec did not hit the cache")
	}

	// The third query lies in the first stored placement's box, so a
	// stored placement answers it. The expected answers come from the
	// reference scan (core.Structure.Instantiate), not from the compiled
	// index the handler serves from.
	e, ok := s.lookup(info.Key)
	if !ok {
		t.Fatal("generated structure not cached")
	}
	st := e.p.Member(0)
	pl := st.Get(st.IDs()[0])
	queries := []map[string][]int{testQuery(t, 0), testQuery(t, 1), {"ws": pl.WLo, "hs": pl.HLo}}
	want := make([]core.Result, len(queries))
	for i, q := range queries {
		res, err := st.Instantiate(q["ws"], q["hs"])
		if err != nil {
			t.Fatalf("reference answer %d: %v", i, err)
		}
		want[i] = res
	}
	if want[2].FromBackup {
		t.Fatalf("covered query answered from the backup: %+v", want[2])
	}
	req := map[string]any{"key": info.Key, "queries": queries}
	var out struct {
		Key     string `json:"key"`
		Served  int    `json:"served"`
		Results []struct {
			X           []int  `json:"x"`
			Y           []int  `json:"y"`
			PlacementID int    `json:"placement_id"`
			Member      int    `json:"member"`
			FromBackup  bool   `json:"from_backup"`
			Error       string `json:"error"`
		} `json:"results"`
	}
	code, body = postJSON(t, ts.URL+"/v1/instantiate", req, &out)
	if code != http.StatusOK {
		t.Fatalf("instantiate: %d %s", code, body)
	}
	if out.Served != 3 || len(out.Results) != 3 {
		t.Fatalf("served %d of %d results: %s", out.Served, len(out.Results), body)
	}
	for i, r := range out.Results {
		if r.Error != "" || len(r.X) != 4 || len(r.Y) != 4 {
			t.Errorf("result %d malformed: %+v", i, r)
		}
		// A structure key reports member 0 for stored answers and -1 for
		// backup answers.
		wantMember := 0
		if r.FromBackup {
			wantMember = -1
		}
		if r.Member != wantMember {
			t.Errorf("result %d: member %d with from_backup %v, want %d", i, r.Member, r.FromBackup, wantMember)
		}
	}
	for i, got := range out.Results {
		if w := want[i]; got.FromBackup != w.FromBackup || got.PlacementID != w.PlacementID ||
			!slices.Equal(got.X, w.X) || !slices.Equal(got.Y, w.Y) {
			t.Errorf("result %d %+v, reference placement %d (backup %v) at %v/%v",
				i, got, w.PlacementID, w.FromBackup, w.X, w.Y)
		}
	}

	// Addressing by inline spec must also work (and hit the cache).
	req2 := map[string]any{"spec": testSpec(1), "queries": req["queries"]}
	code, body = postJSON(t, ts.URL+"/v1/instantiate", req2, &out)
	if code != http.StatusOK || out.Served != 3 {
		t.Fatalf("instantiate by spec: %d %s", code, body)
	}

	// The structure listing shows the cached entry.
	var ls struct {
		Structures []StructureInfo `json:"structures"`
	}
	if code := getJSON(t, ts.URL+"/v1/structures", &ls); code != http.StatusOK {
		t.Fatalf("list: %d", code)
	}
	if len(ls.Structures) != 1 || ls.Structures[0].Key != info.Key {
		t.Fatalf("listing wrong: %+v", ls.Structures)
	}
}

func TestInstantiateErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBatch: 2})

	// Unknown key is a 404, not an implicit generation.
	code, _ := postJSON(t, ts.URL+"/v1/instantiate", map[string]any{
		"key":     "nope",
		"queries": []map[string][]int{{"ws": {1}, "hs": {1}}},
	}, nil)
	if code != http.StatusNotFound {
		t.Errorf("unknown key: got %d, want 404", code)
	}

	// Batches above MaxBatch are rejected.
	qs := make([]map[string][]int, 3)
	for i := range qs {
		qs[i] = map[string][]int{"ws": {12, 12, 12, 12}, "hs": {12, 12, 12, 12}}
	}
	code, _ = postJSON(t, ts.URL+"/v1/instantiate", map[string]any{
		"spec": testSpec(1), "queries": qs,
	}, nil)
	if code != http.StatusBadRequest {
		t.Errorf("oversized batch: got %d, want 400", code)
	}

	// Supplying both key and spec is ambiguous and refused.
	code, _ = postJSON(t, ts.URL+"/v1/instantiate", map[string]any{
		"key":     "whatever",
		"spec":    testSpec(1),
		"queries": []map[string][]int{testQuery(t, 0)},
	}, nil)
	if code != http.StatusBadRequest {
		t.Errorf("key+spec: got %d, want 400", code)
	}

	// Missing both key and spec.
	code, _ = postJSON(t, ts.URL+"/v1/instantiate", map[string]any{
		"queries": []map[string][]int{{"ws": {1}, "hs": {1}}},
	}, nil)
	if code != http.StatusBadRequest {
		t.Errorf("missing key/spec: got %d, want 400", code)
	}

	// The inline-spec path must enforce the same generation budget cap as
	// POST /v1/structures.
	code, _ = postJSON(t, ts.URL+"/v1/instantiate", map[string]any{
		"spec":    GenerateSpec{Circuit: "circ01", Iterations: 1 << 30},
		"queries": []map[string][]int{testQuery(t, 0)},
	}, nil)
	if code != http.StatusBadRequest {
		t.Errorf("over-budget inline spec: got %d, want 400", code)
	}

	// Anything but whitespace after the JSON value is a bad body, on the
	// fast path's grammar and off it; trailing whitespace is not.
	body, err := json.Marshal(map[string]any{"spec": testSpec(1), "queries": []map[string][]int{testQuery(t, 0)}})
	if err != nil {
		t.Fatal(err)
	}
	for _, tail := range []string{"]]]", " trailing", "{}", "\n\"x\""} {
		code, msg := postRaw(t, ts.URL+"/v1/instantiate", append(body[:len(body):len(body)], tail...))
		if code != http.StatusBadRequest || !strings.Contains(msg, "after the JSON value") {
			t.Errorf("body + %q: got %d %s, want 400", tail, code, msg)
		}
	}
	if code, msg := postRaw(t, ts.URL+"/v1/instantiate", append(body, " \r\n\t"...)); code != http.StatusOK {
		t.Errorf("body + whitespace: got %d %s, want 200", code, msg)
	}

	// Unknown circuit and absurd budget are rejected up front.
	code, _ = postJSON(t, ts.URL+"/v1/structures", GenerateSpec{Circuit: "bogus"}, nil)
	if code != http.StatusBadRequest {
		t.Errorf("unknown circuit: got %d, want 400", code)
	}
	code, _ = postJSON(t, ts.URL+"/v1/structures",
		GenerateSpec{Circuit: "circ01", Iterations: 1 << 30}, nil)
	if code != http.StatusBadRequest {
		t.Errorf("over-budget: got %d, want 400", code)
	}
}

// TestBodySizeLimit checks oversized request bodies are refused before
// they are decoded, so the batch cap also bounds per-request memory.
func TestBodySizeLimit(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBatch: 2})
	qs := make([]map[string][]int, 50000)
	for i := range qs {
		qs[i] = testQuery(t, 0)
	}
	code, body := postJSON(t, ts.URL+"/v1/instantiate", map[string]any{
		"spec": testSpec(1), "queries": qs,
	}, nil)
	if code != http.StatusBadRequest {
		t.Errorf("multi-MB body: got %d (%s), want 400", code, body)
	}
	big := map[string]any{"circuit": "circ01", "effort": strings.Repeat("x", 8192)}
	code, _ = postJSON(t, ts.URL+"/v1/structures", big, nil)
	if code != http.StatusBadRequest {
		t.Errorf("oversized spec body: got %d, want 400", code)
	}
}

// TestInstantiateBatchSlots covers the server-wide batch semaphore: with
// all 4 slots held, an instantiate whose client goes away while it queues
// is shed with a 503 and the slot gauges read 4 in use of 4; once one
// slot frees, the same request is answered.
func TestInstantiateBatchSlots(t *testing.T) {
	const slots = 4
	s, ts := newTestServer(t, Config{})
	if code, body := postJSON(t, ts.URL+"/v1/structures", testSpec(1), nil); code != http.StatusOK {
		t.Fatalf("generate: %d %s", code, body)
	}
	if got := cap(s.batchSlots); got != slots {
		t.Fatalf("batch slots = %d, want %d", got, slots)
	}
	for i := 0; i < slots; i++ {
		s.batchSlots <- struct{}{}
	}
	body, err := json.Marshal(map[string]any{"spec": testSpec(1), "queries": []any{testQuery(t, 0)}})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	instantiate := func(ctx context.Context) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, "/v1/instantiate", bytes.NewReader(body)).WithContext(ctx)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}

	// The structure is cached, so the only wait left is the slot, and the
	// request's context has already ended.
	gone, cancel := context.WithCancel(context.Background())
	cancel()
	rec := instantiate(gone)
	if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), "canceled while queued for a batch slot") {
		t.Fatalf("queued past its context: %d %s, want 503 canceled while queued for a batch slot", rec.Code, rec.Body)
	}
	m := scrapeMetrics(t, ts.URL)
	for _, name := range []string{"mps_batch_slots_in_use", "mps_batch_slots_limit"} {
		if got := m.Sum(name, nil); got != slots {
			t.Errorf("%s = %v, want %d", name, got, slots)
		}
	}

	<-s.batchSlots
	if rec := instantiate(context.Background()); rec.Code != http.StatusOK {
		t.Fatalf("with a free slot: %d %s, want 200", rec.Code, rec.Body)
	}
	if got := len(s.batchSlots); got != slots-1 {
		t.Errorf("slots in use after the answered request = %d, want %d (its slot released)", got, slots-1)
	}
}

// TestBudgetCaps checks every work-multiplying spec field is bounded, not
// just iterations.
func TestBudgetCaps(t *testing.T) {
	s := New(Config{MaxGenerateIterations: 100})
	t.Cleanup(s.Close)
	for _, bad := range []GenerateSpec{
		{Circuit: "circ01", Iterations: 101},
		{Circuit: "circ01", BDIOSteps: 101},
		{Circuit: "circ01", Chains: maxChains + 1},
	} {
		if _, err := s.Generate(bad); err == nil {
			t.Errorf("spec %+v should exceed the budget cap", bad)
		}
	}
	// Negative cap disables the iteration/bdio bounds but not the chains one.
	s = New(Config{MaxGenerateIterations: -1})
	t.Cleanup(s.Close)
	if _, err := s.admit(&GenerateSpec{Circuit: "circ01", Iterations: 1 << 30}); err != nil {
		t.Errorf("disabled cap still rejected iterations: %v", err)
	}
	if _, err := s.admit(&GenerateSpec{Circuit: "circ01", Chains: maxChains + 1}); err == nil {
		t.Error("chains bound should hold even with the cap disabled")
	}
}

// TestConcurrentGenerateAndList overlaps in-flight generations with cache
// reads (listing, lookup, cached instantiate) — under -race this covers
// the publication of entry results to handlers that find the entry in the
// cache rather than through once.Do.
func TestConcurrentGenerateAndList(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := s.Generate(testSpec(int64(20 + i))); err != nil {
				t.Error(err)
			}
		}(i)
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 20; k++ {
				if code := getJSON(t, ts.URL+"/v1/structures", nil); code != http.StatusOK {
					t.Errorf("list: %d", code)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestGenerationDedup checks a thundering herd of identical generation
// requests shares one annealing run.
func TestGenerationDedup(t *testing.T) {
	s := New(Config{})
	t.Cleanup(s.Close)
	const clients = 8
	var wg sync.WaitGroup
	infos := make([]StructureInfo, clients)
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			infos[i], errs[i] = s.Generate(testSpec(3))
		}(i)
	}
	wg.Wait()
	for i := 0; i < clients; i++ {
		if errs[i] != nil {
			t.Fatalf("client %d: %v", i, errs[i])
		}
		if infos[i].Key != infos[0].Key || infos[i].Placements != infos[0].Placements {
			t.Fatalf("client %d saw a different structure: %+v vs %+v", i, infos[i], infos[0])
		}
	}
	if got := s.order.Len(); got != 1 {
		t.Fatalf("cache holds %d entries after dedup, want 1", got)
	}
}

// TestLRUEviction checks the cache bound holds and evicts oldest first.
func TestLRUEviction(t *testing.T) {
	s := New(Config{CacheSize: 2})
	t.Cleanup(s.Close)
	keys := make([]string, 3)
	for i := range keys {
		info, err := s.Generate(testSpec(int64(10 + i)))
		if err != nil {
			t.Fatal(err)
		}
		keys[i] = info.Key
	}
	if got := s.order.Len(); got != 2 {
		t.Fatalf("cache holds %d entries, want 2", got)
	}
	if _, ok := s.lookup(keys[0]); ok {
		t.Error("oldest entry survived eviction")
	}
	for _, k := range keys[1:] {
		if _, ok := s.lookup(k); !ok {
			t.Errorf("entry %s evicted too early", k)
		}
	}
}

// TestSpecNormalization checks equivalent specs share one cache key and
// invalid enum values are rejected.
func TestSpecNormalization(t *testing.T) {
	a := GenerateSpec{Circuit: "circ01"}
	// Identical up to defaulting: explicit effort/backup names, chains 1
	// (the explorer runs one chain for 0 anyway), and the balanced preset's
	// concrete budgets (300/300) spelled out.
	b := GenerateSpec{Circuit: "circ01", Effort: "balanced", Backup: "tree",
		Chains: 1, Iterations: 300, BDIOSteps: 300}
	if err := a.normalize(); err != nil {
		t.Fatal(err)
	}
	if err := b.normalize(); err != nil {
		t.Fatal(err)
	}
	if a.key() != b.key() {
		t.Errorf("equivalent specs map to different keys:\n%s\n%s", a.key(), b.key())
	}
	// Effort presets and their explicit budget equivalents share a key:
	// quick resolves to iterations 60 / bdio 80.
	p := GenerateSpec{Circuit: "circ01", Effort: "quick"}
	q := GenerateSpec{Circuit: "circ01", Iterations: 60, BDIOSteps: 80}
	if err := p.normalize(); err != nil {
		t.Fatal(err)
	}
	if err := q.normalize(); err != nil {
		t.Fatal(err)
	}
	if p.key() != q.key() {
		t.Errorf("effort preset and explicit budgets map to different keys:\n%s\n%s", p.key(), q.key())
	}
	for _, bad := range []GenerateSpec{
		{Circuit: "circ01", Effort: "turbo"},
		{Circuit: "circ01", Backup: "magic"},
		{Circuit: "circ01", Iterations: -1},
		{},
	} {
		if err := bad.normalize(); err == nil {
			t.Errorf("spec %+v should not normalize", bad)
		}
	}
}

// historicalKey is GenerateSpec.key as a chain of fmt.Sprintf calls: one
// for the base key and one per suffix, with each weights token built from
// three strconv.FormatFloat calls joined by commas. Spec keys name store
// files, manifest rows and ring positions, so key must reproduce it byte
// for byte.
func historicalKey(g GenerateSpec) string {
	weightsKey := func(w WeightsSpec) string {
		c := w.weights().Canonical()
		return strings.Join([]string{
			strconv.FormatFloat(c.Wire, 'g', -1, 64),
			strconv.FormatFloat(c.Area, 'g', -1, 64),
			strconv.FormatFloat(c.Aspect, 'g', -1, 64),
		}, ",")
	}
	base := fmt.Sprintf("%s|seed=%d|it=%d|bdio=%d|chains=%d|maxp=%d|backup=%s",
		g.Circuit, g.Seed, g.Iterations, g.BDIOSteps, g.Chains, g.MaxPlacements, g.Backup)
	if g.Backend != "" && g.Backend != mps.DefaultBackend {
		base = fmt.Sprintf("%s|backend=%s", base, g.Backend)
	}
	if g.Weights != nil {
		base = fmt.Sprintf("%s|w=%s", base, weightsKey(*g.Weights))
	}
	if g.Portfolio > 1 {
		base = fmt.Sprintf("%s|k=%d", base, g.Portfolio)
		if len(g.MemberWeights) != 0 {
			keys := make([]string, len(g.MemberWeights))
			for i, w := range g.MemberWeights {
				if (w != WeightsSpec{}) {
					keys[i] = weightsKey(w)
				}
			}
			base = fmt.Sprintf("%s|mw=%s", base, strings.Join(keys, ";"))
		}
	}
	return base
}

// TestSpecKeyMatchesHistoricalKey checks key against historicalKey on a
// table that takes every suffix (backend, w, k, and mw with zero
// entries) and on random specs, normalized or not: the keys must be
// byte-equal.
func TestSpecKeyMatchesHistoricalKey(t *testing.T) {
	specs := []GenerateSpec{
		{Circuit: "TwoStageOpamp", Seed: 1, Effort: "balanced"},
		{Circuit: "circ01", Seed: -9223372036854775808, Iterations: math.MaxInt, Backup: "seqpair"},
		{Circuit: "circ01", Backend: "ga"},
		{Circuit: "circ01", Backend: "anneal"},
		{Circuit: "circ01", Weights: &WeightsSpec{Wire: 1, Area: 0.01}},
		{Circuit: "circ01", Weights: &WeightsSpec{}},
		{Circuit: "circ01", Portfolio: 3},
		{Circuit: "circ01", Portfolio: 1, MemberWeights: []WeightsSpec{{Area: 1}}},
		{Circuit: "circ01", Backend: "ga", Weights: &WeightsSpec{Aspect: 2.5e-7}, Portfolio: 3,
			MemberWeights: []WeightsSpec{{Area: 1}, {}, {Wire: 1e21, Area: 0.1}}},
		{Circuit: "circ01", Portfolio: 2, MemberWeights: []WeightsSpec{{}, {}}},
		{Circuit: "circ01", Portfolio: 2, MemberWeights: []WeightsSpec{}},
	}
	for _, base := range specs[:4] {
		g := base
		if err := g.normalize(); err == nil {
			specs = append(specs, g)
		}
	}
	rng := rand.New(rand.NewSource(21))
	strs := []string{"", "circ01", "TwoStageOpamp", "a|b=c;d,e", "caf\u00e9", "bad\xff", "anneal", "ga", "tree"}
	floats := []float64{0, 1, 0.05, 0.1, 1.0 / 3, 1e-300, 5e-324, 1e21, 123456789, math.MaxFloat64}
	weights := func() WeightsSpec {
		return WeightsSpec{Wire: floats[rng.Intn(len(floats))], Area: floats[rng.Intn(len(floats))],
			Aspect: floats[rng.Intn(len(floats))]}
	}
	ints := func() int {
		switch rng.Intn(4) {
		case 0:
			return rng.Intn(10)
		case 1:
			return -rng.Intn(1000)
		default:
			return rng.Int()
		}
	}
	for i := 0; i < 2000; i++ {
		g := GenerateSpec{
			Circuit: strs[rng.Intn(len(strs))], Seed: rng.Int63() - rng.Int63(),
			Effort: strs[rng.Intn(len(strs))], Iterations: ints(), BDIOSteps: ints(), Chains: ints(),
			MaxPlacements: ints(), Backup: strs[rng.Intn(len(strs))], Backend: strs[rng.Intn(len(strs))],
			Portfolio: rng.Intn(10) - 1,
		}
		if rng.Intn(2) == 0 {
			w := weights()
			g.Weights = &w
		}
		if rng.Intn(2) == 0 {
			g.MemberWeights = make([]WeightsSpec, rng.Intn(5))
			for j := range g.MemberWeights {
				if rng.Intn(3) > 0 {
					g.MemberWeights[j] = weights()
				}
			}
		}
		specs = append(specs, g)
	}
	for _, g := range specs {
		if got, want := g.key(), historicalKey(g); got != want {
			t.Fatalf("key of %+v:\n got %q\nwant %q", g, got, want)
		}
	}
}

// TestSpecKeyAllocs pins what resolving a spec costs the allocator on
// every spec-addressed request: normalize allocates nothing, and key one
// string, suffixes included.
func TestSpecKeyAllocs(t *testing.T) {
	weighted := testSpec(1)
	weighted.Backend = "ga"
	weighted.Portfolio = 3
	weighted.Weights = &WeightsSpec{Wire: 1, Area: 0.01}
	weighted.MemberWeights = []WeightsSpec{{Area: 1}, {}, {Wire: 1, Aspect: 0.5}}
	for _, spec := range []GenerateSpec{{Circuit: "TwoStageOpamp", Seed: 1, Effort: "balanced"}, weighted} {
		if n := testing.AllocsPerRun(100, func() {
			g := spec
			if err := g.normalize(); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("normalize(%+v): %v allocations, want 0", spec, n)
		}
		g := spec
		if err := g.normalize(); err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(100, func() { _ = g.key() }); n != 1 {
			t.Errorf("key %q: %v allocations, want 1", g.key(), n)
		}
	}
}

// openStore opens a store directory, failing the test on error.
func openStore(t *testing.T, dir string) *store.Dir {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestStoreWarmRestart is the paper's premise as a test: generate once,
// kill the server, and a fresh server over the same store directory must
// answer /v1/instantiate from disk without a single annealing run.
func TestStoreWarmRestart(t *testing.T) {
	dir := t.TempDir()

	// First server: generate and persist.
	s1 := New(Config{Store: openStore(t, dir), Logf: t.Logf})
	t.Cleanup(s1.Close)
	info, err := s1.Generate(testSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	s1.Flush() // wait for the background write-through
	if runs := s1.genRuns.Load(); runs != 1 {
		t.Fatalf("first server ran %d generations, want 1", runs)
	}

	// Second server, same directory — simulates a daemon restart.
	s2, ts := newTestServer(t, Config{Store: openStore(t, dir), Logf: t.Logf})
	n, err := s2.Warm(-1)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("warm-loaded %d structures, want 1", n)
	}

	// The warmed entry must be a cache hit with the same identity.
	again, err := s2.Generate(testSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached {
		t.Error("warm-started structure not reported as cached")
	}
	if again.Key != info.Key || again.Placements != info.Placements {
		t.Fatalf("restarted server serves a different structure: %+v vs %+v", again, info)
	}

	// And the wire-level instantiate path works end to end.
	var out struct {
		Served int `json:"served"`
	}
	code, body := postJSON(t, ts.URL+"/v1/instantiate", map[string]any{
		"spec":    testSpec(1),
		"queries": []map[string][]int{testQuery(t, 0)},
	}, &out)
	if code != http.StatusOK || out.Served != 1 {
		t.Fatalf("instantiate after restart: %d %s", code, body)
	}
	if runs := s2.genRuns.Load(); runs != 0 {
		t.Fatalf("restarted server ran %d generations, want 0 (must serve from disk)", runs)
	}
}

// TestStoreWritesV2LoadsLegacyV3: the program writes one structure
// format. A persisted generation and the peer artifact endpoint's answer
// for a cached entry are both v2, and a store file an earlier version left
// as v3 still serves after a restart: no annealing run, and every answer
// byte for byte the one the generating server gave.
func TestStoreWritesV2LoadsLegacyV3(t *testing.T) {
	dir := t.TempDir()
	fleet := newTestFleet(t, fleetConfig{n: 1, serve: func(cfg *Config) { cfg.Store = openStore(t, dir) }})
	node := fleet.nodes[0]
	spec := testSpec(3)
	if _, err := node.s.Generate(spec); err != nil {
		t.Fatal(err)
	}
	node.s.Flush()
	key := specKey(t, spec)
	meta, ok := node.store.Stat(key)
	if !ok {
		t.Fatal("generation was not persisted")
	}
	path := filepath.Join(dir, meta.File)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(data, []byte("MPSB\x02")) {
		t.Fatalf("store file starts %q, want the v2 header", data[:min(5, len(data))])
	}
	code, _, body := doClusterJSON(t, http.MethodGet, node.url+"/v1/cluster/structure?key="+url.QueryEscape(key), nil, nil)
	if code != http.StatusOK || !bytes.HasPrefix(body, []byte("MPSB\x02")) {
		t.Fatalf("peer artifact for a cached entry: status %d, body starts %q; want 200 and the v2 header",
			code, body[:min(5, len(body))])
	}

	// Query the middle of a few stored boxes (answered by their
	// placements) and the two fixed queries.
	e, ok := node.s.lookup(key)
	if !ok {
		t.Fatal("generated entry is not cached")
	}
	st := e.p.Member(0)
	queries := []map[string][]int{testQuery(t, 0), testQuery(t, 1)}
	for _, id := range st.IDs()[:3] {
		p := st.Get(id)
		ws, hs := make([]int, len(p.WLo)), make([]int, len(p.HLo))
		for i := range ws {
			ws[i], hs[i] = (p.WLo[i]+p.WHi[i])/2, (p.HLo[i]+p.HHi[i])/2
		}
		queries = append(queries, map[string][]int{"ws": ws, "hs": hs})
	}
	req := map[string]any{"spec": spec, "queries": queries}
	code, want := postJSON(t, node.url+"/v1/instantiate", req, nil)
	if code != http.StatusOK {
		t.Fatalf("instantiate: %d %s", code, want)
	}

	// Leave the file an earlier version wrote: the same structure as v3.
	var v3 bytes.Buffer
	if err := st.SaveBinaryCompiled(&v3); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, v3.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, ts := newTestServer(t, Config{Store: openStore(t, dir), Logf: t.Logf})
	code, got := postJSON(t, ts.URL+"/v1/instantiate", req, nil)
	if code != http.StatusOK || got != want {
		t.Fatalf("instantiate from the legacy v3 file: %d\n got  %s\n want %s", code, got, want)
	}
	if !strings.Contains(want, `"placement_id":`+strconv.Itoa(st.IDs()[0])) {
		t.Fatalf("no answer came from a stored placement: %s", want)
	}
	if runs := s2.genRuns.Load(); runs != 0 {
		t.Fatalf("restarted server ran %d generations, want 0 (must serve the v3 file)", runs)
	}
}

// TestStoreReadThrough covers the no-warm path: even without Warm, a cache
// miss consults the store before regenerating.
func TestStoreReadThrough(t *testing.T) {
	dir := t.TempDir()
	s1 := New(Config{Store: openStore(t, dir)})
	t.Cleanup(s1.Close)
	if _, err := s1.Generate(testSpec(5)); err != nil {
		t.Fatal(err)
	}
	s1.Flush()

	s2 := New(Config{Store: openStore(t, dir)})
	t.Cleanup(s2.Close)
	t.Cleanup(s2.Flush) // the fresh-spec generation below persists in the background
	info, err := s2.Generate(testSpec(5))
	if err != nil {
		t.Fatal(err)
	}
	if runs := s2.genRuns.Load(); runs != 0 {
		t.Fatalf("read-through ran %d generations, want 0", runs)
	}
	if info.Placements == 0 {
		t.Fatal("read-through returned an empty structure")
	}
	// A different spec is a genuine miss and must still generate.
	if _, err := s2.Generate(testSpec(6)); err != nil {
		t.Fatal(err)
	}
	if runs := s2.genRuns.Load(); runs != 1 {
		t.Fatalf("fresh spec ran %d generations, want 1", runs)
	}
}

// TestStoreCorruptFallsBack: a corrupted structure file must not take the
// key down — the server regenerates and re-persists.
func TestStoreCorruptFallsBack(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	s1 := New(Config{Store: st})
	t.Cleanup(s1.Close)
	if _, err := s1.Generate(testSpec(9)); err != nil {
		t.Fatal(err)
	}
	s1.Flush()

	// Corrupt the structure file on disk.
	spec := testSpec(9)
	if err := spec.normalize(); err != nil {
		t.Fatal(err)
	}
	meta, ok := st.Stat(spec.key())
	if !ok {
		t.Fatal("persisted entry missing")
	}
	corruptFile(t, dir, meta.File)

	s2 := New(Config{Store: openStore(t, dir)})
	t.Cleanup(s2.Close)
	t.Cleanup(s2.Flush) // the fallback generation re-persists in the background
	info, err := s2.Generate(testSpec(9))
	if err != nil {
		t.Fatalf("corrupt store entry should fall back to generation: %v", err)
	}
	if runs := s2.genRuns.Load(); runs != 1 {
		t.Fatalf("fallback ran %d generations, want 1", runs)
	}
	if info.Placements == 0 {
		t.Fatal("fallback returned an empty structure")
	}
}

// TestStoreQuarantinedManifestBoots: a store whose manifest does not
// parse still boots a server. The store opens empty, /metrics reports the
// quarantine, and the server generates, persists and reopens as it would
// on a fresh store.
func TestStoreQuarantinedManifestBoots(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "manifest.json"), []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	st := openStore(t, dir)
	if st.Quarantined() == "" || st.Len() != 0 {
		t.Fatalf("store over a corrupt manifest: quarantined %q, %d entries", st.Quarantined(), st.Len())
	}
	s1, ts1 := newTestServer(t, Config{Store: st})
	if got := scrapeMetrics(t, ts1.URL).Sum("mps_store_manifest_quarantined", nil); got != 1 {
		t.Fatalf("mps_store_manifest_quarantined = %v after a quarantine, want 1", got)
	}
	if _, err := s1.Generate(testSpec(4)); err != nil {
		t.Fatal(err)
	}
	s1.Flush()

	st2 := openStore(t, dir)
	if st2.Quarantined() != "" || st2.Len() != 1 {
		t.Fatalf("reopened store: quarantined %q, %d entries; want none and 1", st2.Quarantined(), st2.Len())
	}
	s2, ts2 := newTestServer(t, Config{Store: st2})
	if got := scrapeMetrics(t, ts2.URL).Sum("mps_store_manifest_quarantined", nil); got != 0 {
		t.Fatalf("mps_store_manifest_quarantined = %v on a clean store, want 0", got)
	}
	if _, err := s2.Generate(testSpec(4)); err != nil {
		t.Fatal(err)
	}
	if runs := s2.genRuns.Load(); runs != 0 {
		t.Fatalf("reopened store ran %d generations for a persisted spec, want 0", runs)
	}
}

// TestStorePersistedListing checks GET /v1/structures reports manifest
// rows with their metadata alongside the in-memory cache.
func TestStorePersistedListing(t *testing.T) {
	dir := t.TempDir()
	s1 := New(Config{Store: openStore(t, dir)})
	t.Cleanup(s1.Close)
	if _, err := s1.Generate(testSpec(3)); err != nil {
		t.Fatal(err)
	}
	s1.Flush()

	// Fresh server, no warm: entry is persisted but not cached.
	_, ts := newTestServer(t, Config{Store: openStore(t, dir)})
	var ls struct {
		Structures []StructureInfo `json:"structures"`
		Persisted  []PersistedInfo `json:"persisted"`
	}
	if code := getJSON(t, ts.URL+"/v1/structures", &ls); code != http.StatusOK {
		t.Fatalf("list: %d", code)
	}
	if len(ls.Structures) != 0 {
		t.Fatalf("cold server lists %d cached structures, want 0", len(ls.Structures))
	}
	if len(ls.Persisted) != 1 {
		t.Fatalf("listed %d persisted structures, want 1", len(ls.Persisted))
	}
	p := ls.Persisted[0]
	if p.Circuit != "circ01" || p.Placements == 0 || p.Bytes == 0 || p.Created.IsZero() {
		t.Fatalf("persisted row missing metadata: %+v", p)
	}
	if p.Cached {
		t.Error("cold entry reported as cached")
	}
}

// corruptFile flips a byte in the middle of a store file.
func corruptFile(t *testing.T, dir, name string) {
	t.Helper()
	path := filepath.Join(dir, name)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x20
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestMethodNotAllowed sweeps wrong-method requests.
func TestMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for path, method := range map[string]string{
		"/v1/circuits":    http.MethodPost,
		"/v1/instantiate": http.MethodGet,
	} {
		req, err := http.NewRequest(method, ts.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s %s: got %d, want 405", method, path, resp.StatusCode)
		}
	}
	if _, err := http.Get(ts.URL + "/v1/structures"); err != nil {
		t.Fatal(err)
	}
}
