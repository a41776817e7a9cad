package serve

// Tests for the weighted-objective serving surface: spec-key
// compatibility (weightless and default-weighted specs keep their
// historical keys byte for byte), one-place validation, persistence of
// member weights, and weight-aware query routing end to end through
// /v1/instantiate.

import (
	"math"
	"math/rand"
	"net/http"
	"strings"
	"testing"

	"mps/internal/circuits"
)

// weightedPortfolioSpec is a seconds-scale K=2 portfolio with explicitly
// weight-diverse members: member 0 area-heavy, member 1 wire-heavy.
func weightedPortfolioSpec(seed int64) GenerateSpec {
	spec := testSpec(seed)
	spec.Portfolio = 2
	spec.MemberWeights = []WeightsSpec{{Area: 1}, {Wire: 1}}
	return spec
}

// TestSpecKeyWeightsCompat pins the weight half of the spec-key
// compatibility rule: weightings canonWeights can fold away (the default
// objective, in any spelling) leave the key byte-identical to the
// pre-weights key, while genuinely non-default weightings get |w= / |mw=
// tags, and member specs promote their resolved vector so weighted
// members dedup against identically-weighted single-structure specs.
func TestSpecKeyWeightsCompat(t *testing.T) {
	legacyKey := "circ01|seed=1|it=20|bdio=40|chains=1|maxp=0|backup=tree"

	balanced := testSpec(1)
	balanced.Weights = &WeightsSpec{Wire: 1, Area: 0.05}
	if err := balanced.normalize(); err != nil {
		t.Fatal(err)
	}
	if got := balanced.key(); got != legacyKey {
		t.Errorf("explicit default-weights key = %q, want the pre-weights key %q", got, legacyKey)
	}
	if balanced.Weights != nil {
		t.Error("explicit default weights did not fold to nil")
	}

	wire := testSpec(1)
	wire.Weights = &WeightsSpec{Wire: 1, Area: 0.01}
	if err := wire.normalize(); err != nil {
		t.Fatal(err)
	}
	if got, want := wire.key(), legacyKey+"|w=1,0.01,0"; got != want {
		t.Errorf("wire-heavy key = %q, want %q", got, want)
	}

	pf := weightedPortfolioSpec(1)
	if err := pf.normalize(); err != nil {
		t.Fatal(err)
	}
	if got, want := pf.key(), legacyKey+"|k=2|mw=0,1,0;1,0,0"; got != want {
		t.Errorf("weight-diverse portfolio key = %q, want %q", got, want)
	}
	m0 := pf.memberSpec(0)
	if !strings.Contains(m0.key(), "|w=0,1,0") {
		t.Errorf("member 0 key %q did not promote the area-heavy vector", m0.key())
	}
	for _, frag := range []string{"|k=", "|mw="} {
		if strings.Contains(m0.key(), frag) {
			t.Errorf("member key %q kept portfolio fragment %q", m0.key(), frag)
		}
	}

	// All-default member entries with no spec-level vector fold away
	// entirely: the spec is the historical weightless portfolio.
	folded := testSpec(1)
	folded.Portfolio = 2
	folded.MemberWeights = []WeightsSpec{{Wire: 1, Area: 0.05}, {Wire: 1, Area: 0.05}}
	if err := folded.normalize(); err != nil {
		t.Fatal(err)
	}
	if got, want := folded.key(), legacyKey+"|k=2"; got != want {
		t.Errorf("all-default member_weights key = %q, want the weightless %q", got, want)
	}
	if folded.MemberWeights != nil {
		t.Error("all-default member_weights did not fold away")
	}
	// And its member specs are plain weightless single-structure specs —
	// they dedup against pre-weights artifacts.
	if got, want := folded.memberSpec(1).key(), "circ01|seed=104730|it=20|bdio=40|chains=1|maxp=0|backup=tree"; got != want {
		t.Errorf("folded member 1 key = %q, want %q", got, want)
	}

	// A spec-level vector with one overriding member entry: zero entries
	// stay empty in the |mw= tag (they inherit |w=), and each member spec
	// promotes its resolved vector.
	mixed := testSpec(1)
	mixed.Portfolio = 2
	mixed.Weights = &WeightsSpec{Wire: 1, Area: 0.01}
	mixed.MemberWeights = []WeightsSpec{{}, {Aspect: 1}}
	if err := mixed.normalize(); err != nil {
		t.Fatal(err)
	}
	if got, want := mixed.key(), legacyKey+"|w=1,0.01,0|k=2|mw=;0,0,1"; got != want {
		t.Errorf("mixed weights key = %q, want %q", got, want)
	}
	if !strings.Contains(mixed.memberSpec(0).key(), "|w=1,0.01,0") {
		t.Errorf("mixed member 0 key %q did not inherit the spec vector", mixed.memberSpec(0).key())
	}
	if !strings.Contains(mixed.memberSpec(1).key(), "|w=0,0,1") {
		t.Errorf("mixed member 1 key %q did not take its override", mixed.memberSpec(1).key())
	}
}

// TestBadWeightsRejected extends the one-place validation table to the
// weights fields: invalid vectors and malformed member_weights shapes
// come back as one 400 naming the constraint, before any generation.
func TestBadWeightsRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	twoMembers := testSpec(1)
	twoMembers.Portfolio = 2
	badMember := twoMembers
	badMember.MemberWeights = []WeightsSpec{{Area: -0.5}, {}}
	shortList := testSpec(1)
	shortList.Portfolio = 3
	shortList.MemberWeights = []WeightsSpec{{Wire: 1}, {Area: 1}}
	single := testSpec(1)
	single.MemberWeights = []WeightsSpec{{Wire: 1}}
	negative := testSpec(1)
	negative.Weights = &WeightsSpec{Wire: -1}

	cases := []struct {
		name    string
		spec    GenerateSpec
		mention string
	}{
		{"negative weights", negative, "weights must be finite and non-negative"},
		{"negative member weights", badMember, "member_weights[0]"},
		{"member weights on single structure", single, "member_weights given for a single-structure spec"},
		{"member weights length", shortList, "2 member_weights for a 3-member portfolio"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, body := postJSON(t, ts.URL+"/v1/structures", tc.spec, nil)
			if status != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400 (body: %s)", status, body)
			}
			if !strings.Contains(body, tc.mention) {
				t.Errorf("400 body %q does not mention %q", body, tc.mention)
			}
		})
	}

	// Non-finite vectors cannot ride JSON at all, so pin them at the
	// validation layer every HTTP path funnels through.
	for _, v := range []float64{math.NaN(), math.Inf(1)} {
		spec := testSpec(1)
		spec.Weights = &WeightsSpec{Area: v}
		if err := spec.normalize(); err == nil ||
			!strings.Contains(err.Error(), "weights must be finite and non-negative") {
			t.Errorf("weights %v normalized with err %v, want the finiteness constraint", v, err)
		}
	}
}

// TestInstantiateWeightedRouting is the acceptance path for weight-aware
// query routing: one weight-diverse portfolio, the same dimension pool
// queried under wire-only and area-only weights through /v1/instantiate,
// must route at least one query to different members — and invalid query
// weights are a 400 before any instantiation work.
func TestInstantiateWeightedRouting(t *testing.T) {
	_, ts := newTestServer(t, Config{Logf: t.Logf})
	spec := weightedPortfolioSpec(1)

	var info StructureInfo
	if code, body := postJSON(t, ts.URL+"/v1/structures", spec, &info); code != http.StatusOK {
		t.Fatalf("generate weighted portfolio: %d %s", code, body)
	}
	if !strings.Contains(info.Key, "|mw=0,1,0;1,0,0") {
		t.Fatalf("weighted portfolio key %q lacks the member-weight tag", info.Key)
	}

	// Invalid weights — request-level and per-query — are one 400 naming
	// the offending field.
	code, body := postJSON(t, ts.URL+"/v1/instantiate", map[string]any{
		"key":     info.Key,
		"weights": map[string]float64{"wire": -1},
		"queries": []map[string][]int{testQuery(t, 0)},
	}, nil)
	if code != http.StatusBadRequest || !strings.Contains(body, "weights") {
		t.Fatalf("negative request weights: %d %s, want 400 naming weights", code, body)
	}
	badQuery := map[string]any{"ws": testQuery(t, 0)["ws"], "hs": testQuery(t, 0)["hs"],
		"weights": map[string]float64{"area": -2}}
	code, body = postJSON(t, ts.URL+"/v1/instantiate", map[string]any{
		"key": info.Key, "queries": []any{badQuery},
	}, nil)
	if code != http.StatusBadRequest || !strings.Contains(body, "queries[0].weights") {
		t.Fatalf("negative query weights: %d %s, want 400 naming queries[0].weights", code, body)
	}

	// The same random in-bounds dimension pool, batched twice with
	// opposite objectives via the request-level vector. Divergence needs a
	// query both members cover with opposite (wire, area) orderings —
	// a few per thousand at these budgets — so the pool is large; the
	// fixed seeds make the outcome deterministic.
	c := circuits.MustByName("circ01")
	queries := make([]map[string][]int, 0, 2000)
	rng := rand.New(rand.NewSource(41))
	for q := 0; q < 2000; q++ {
		ws := make([]int, c.N())
		hs := make([]int, c.N())
		for i, b := range c.Blocks {
			ws[i] = b.WMin + rng.Intn(b.WMax-b.WMin+1)
			hs[i] = b.HMin + rng.Intn(b.HMax-b.HMin+1)
		}
		queries = append(queries, map[string][]int{"ws": ws, "hs": hs})
	}
	type instOut struct {
		Served  int `json:"served"`
		Results []struct {
			Member     int  `json:"member"`
			FromBackup bool `json:"from_backup"`
		} `json:"results"`
	}
	route := func(weights map[string]float64) instOut {
		t.Helper()
		var out instOut
		req := map[string]any{"key": info.Key, "queries": queries}
		if weights != nil {
			req["weights"] = weights
		}
		if code, body := postJSON(t, ts.URL+"/v1/instantiate", req, &out); code != http.StatusOK {
			t.Fatalf("weighted instantiate: %d %s", code, body)
		}
		return out
	}
	wireOut := route(map[string]float64{"wire": 1})
	areaOut := route(map[string]float64{"area": 1})

	diverged := 0
	for i := range queries {
		wm, am := wireOut.Results[i].Member, areaOut.Results[i].Member
		if wm < 0 || am < 0 {
			continue // uncovered — both fall back identically
		}
		if wm != am {
			diverged++
		}
	}
	if diverged == 0 {
		t.Error("no query routed to different members under wire-only vs area-only weights")
	}
	t.Logf("%d/%d covered queries diverged across objectives", diverged, len(queries))
}

// TestWeightedPortfolioWarmRestart: the manifest's grouping row records
// each member's generation weight key, and a restarted server warms the
// portfolio from its cached member entries — each member is the member
// entry's structure, not a private copy — while the row keeps its weight
// record.
func TestWeightedPortfolioWarmRestart(t *testing.T) {
	dir := t.TempDir()
	spec := weightedPortfolioSpec(5)

	s1 := New(Config{Store: openStore(t, dir), Logf: t.Logf})
	t.Cleanup(s1.Close)
	info, err := s1.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	s1.Flush()

	st := openStore(t, dir)
	const wantWeights = "0,1,0;1,0,0"
	rows := st.Portfolios()
	if len(rows) != 1 {
		t.Fatalf("persisted portfolio rows: %+v, want one", rows)
	}
	if got := strings.Join(rows[0].MemberWeights, ";"); got != wantWeights {
		t.Fatalf("persisted member weights = %q, want %q", got, wantWeights)
	}

	s2, _ := newTestServer(t, Config{Store: st, Logf: t.Logf})
	if _, err := s2.Warm(-1); err != nil {
		t.Fatal(err)
	}
	s2.Flush()
	e, ok := s2.lookup(info.Key)
	if !ok || e.p == nil {
		t.Fatalf("warmed server lacks portfolio entry %q", info.Key)
	}
	norm := spec
	if err := norm.normalize(); err != nil {
		t.Fatal(err)
	}
	assertMembersShared(t, s2, norm, e)
	if row, ok := st.GetPortfolio(info.Key); !ok || strings.Join(row.MemberWeights, ";") != wantWeights {
		t.Errorf("grouping row after the warm start: %+v (ok=%v), want member weights %q", row, ok, wantWeights)
	}
	if runs := s2.genRuns.Load(); runs != 0 {
		t.Errorf("warm restart ran %d generations, want 0", runs)
	}
}

// assertMembersShared checks that every member of the portfolio entry e is
// the structure its member entry holds (pointer-equal), so the portfolio
// shares its members' decoded structures and compiled indices.
func assertMembersShared(t *testing.T, s *Server, spec GenerateSpec, e *entry) {
	t.Helper()
	if e.p.K() != spec.Portfolio {
		t.Fatalf("portfolio entry has %d members, want %d", e.p.K(), spec.Portfolio)
	}
	for i := 0; i < spec.Portfolio; i++ {
		me, ok := s.lookup(spec.memberSpec(i).key())
		if !ok {
			t.Fatalf("member %d is not a cache entry", i)
		}
		if e.p.Member(i) != me.p.Member(0) {
			t.Errorf("portfolio member %d is a private copy, not the member entry's structure", i)
		}
	}
}
