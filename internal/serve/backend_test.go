package serve

import (
	"net/http"
	"strings"
	"testing"

	"mps"
)

// TestSpecKeyBackendCompat pins the spec-key compatibility rule: specs
// without a backend (everything written before backends existed) and
// specs naming "anneal" explicitly share the historical key byte for
// byte, while non-default backends get their own |backend= tag — placed
// before the |k= suffix so portfolio keys stay parseable the same way.
func TestSpecKeyBackendCompat(t *testing.T) {
	base := testSpec(1)
	if err := base.normalize(); err != nil {
		t.Fatal(err)
	}
	legacyKey := "circ01|seed=1|it=20|bdio=40|chains=1|maxp=0|backup=tree"
	if got := base.key(); got != legacyKey {
		t.Errorf("backendless spec key = %q, want the pre-backend key %q", got, legacyKey)
	}

	explicit := testSpec(1)
	explicit.Backend = "anneal"
	if err := explicit.normalize(); err != nil {
		t.Fatal(err)
	}
	if got := explicit.key(); got != legacyKey {
		t.Errorf("explicit anneal key = %q, want %q", got, legacyKey)
	}

	ga := testSpec(1)
	ga.Backend = "ga"
	if err := ga.normalize(); err != nil {
		t.Fatal(err)
	}
	if got, want := ga.key(), legacyKey+"|backend=ga"; got != want {
		t.Errorf("ga key = %q, want %q", got, want)
	}

	gaPf := testSpec(1)
	gaPf.Backend = "ga"
	gaPf.Portfolio = 3
	if err := gaPf.normalize(); err != nil {
		t.Fatal(err)
	}
	if got, want := gaPf.key(), legacyKey+"|backend=ga|k=3"; got != want {
		t.Errorf("ga portfolio key = %q, want %q", got, want)
	}

	// Member specs inherit the backend, so a GA portfolio's members
	// cache/persist/dedup as GA artifacts.
	member := gaPf.memberSpec(1)
	if member.Backend != "ga" {
		t.Errorf("member backend = %q, want ga", member.Backend)
	}
	if !strings.Contains(member.key(), "|backend=ga") {
		t.Errorf("member key %q lost the backend tag", member.key())
	}
	if strings.Contains(member.key(), "|k=") {
		t.Errorf("member key %q kept the portfolio suffix", member.key())
	}
}

// TestBadSpecsRejected is the one-place validation table: every bad
// enumerated field or negative budget must come back as a 400 from POST
// /v1/structures, never reach generation, and name the offending value.
func TestBadSpecsRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	cases := []struct {
		name    string
		spec    GenerateSpec
		mention string
	}{
		{"missing circuit", GenerateSpec{}, "missing circuit"},
		{"unknown circuit", GenerateSpec{Circuit: "nope"}, "nope"},
		{"unknown effort", GenerateSpec{Circuit: "circ01", Effort: "heroic"}, "heroic"},
		{"unknown backup", GenerateSpec{Circuit: "circ01", Backup: "pile"}, "pile"},
		{"unknown backend", GenerateSpec{Circuit: "circ01", Backend: "cmaes"}, "cmaes"},
		{"negative iterations", GenerateSpec{Circuit: "circ01", Iterations: -1}, "negative budget"},
		{"negative bdio", GenerateSpec{Circuit: "circ01", BDIOSteps: -5}, "negative budget"},
		{"negative chains", GenerateSpec{Circuit: "circ01", Chains: -2}, "negative budget"},
		{"negative portfolio", GenerateSpec{Circuit: "circ01", Portfolio: -3}, "negative portfolio"},
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

	// A valid spec followed by anything but whitespace is a bad body.
	for _, body := range []string{`{"circuit":"circ01"} trailing`, `{"circuit":"circ01"}}`, `{"circuit":"circ01"}{}`} {
		if status, msg := postRaw(t, ts.URL+"/v1/structures", []byte(body)); status != http.StatusBadRequest ||
			!strings.Contains(msg, "after the JSON value") {
			t.Errorf("%s: status %d (%s), want 400", body, status, msg)
		}
	}

	// The unknown-backend 400 must list the registered names so clients
	// can self-correct without a second round trip.
	spec := GenerateSpec{Circuit: "circ01", Backend: "cmaes"}
	_, body := postJSON(t, ts.URL+"/v1/structures", spec, nil)
	for _, name := range mps.Backends() {
		if !strings.Contains(body, name) {
			t.Errorf("unknown-backend 400 %q does not list registered backend %q", body, name)
		}
	}
}

// TestBackendsEndpoint checks GET /v1/backends lists every registered
// backend and marks the default.
func TestBackendsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	var resp struct {
		Backends []struct {
			Name    string `json:"name"`
			Default bool   `json:"default"`
		} `json:"backends"`
	}
	if status := getJSON(t, ts.URL+"/v1/backends", &resp); status != http.StatusOK {
		t.Fatalf("status = %d", status)
	}
	got := map[string]bool{}
	for _, b := range resp.Backends {
		got[b.Name] = b.Default
	}
	for _, name := range mps.Backends() {
		isDefault, ok := got[name]
		if !ok {
			t.Errorf("backend %q missing from listing %v", name, got)
			continue
		}
		if want := name == mps.DefaultBackend; isDefault != want {
			t.Errorf("backend %q default = %v, want %v", name, isDefault, want)
		}
	}
	if len(resp.Backends) != len(mps.Backends()) {
		t.Errorf("listed %d backends, registry has %d", len(resp.Backends), len(mps.Backends()))
	}
}

// TestGenerateGABackendServed drives a GA generation through the full
// serving path — spec in, structure generated on the scheduler, cached
// under a backend-tagged key — and checks anneal and GA artifacts for
// the same (circuit, seed, budgets) coexist as separate entries.
func TestGenerateGABackendServed(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	gaSpec := testSpec(1)
	gaSpec.Backend = "ga"
	var gaInfo StructureInfo
	if status, body := postJSON(t, ts.URL+"/v1/structures", gaSpec, &gaInfo); status != http.StatusOK {
		t.Fatalf("ga generate status = %d (body: %s)", status, body)
	}
	if gaInfo.Spec.Backend != "ga" {
		t.Errorf("served spec backend = %q, want ga", gaInfo.Spec.Backend)
	}
	if gaInfo.Placements == 0 {
		t.Error("GA generation served zero placements")
	}
	if !strings.Contains(gaInfo.Key, "|backend=ga") {
		t.Errorf("GA entry key %q lacks the backend tag", gaInfo.Key)
	}

	annealInfo, err := s.Generate(testSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	if annealInfo.Key == gaInfo.Key {
		t.Error("anneal and ga specs share a cache key")
	}
	if annealInfo.Spec.Backend != "anneal" {
		t.Errorf("backendless spec normalized to %q, want anneal", annealInfo.Spec.Backend)
	}
}

// TestGenerationSeriesPerBackend generates quick circ01 under each backend
// and checks that backend's generation series against the Stats the POST
// returned: its proposals, its acceptances and one run in its duration
// histogram.
func TestGenerationSeriesPerBackend(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, backend := range []string{"anneal", "ga"} {
		var info StructureInfo
		spec := GenerateSpec{Circuit: "circ01", Effort: "quick", Backend: backend}
		if code, body := postJSON(t, ts.URL+"/v1/structures", spec, &info); code != http.StatusOK || info.Stats == nil {
			t.Fatalf("%s: generate: %d %s", backend, code, body)
		}
		if info.Stats.Iterations == 0 || info.Stats.Duration == 0 {
			t.Fatalf("%s: generation reported %+v", backend, *info.Stats)
		}
		m := scrapeMetrics(t, ts.URL)
		sel := map[string]string{"backend": backend}
		for name, want := range map[string]float64{
			"mps_generation_proposals_total":   float64(info.Stats.Iterations),
			"mps_generation_acceptances_total": float64(info.Stats.Accepted),
			"mps_generation_run_seconds_count": 1,
			"mps_generation_run_seconds_sum":   info.Stats.Duration.Seconds(),
		} {
			if got := m.Sum(name, sel); got != want {
				t.Errorf("%s: %s = %v, want %v", backend, name, got, want)
			}
		}
	}
}
