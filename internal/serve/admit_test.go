package serve

import (
	"bytes"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"mps/internal/cluster"
	"mps/internal/jobs"
	"mps/internal/store"
)

// uncappedStore persists every spec with a server that runs without an
// iteration cap and returns the store directory, so a server with a
// tighter cap can then open rows it would never have generated.
func uncappedStore(t *testing.T, specs ...GenerateSpec) string {
	t.Helper()
	dir := t.TempDir()
	s := New(Config{Store: openStore(t, dir), MaxGenerateIterations: -1, Logf: t.Logf})
	defer s.Close()
	for _, spec := range specs {
		if _, err := s.Generate(spec); err != nil {
			t.Fatal(err)
		}
	}
	s.Flush()
	return dir
}

// overCapSpec is a circ01 spec at 200 iterations, over the cap of 100 the
// admission tests' servers run with.
func overCapSpec(seed int64) GenerateSpec {
	spec := testSpec(seed)
	spec.Iterations = 200
	return spec
}

// TestAdmitBareKeyLikeSpec: a row recorded at 200 iterations, served by a
// daemon capped at 100. Addressed by spec or by its bare key, the request
// gets the same 400 and nothing loads or generates — also once the row's
// structure file is garbage, where a read-through miss would otherwise
// regenerate the row at its recorded budget.
func TestAdmitBareKeyLikeSpec(t *testing.T) {
	spec := overCapSpec(70)
	dir := uncappedStore(t, spec)
	key := specKey(t, spec)
	queries := []map[string][]int{testQuery(t, 0)}
	const want = `{"error":"iterations 200 exceeds daemon cap 100"}` + "\n"
	for _, garbage := range []bool{false, true} {
		st := openStore(t, dir)
		if garbage {
			meta, ok := st.Stat(key)
			if !ok {
				t.Fatal("row not persisted")
			}
			if err := os.WriteFile(filepath.Join(dir, meta.File), []byte("garbage"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		s, ts := newTestServer(t, Config{Store: st, MaxGenerateIterations: 100, Logf: t.Logf})
		code, body := postJSON(t, ts.URL+"/v1/instantiate", map[string]any{"spec": spec, "queries": queries}, nil)
		if code != http.StatusBadRequest || body != want {
			t.Errorf("garbage file %v, by spec: %d %q, want 400 %q", garbage, code, body, want)
		}
		kcode, kbody := postJSON(t, ts.URL+"/v1/instantiate", map[string]any{"key": key, "queries": queries}, nil)
		if kcode != code || kbody != body {
			t.Errorf("garbage file %v, by key: %d %q, want the spec's %d %q", garbage, kcode, kbody, code, body)
		}
		if runs := s.genRuns.Load(); runs != 0 {
			t.Errorf("garbage file %v: %d generation runs, want 0", garbage, runs)
		}
		if n := len(cachedEntries(s)); n != 0 {
			t.Errorf("garbage file %v: %d cache entries, want 0", garbage, n)
		}
	}
}

// TestWarmSkipsOverCapRows: Warm admits each row's recorded spec, so a
// row over the daemon's cap is not loaded.
func TestWarmSkipsOverCapRows(t *testing.T) {
	dir := uncappedStore(t, overCapSpec(71))
	s := New(Config{Store: openStore(t, dir), MaxGenerateIterations: 100, Logf: t.Logf})
	t.Cleanup(s.Close)
	if n, err := s.Warm(-1); err != nil || n != 0 {
		t.Errorf("Warm = %d, %v; want 0", n, err)
	}
	if n := len(cachedEntries(s)); n != 0 {
		t.Errorf("%d cache entries after Warm, want 0", n)
	}
}

// TestAdmitOversizedPortfolioRow: twelve member rows and a hand-recorded
// K=12 grouping row over them. The portfolio cap is 8, so the bare key is
// refused as a K=12 spec would be, and Warm, with room for every row,
// lands the members but not the grouping.
func TestAdmitOversizedPortfolioRow(t *testing.T) {
	k12 := testSpec(80)
	k12.Portfolio = 12
	if err := k12.normalize(); err != nil {
		t.Fatal(err)
	}
	members := make([]GenerateSpec, k12.Portfolio)
	keys := make([]string, k12.Portfolio)
	for i := range members {
		members[i] = k12.memberSpec(i)
		keys[i] = members[i].key()
	}
	dir := uncappedStore(t, members...)
	if _, err := openStore(t, dir).RecordPortfolio(store.PortfolioMeta{
		Key: k12.key(), Circuit: k12.Circuit, Seed: k12.Seed,
		Options: string(mustSpecJSON(k12)), Members: keys,
	}); err != nil {
		t.Fatal(err)
	}

	s, ts := newTestServer(t, Config{Store: openStore(t, dir), MaxGenerateIterations: 100, CacheSize: 16, Logf: t.Logf})
	code, body := postJSON(t, ts.URL+"/v1/instantiate",
		map[string]any{"key": k12.key(), "queries": []map[string][]int{testQuery(t, 0)}}, nil)
	if want := `{"error":"portfolio size 12 exceeds daemon cap 8"}` + "\n"; code != http.StatusBadRequest || body != want {
		t.Errorf("by key: %d %q, want 400 %q", code, body, want)
	}
	if n := len(cachedEntries(s)); n != 0 {
		t.Errorf("%d cache entries after the refused key, want 0", n)
	}

	w := New(Config{Store: openStore(t, dir), MaxGenerateIterations: 100, CacheSize: 16, Logf: t.Logf})
	t.Cleanup(w.Close)
	if n, err := w.Warm(-1); err != nil || n != len(members) {
		t.Errorf("Warm = %d, %v; want %d (the members only)", n, err, len(members))
	}
	if _, ok := w.lookup(k12.key()); ok {
		t.Error("Warm landed the K=12 grouping")
	}
	if runs := s.genRuns.Load() + w.genRuns.Load(); runs != 0 {
		t.Errorf("%d generation runs, want 0", runs)
	}
}

// TestResumeSkipsKeyMismatch: an interrupted jobs.json record whose spec
// rebuilds another key than the one it was recorded under is skipped, as
// a mismatching store row is.
func TestResumeSkipsKeyMismatch(t *testing.T) {
	jobsDir := interruptedState(t, specKey(t, testSpec(90)), testSpec(91))
	sched, err := jobs.New(jobs.Config{Workers: 1, Dir: jobsDir})
	if err != nil {
		t.Fatal(err)
	}
	s, _ := newTestServer(t, Config{Jobs: sched, Logf: t.Logf})
	if n := s.ResumeInterrupted(); n != 0 {
		t.Errorf("ResumeInterrupted = %d, want 0", n)
	}
	if n := len(cachedEntries(s)); n != 0 {
		t.Errorf("%d cache entries after the resume, want 0", n)
	}
	if stats := sched.Stats(); stats.Queued != 0 || stats.Running != 0 {
		t.Errorf("scheduler has active jobs after the resume: %+v", stats)
	}
}

// TestClusterAcceptAdmits: a rebalance push whose spec is over the
// receiving node's cap is refused with 400, and nothing is stored.
func TestClusterAcceptAdmits(t *testing.T) {
	spec := overCapSpec(95)
	gen := New(Config{MaxGenerateIterations: -1})
	t.Cleanup(gen.Close)
	info, err := gen.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	e, _ := gen.lookup(info.Key)
	var artifact bytes.Buffer
	if err := e.p.Member(0).SaveBinary(&artifact); err != nil {
		t.Fatal(err)
	}

	fleet := newTestFleet(t, fleetConfig{n: 1, stores: true, serve: func(cfg *Config) { cfg.MaxGenerateIterations = 100 }})
	node := fleet.nodes[0]
	req, err := http.NewRequest(http.MethodPost, node.url+"/v1/cluster/accept", &artifact)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(cluster.ForwardHeader, node.c.ForwardMark())
	req.Header.Set(clusterSpecHeader, string(mustSpecJSON(info.Spec)))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"error":"iterations 200 exceeds daemon cap 100"}` + "\n"; resp.StatusCode != http.StatusBadRequest || string(body) != want {
		t.Errorf("accept: %d %q, want 400 %q", resp.StatusCode, body, want)
	}
	if n := node.store.Len(); n != 0 {
		t.Errorf("store holds %d rows after the refused push, want 0", n)
	}
}
