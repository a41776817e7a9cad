package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mps/internal/core"
	"mps/internal/jobs"
	"mps/internal/store"
)

// portfolioSpec is a seconds-scale K=3 portfolio spec for the smallest
// circuit.
func portfolioSpec(seed int64) GenerateSpec {
	spec := testSpec(seed)
	spec.Portfolio = 3
	return spec
}

// TestPortfolioGenerateAndInstantiate is the portfolio acceptance path:
// one spec with portfolio=3 fans out into three member generation jobs,
// fans in to a routed entry, serves batched instantiate traffic, and
// deduplicates its members against single-structure specs.
func TestPortfolioGenerateAndInstantiate(t *testing.T) {
	s, ts := newTestServer(t, Config{Logf: t.Logf})
	spec := portfolioSpec(1)

	var info StructureInfo
	if code, body := postJSON(t, ts.URL+"/v1/structures", spec, &info); code != http.StatusOK {
		t.Fatalf("generate portfolio: %d %s", code, body)
	}
	if info.Spec.Portfolio != 3 {
		t.Fatalf("portfolio spec lost K: %+v", info.Spec)
	}
	if runs := s.genRuns.Load(); runs != 3 {
		t.Fatalf("portfolio generation ran %d annealing runs, want 3 (one per member)", runs)
	}

	// The fan-out registered three member entries plus the portfolio: the
	// member jobs are ordinary scheduler jobs, listed and done.
	stats := s.Jobs().Stats()
	if stats.Done < 3 {
		t.Fatalf("scheduler stats %+v, want >= 3 done member jobs", stats)
	}

	// Instantiate through the portfolio entry, addressed by key and spec.
	var out struct {
		Served  int `json:"served"`
		Results []struct {
			Member      int  `json:"member"`
			PlacementID int  `json:"placement_id"`
			FromBackup  bool `json:"from_backup"`
		} `json:"results"`
	}
	code, body := postJSON(t, ts.URL+"/v1/instantiate", map[string]any{
		"key":     info.Key,
		"queries": []map[string][]int{testQuery(t, 0), testQuery(t, 1)},
	}, &out)
	if code != http.StatusOK || out.Served != 2 {
		t.Fatalf("instantiate by key: %d %s", code, body)
	}
	for i, r := range out.Results {
		if (r.Member < 0) != r.FromBackup {
			t.Errorf("result %d: member %d inconsistent with from_backup %v", i, r.Member, r.FromBackup)
		}
	}

	// Re-generating the same portfolio is a cache hit, and a plain
	// single-structure request for member 0's derived seed deduplicates
	// onto the member entry — no fourth annealing run anywhere.
	var again StructureInfo
	if code, body := postJSON(t, ts.URL+"/v1/structures", spec, &again); code != http.StatusOK || !again.Cached {
		t.Fatalf("repeat portfolio generate: %d %s (cached=%v)", code, body, again.Cached)
	}
	member0 := spec.memberSpec(0)
	var single StructureInfo
	if code, body := postJSON(t, ts.URL+"/v1/structures", member0, &single); code != http.StatusOK || !single.Cached {
		t.Fatalf("member-0 single spec: %d %s (cached=%v)", code, body, single.Cached)
	}
	if runs := s.genRuns.Load(); runs != 3 {
		t.Fatalf("dedup failed: %d annealing runs after cache-hit requests, want 3", runs)
	}
}

// TestPortfolioJobSubmit covers the async API: submitting a portfolio spec
// returns the member jobs while they generate (202) and the born-done
// portfolio job once fan-in lands (200).
func TestPortfolioJobSubmit(t *testing.T) {
	s, ts := newTestServer(t, Config{Logf: t.Logf})
	spec := portfolioSpec(2)

	var accepted struct {
		Key         string    `json:"key"`
		Portfolio   int       `json:"portfolio"`
		MembersDone int       `json:"members_done"`
		Members     []jobView `json:"members"`
	}
	code, body := postJSON(t, ts.URL+"/v1/jobs", jobSubmitRequest{Spec: spec}, &accepted)
	switch code {
	case http.StatusAccepted:
		if accepted.Portfolio != 3 || len(accepted.Members) != 3 {
			t.Fatalf("accepted portfolio submit: %s", body)
		}
		for _, m := range accepted.Members {
			if m.ID == "" || m.Key == accepted.Key {
				t.Fatalf("member job malformed: %+v", m)
			}
		}
	case http.StatusOK:
		// Members finished between submit and response on a fast machine;
		// the born-done portfolio job answered instead. Fine.
	default:
		t.Fatalf("portfolio submit: %d %s", code, body)
	}

	// Wait for the portfolio entry, then resubmit: the born-done portfolio
	// job must answer with 200 and its key.
	if _, err := s.Generate(spec); err != nil {
		t.Fatal(err)
	}
	var done jobView
	if code, body := postJSON(t, ts.URL+"/v1/jobs", jobSubmitRequest{Spec: spec}, &done); code != http.StatusOK {
		t.Fatalf("resubmit finished portfolio: %d %s", code, body)
	}
	if done.State != string(jobs.StateDone) || !done.Cached {
		t.Fatalf("finished portfolio job: %+v, want done and cached", done)
	}
}

// TestPortfolioWarmRestart: generate a portfolio on one server, restart
// over the same store directory, and the portfolio (grouping row plus
// member files) must serve instantiate traffic with zero annealing runs.
func TestPortfolioWarmRestart(t *testing.T) {
	dir := t.TempDir()
	spec := portfolioSpec(3)

	s1 := New(Config{Store: openStore(t, dir), Logf: t.Logf})
	t.Cleanup(s1.Close)
	info, err := s1.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	s1.Flush()
	if runs := s1.genRuns.Load(); runs != 3 {
		t.Fatalf("first server ran %d generations, want 3", runs)
	}

	st := openStore(t, dir)
	if rows := st.Portfolios(); len(rows) != 1 || rows[0].K() != 3 {
		t.Fatalf("persisted portfolio rows: %+v, want one K=3 row", rows)
	}

	s2, ts := newTestServer(t, Config{Store: st, Logf: t.Logf})
	n, err := s2.Warm(-1)
	if err != nil {
		t.Fatal(err)
	}
	// Three member structures plus the portfolio grouping.
	if n != 4 {
		t.Fatalf("warm-loaded %d entries, want 4 (3 members + portfolio)", n)
	}
	again, err := s2.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached || again.Key != info.Key || again.Placements != info.Placements {
		t.Fatalf("restarted server serves a different portfolio: %+v vs %+v", again, info)
	}
	var out struct {
		Served int `json:"served"`
	}
	code, body := postJSON(t, ts.URL+"/v1/instantiate", map[string]any{
		"spec":    spec,
		"queries": []map[string][]int{testQuery(t, 0)},
	}, &out)
	if code != http.StatusOK || out.Served != 1 {
		t.Fatalf("instantiate after restart: %d %s", code, body)
	}
	if runs := s2.genRuns.Load(); runs != 0 {
		t.Fatalf("restarted server ran %d generations, want 0", runs)
	}
}

// TestPortfolioReadThroughRegeneratesOnlyMissing: when one member's store
// entry vanishes, a cold portfolio request reloads the surviving members
// from disk and re-anneals only the missing one.
func TestPortfolioReadThroughRegeneratesOnlyMissing(t *testing.T) {
	dir := t.TempDir()
	spec := portfolioSpec(4)

	s1 := New(Config{Store: openStore(t, dir), Logf: t.Logf})
	t.Cleanup(s1.Close)
	if _, err := s1.Generate(spec); err != nil {
		t.Fatal(err)
	}
	s1.Flush()

	st := openStore(t, dir)
	norm := spec
	if err := norm.normalize(); err != nil {
		t.Fatal(err)
	}
	if err := st.Delete(norm.memberSpec(1).key()); err != nil {
		t.Fatal(err)
	}
	// Deleting a member drops the grouping row too (unservable).
	if rows := st.Portfolios(); len(rows) != 0 {
		t.Fatalf("portfolio row survived member deletion: %+v", rows)
	}

	s2, _ := newTestServer(t, Config{Store: st, Logf: t.Logf})
	if _, err := s2.Generate(spec); err != nil {
		t.Fatal(err)
	}
	if runs := s2.genRuns.Load(); runs != 1 {
		t.Fatalf("cold portfolio with one missing member ran %d generations, want 1", runs)
	}
	s2.Flush()
	// The re-anneal re-persisted the member and re-recorded the grouping.
	if rows := st.Portfolios(); len(rows) != 1 {
		t.Fatalf("portfolio row not re-recorded after regeneration: %+v", rows)
	}
}

// interruptedState writes a jobs.json recording the spec's generation,
// under key, as running — the state a daemon leaves when it shuts down (or
// crashes) while the job's annealing raced its own completion. Returns the
// jobs directory.
func interruptedState(t *testing.T, key string, spec GenerateSpec) string {
	t.Helper()
	jobsDir := t.TempDir()
	sched, err := jobs.New(jobs.Config{Workers: 1, Dir: jobsDir})
	if err != nil {
		t.Fatal(err)
	}
	norm := spec
	if err := norm.normalize(); err != nil {
		t.Fatal(err)
	}
	specJSON, err := json.Marshal(norm)
	if err != nil {
		t.Fatal(err)
	}
	running := make(chan struct{})
	if _, err := sched.Submit(jobs.Request{
		Key:  key,
		Spec: specJSON,
		Run: func(ctx context.Context, _ func(jobs.Progress)) error {
			close(running)
			<-ctx.Done()
			return ctx.Err()
		},
	}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-running:
	case <-time.After(10 * time.Second):
		t.Fatal("interrupted-state job never started")
	}
	sched.Close() // persists the job as still running, crash-style
	return jobsDir
}

// populatedStore generates and persists the spec's structure, returning
// the store directory.
func populatedStore(t *testing.T, dir string, spec GenerateSpec) {
	t.Helper()
	s := New(Config{Store: openStore(t, dir), Logf: t.Logf})
	defer s.Close()
	if _, err := s.Generate(spec); err != nil {
		t.Fatal(err)
	}
	s.Flush()
}

// assertNoDuplicateJob asserts the server neither annealed nor holds a
// queued/running job for the key — the invariant both restart orderings
// must preserve.
func assertNoDuplicateJob(t *testing.T, s *Server, key string) {
	t.Helper()
	if runs := s.genRuns.Load(); runs != 0 {
		t.Errorf("server ran %d annealing runs, want 0", runs)
	}
	stats := s.Jobs().Stats()
	if stats.Queued != 0 || stats.Running != 0 {
		t.Errorf("scheduler has active jobs after restart handling: %+v", stats)
	}
	active := 0
	for _, snap := range s.Jobs().List() {
		if snap.Key == key && !snap.State.Terminal() {
			active++
		}
	}
	if active != 0 {
		t.Errorf("%d non-terminal jobs for %s, want 0", active, key)
	}
}

// TestWarmThenResumeNoDuplicateJob: a warm-loaded entry whose spec also
// sits in jobs.json as interrupted must not be regenerated when
// ResumeInterrupted runs after Warm — the resume lands on the warmed
// cache entry.
func TestWarmThenResumeNoDuplicateJob(t *testing.T) {
	spec := testSpec(21)
	storeDir := t.TempDir()
	populatedStore(t, storeDir, spec)
	jobsDir := interruptedState(t, specKey(t, spec), spec)

	sched, err := jobs.New(jobs.Config{Workers: 1, Dir: jobsDir})
	if err != nil {
		t.Fatal(err)
	}
	s, _ := newTestServer(t, Config{Store: openStore(t, storeDir), Jobs: sched, Logf: t.Logf})
	if len(sched.Interrupted()) != 1 {
		t.Fatalf("interrupted jobs: %d, want 1", len(sched.Interrupted()))
	}

	if n, err := s.Warm(-1); err != nil || n != 1 {
		t.Fatalf("Warm = %d, %v; want 1", n, err)
	}
	if n := s.ResumeInterrupted(); n != 1 {
		t.Fatalf("ResumeInterrupted = %d, want 1 (it lands on the warm entry)", n)
	}

	norm := spec
	if err := norm.normalize(); err != nil {
		t.Fatal(err)
	}
	assertNoDuplicateJob(t, s, norm.key())
	info, err := s.Generate(spec)
	if err != nil || !info.Cached {
		t.Fatalf("generate after warm+resume: %+v, %v; want cached", info, err)
	}
}

// TestResumeThenWarmNoDuplicateJob: the opposite ordering — the resumed
// job completes instantly through the store read-through, and the later
// Warm pass must not double-insert or regenerate.
func TestResumeThenWarmNoDuplicateJob(t *testing.T) {
	spec := testSpec(22)
	storeDir := t.TempDir()
	populatedStore(t, storeDir, spec)
	jobsDir := interruptedState(t, specKey(t, spec), spec)

	sched, err := jobs.New(jobs.Config{Workers: 1, Dir: jobsDir})
	if err != nil {
		t.Fatal(err)
	}
	s, _ := newTestServer(t, Config{Store: openStore(t, storeDir), Jobs: sched, Logf: t.Logf})

	if n := s.ResumeInterrupted(); n != 1 {
		t.Fatalf("ResumeInterrupted = %d, want 1", n)
	}
	norm := spec
	if err := norm.normalize(); err != nil {
		t.Fatal(err)
	}
	// The resumed entry materializes via the store read-through
	// (milliseconds); wait for it to publish before warming.
	if _, err := s.Generate(spec); err != nil {
		t.Fatal(err)
	}
	if n, err := s.Warm(-1); err != nil || n != 0 {
		t.Fatalf("Warm after resume = %d, %v; want 0 (already cached)", n, err)
	}

	assertNoDuplicateJob(t, s, norm.key())
	info, err := s.Generate(spec)
	if err != nil || !info.Cached {
		t.Fatalf("generate after resume+warm: %+v, %v; want cached", info, err)
	}
}

// warmStore persists into dir a K=3 portfolio (three member structure
// rows plus its grouping row) and `singles` single structures, the
// portfolio first when portfolioFirst (so its members are the oldest
// structure rows) and last otherwise. It returns the normalized portfolio
// spec.
func warmStore(t *testing.T, dir string, singles int, portfolioFirst bool) GenerateSpec {
	t.Helper()
	spec := portfolioSpec(30)
	if portfolioFirst {
		populatedStore(t, dir, spec)
	}
	for i := 0; i < singles; i++ {
		populatedStore(t, dir, testSpec(int64(40+i)))
	}
	if !portfolioFirst {
		populatedStore(t, dir, spec)
	}
	if err := spec.normalize(); err != nil {
		t.Fatal(err)
	}
	return spec
}

// warmServer is a server over the store in dir with the given cache size.
func warmServer(t *testing.T, dir string, cacheSize int) *Server {
	t.Helper()
	s := New(Config{Store: openStore(t, dir), CacheSize: cacheSize, Logf: t.Logf})
	t.Cleanup(s.Close)
	return s
}

// cachedEntries snapshots the server's cache.
func cachedEntries(s *Server) []*entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*entry, 0, len(s.cache))
	for _, e := range s.cache {
		out = append(out, e)
	}
	return out
}

// assertGroupingsShared checks every cached portfolio entry with
// assertMembersShared.
func assertGroupingsShared(t *testing.T, s *Server) {
	t.Helper()
	for _, e := range cachedEntries(s) {
		if e.spec.Portfolio > 1 {
			assertMembersShared(t, s, e.spec, e)
		}
	}
}

// TestWarmKeepsWhatItLoads: a store whose structure rows outnumber the
// cache, plus a grouping. Warm fills the cache and stops there: it returns
// the number of entries cached, evicts nothing (so nothing it loads is
// lost in the same call) and anneals nothing, whichever of the portfolio
// and the singles was persisted first.
func TestWarmKeepsWhatItLoads(t *testing.T) {
	for _, portfolioFirst := range []bool{true, false} {
		dir := t.TempDir()
		warmStore(t, dir, 6, portfolioFirst)
		for _, size := range []int{8, 3} {
			s := warmServer(t, dir, size)
			n, err := s.Warm(-1)
			if err != nil {
				t.Fatal(err)
			}
			if cached := len(cachedEntries(s)); n != size || cached != size {
				t.Errorf("portfolio first %v, cache %d: Warm = %d with %d entries cached; want both %d",
					portfolioFirst, size, n, cached, size)
			}
			if ev := s.metrics.cacheEvictions.Load(); ev != 0 {
				t.Errorf("portfolio first %v, cache %d: Warm evicted %d entries, want 0", portfolioFirst, size, ev)
			}
			if runs := s.genRuns.Load(); runs != 0 {
				t.Errorf("portfolio first %v, cache %d: Warm ran %d generations, want 0", portfolioFirst, size, runs)
			}
			assertGroupingsShared(t, s)
		}
	}
}

// TestWarmLimitBoundsGroupings: Warm(limit) with a roomy cache over a
// store whose portfolio members are older than the newest structure rows.
// The count never exceeds limit and always equals the entries cached, and
// a grouping lands only from members that are cache entries: not while
// the budget ends inside the structure rows, and as soon as it leaves room
// for every row.
func TestWarmLimitBoundsGroupings(t *testing.T) {
	dir := t.TempDir()
	spec := warmStore(t, dir, 6, true)
	for _, tc := range []struct {
		limit, want int
		grouping    bool
	}{
		{3, 3, false}, {7, 7, false}, {9, 9, false}, {10, 10, true}, {-1, 10, true},
	} {
		s := warmServer(t, dir, 16)
		n, err := s.Warm(tc.limit)
		if err != nil {
			t.Fatal(err)
		}
		if cached := len(cachedEntries(s)); n != tc.want || cached != tc.want {
			t.Errorf("Warm(%d) = %d with %d entries cached; want both %d", tc.limit, n, cached, tc.want)
		}
		if _, ok := s.lookup(spec.key()); ok != tc.grouping {
			t.Errorf("Warm(%d): grouping cached = %v, want %v", tc.limit, ok, tc.grouping)
		}
		assertGroupingsShared(t, s)
		if runs := s.genRuns.Load(); runs != 0 {
			t.Errorf("Warm(%d) ran %d generations, want 0", tc.limit, runs)
		}
	}
}

// TestWarmAssemblesFromCachedMembers: over a store that fits the cache,
// Warm caches the grouping with each member the member entry's structure,
// and assembling it leaves the grouping row as it was: the manifest is not
// rewritten, so the row's Created (which orders Warm) does not move.
func TestWarmAssemblesFromCachedMembers(t *testing.T) {
	dir := t.TempDir()
	spec := warmStore(t, dir, 1, true)
	st := openStore(t, dir)
	before, ok := st.GetPortfolio(spec.key())
	if !ok {
		t.Fatal("no grouping row persisted")
	}
	manifest := filepath.Join(dir, "manifest.json")
	onDisk, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}

	s := New(Config{Store: st, Logf: t.Logf})
	t.Cleanup(s.Close)
	if n, err := s.Warm(-1); err != nil || n != 5 {
		t.Fatalf("Warm = %d, %v; want 5 (a single, 3 members and the grouping)", n, err)
	}
	s.Flush()
	e, ok := s.lookup(spec.key())
	if !ok {
		t.Fatal("Warm did not cache the grouping")
	}
	assertMembersShared(t, s, spec, e)
	if after, _ := st.GetPortfolio(spec.key()); !after.Created.Equal(before.Created) {
		t.Errorf("grouping row Created moved from %v to %v", before.Created, after.Created)
	}
	if now, err := os.ReadFile(manifest); err != nil || !bytes.Equal(now, onDisk) {
		t.Errorf("Warm rewrote the manifest (err %v)", err)
	}
	if runs := s.genRuns.Load(); runs != 0 {
		t.Errorf("Warm ran %d generations, want 0", runs)
	}
}

// TestWarmSkipsMalformedGroupingRows: grouping rows a hand-edited
// manifest can hold — one naming a one-structure spec, one listing fewer
// members than its spec's K — are not portfolios Warm can assemble from
// cached members. Warm skips them instead of reaching generation, and
// still lands the real grouping.
func TestWarmSkipsMalformedGroupingRows(t *testing.T) {
	dir := t.TempDir()
	spec := warmStore(t, dir, 0, true)
	st := openStore(t, dir)
	one := testSpec(99)
	short := portfolioSpec(98)
	for _, odd := range []GenerateSpec{one, short} {
		if err := odd.normalize(); err != nil {
			t.Fatal(err)
		}
		if _, err := st.RecordPortfolio(store.PortfolioMeta{
			Key: odd.key(), Circuit: odd.Circuit, Seed: odd.Seed,
			Options: string(mustSpecJSON(odd)), Members: []string{spec.memberSpec(0).key()},
		}); err != nil {
			t.Fatal(err)
		}
	}
	s := New(Config{Store: st, Logf: t.Logf})
	t.Cleanup(s.Close)
	if n, err := s.Warm(-1); err != nil || n != 4 {
		t.Errorf("Warm = %d, %v; want 4 (3 members and the portfolio)", n, err)
	}
	if runs := s.genRuns.Load(); runs != 0 {
		t.Errorf("Warm ran %d generations, want 0", runs)
	}
	if _, ok := s.lookup(spec.key()); !ok {
		t.Error("Warm did not land the real grouping")
	}
}

// TestWarmSkipsPortfolioStructureRow: a structure row recorded under a K=3
// portfolio key, with the portfolio spec as its options, holds one
// structure. Warm skips it rather than cache it as the K=3 entry, which
// would answer the portfolio key from one member; a request for the key
// then fans out to all three.
func TestWarmSkipsPortfolioStructureRow(t *testing.T) {
	dir := t.TempDir()
	spec := portfolioSpec(97)
	if err := spec.normalize(); err != nil {
		t.Fatal(err)
	}
	g := New(Config{Store: openStore(t, dir), Logf: t.Logf})
	if _, err := g.Generate(spec.memberSpec(0)); err != nil {
		t.Fatal(err)
	}
	g.Flush()
	member, ok := g.lookup(spec.memberSpec(0).key())
	if !ok {
		t.Fatal("member 0 is not cached")
	}
	g.Close()
	if _, err := openStore(t, dir).Put(structureMeta(spec, member.coverage), member.p.Member(0)); err != nil {
		t.Fatal(err)
	}

	s, ts := newTestServer(t, Config{Store: openStore(t, dir), Logf: t.Logf})
	if n, err := s.Warm(-1); err != nil || n != 1 {
		t.Errorf("Warm = %d, %v; want 1 (member 0's row)", n, err)
	}
	if e, ok := s.lookup(spec.key()); ok {
		t.Fatalf("Warm cached the K=3 key as a %d-member entry", e.p.K())
	}
	code, body := postJSON(t, ts.URL+"/v1/instantiate",
		map[string]any{"spec": spec, "queries": []map[string][]int{testQuery(t, 0)}}, nil)
	s.Flush()
	if code != http.StatusOK {
		t.Fatalf("instantiate: %d %s", code, body)
	}
	e, ok := s.lookup(spec.key())
	if !ok || e.p.K() != 3 {
		t.Fatalf("after the request: cached %v, want a 3-member entry", ok)
	}
	assertMembersShared(t, s, spec, e)
	if runs := s.genRuns.Load(); runs != 2 {
		t.Errorf("%d generation runs, want 2 (members 1 and 2; Warm loaded member 0)", runs)
	}
}

// TestWarmRestartAnswersIdentical is the store leg of the answer oracle: a
// server restarted over the same directory answers /v1/instantiate byte
// for byte as the generating server did, from the v2 files the store
// writes and again from legacy v3 files, with no generation run and the
// portfolio cached by Warm. The queries are box-drawn from every member,
// both corners of stored boxes, uniform in the designer bounds, and one
// out of bounds, each unweighted and under wire-only and area-only query
// weights.
func TestWarmRestartAnswersIdentical(t *testing.T) {
	dir := t.TempDir()
	single := testSpec(50)
	pf := testSpec(51)
	pf.Portfolio = 3
	pf.MemberWeights = []WeightsSpec{{Area: 1}, {Wire: 1}, {Aspect: 1}}

	s1, ts1 := newTestServer(t, Config{Store: openStore(t, dir), Logf: t.Logf})
	var structures []*core.Structure
	for _, spec := range []GenerateSpec{single, pf} {
		info, err := s1.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		e, ok := s1.lookup(info.Key)
		if !ok {
			t.Fatalf("%s is not cached", info.Key)
		}
		for i := 0; i < e.p.K(); i++ {
			structures = append(structures, e.p.Member(i))
		}
	}
	s1.Flush()

	queries := oracleQueries(t, rand.New(rand.NewSource(52)), structures)

	// answers posts every (spec, query weights) batch to url, in order.
	answers := func(url string) []string {
		var out []string
		for _, spec := range []GenerateSpec{single, pf} {
			for _, w := range []map[string]float64{nil, {"wire": 1}, {"area": 1}} {
				req := map[string]any{"spec": spec, "queries": queries}
				if w != nil {
					req["weights"] = w
				}
				code, body := postJSON(t, url+"/v1/instantiate", req, nil)
				if code != http.StatusOK {
					t.Fatalf("instantiate: %d %s", code, body)
				}
				out = append(out, body)
			}
		}
		return out
	}
	want := answers(ts1.URL)
	for i, body := range want {
		if !strings.Contains(body, `"from_backup":false}`) || !strings.Contains(body, `"error":`) {
			t.Fatalf("batch %d has no stored answer or no out-of-bounds error: %s", i, body)
		}
	}

	pfNorm := pf
	if err := pfNorm.normalize(); err != nil {
		t.Fatal(err)
	}
	restart := func(legacy string) {
		t.Helper()
		s, ts := newTestServer(t, Config{Store: openStore(t, dir), Logf: t.Logf})
		if _, err := s.Warm(-1); err != nil {
			t.Fatal(err)
		}
		if _, ok := s.lookup(pfNorm.key()); !ok {
			t.Fatalf("%s: Warm did not cache the portfolio", legacy)
		}
		for i, got := range answers(ts.URL) {
			if got != want[i] {
				t.Errorf("%s: batch %d differs after the restart:\n got  %s\n want %s", legacy, i, got, want[i])
			}
		}
		if runs := s.genRuns.Load(); runs != 0 {
			t.Errorf("%s: restarted server ran %d generations, want 0", legacy, runs)
		}
	}
	restart("v2 files")

	// Leave every structure file as an earlier version wrote it: legacy v3.
	st := openStore(t, dir)
	keys := []string{specKey(t, single)}
	for i := 0; i < pfNorm.Portfolio; i++ {
		keys = append(keys, pfNorm.memberSpec(i).key())
	}
	for i, key := range keys {
		meta, ok := st.Stat(key)
		if !ok {
			t.Fatalf("%s was not persisted", key)
		}
		var v3 bytes.Buffer
		if err := structures[i].SaveBinaryCompiled(&v3); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, meta.File), v3.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	restart("v3 files")
}
