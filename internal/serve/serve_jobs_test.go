package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"mps/internal/jobs"
)

// slowSpec is a generation big enough (seconds-scale) to be observed
// running and cancelled mid-flight.
func slowSpec(seed int64) GenerateSpec {
	return GenerateSpec{Circuit: "circ01", Seed: seed, Iterations: 5000, BDIOSteps: 5000}
}

// jobView decodes the /v1/jobs JSON wire shape.
type jobView struct {
	ID       string          `json:"id"`
	Key      string          `json:"key"`
	State    string          `json:"state"`
	Error    string          `json:"error"`
	Cached   bool            `json:"cached"`
	Spec     json.RawMessage `json:"spec"`
	Progress struct {
		Chain      int     `json:"chain"`
		Iteration  int     `json:"iteration"`
		Placements int     `json:"placements"`
		Coverage   float64 `json:"coverage"`
	} `json:"progress"`
}

func getJob(t *testing.T, base, id string) jobView {
	t.Helper()
	var v jobView
	if code := getJSON(t, base+"/v1/jobs/"+id, &v); code != http.StatusOK {
		t.Fatalf("GET job %s: %d", id, code)
	}
	return v
}

// waitJobState polls until the job reaches want (or any terminal state).
func waitJobState(t *testing.T, base, id, want string) jobView {
	t.Helper()
	deadline := time.After(60 * time.Second)
	for {
		v := getJob(t, base, id)
		if v.State == want {
			return v
		}
		if v.State == string(jobs.StateDone) || v.State == string(jobs.StateFailed) ||
			v.State == string(jobs.StateCancelled) {
			t.Fatalf("job %s reached %s (%s), want %s", id, v.State, v.Error, want)
		}
		select {
		case <-deadline:
			t.Fatalf("job %s stuck in %s, want %s", id, v.State, want)
		case <-time.After(5 * time.Millisecond):
		}
	}
}

func doJSON(t *testing.T, method, url string, body any, out any) (int, string) {
	t.Helper()
	var reqBody io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		reqBody = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(method, url, reqBody)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode < 300 {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("decode %s %s: %v\nbody: %s", method, url, err, raw)
		}
	}
	return resp.StatusCode, string(raw)
}

// TestJobsAsyncLifecycle is the acceptance path: POST /v1/jobs returns a
// job id immediately, GET /v1/jobs/{id} shows advancing progress while
// the annealers run, and the finished job's structure serves from cache.
func TestJobsAsyncLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	spec := GenerateSpec{Circuit: "circ01", Seed: 41, Iterations: 2500, BDIOSteps: 2500}

	start := time.Now()
	var submitted jobView
	code, body := postJSON(t, ts.URL+"/v1/jobs", jobSubmitRequest{Spec: spec}, &submitted)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, body)
	}
	if took := time.Since(start); took > 10*time.Second {
		t.Errorf("submit took %s, want immediate return", took)
	}
	if submitted.ID == "" || submitted.Key == "" {
		t.Fatalf("submit response missing id/key: %s", body)
	}
	if submitted.State != string(jobs.StateQueued) && submitted.State != string(jobs.StateRunning) {
		t.Fatalf("fresh job state %s, want queued or running", submitted.State)
	}

	// A second submission of the same spec lands on the same job.
	var dup jobView
	if code, body := postJSON(t, ts.URL+"/v1/jobs", jobSubmitRequest{Spec: spec}, &dup); code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("dup submit: %d %s", code, body)
	}
	if dup.ID != submitted.ID {
		t.Errorf("duplicate spec got job %s, want dedup onto %s", dup.ID, submitted.ID)
	}

	// The iteration counter must advance monotonically while running.
	// (Placement count and coverage can dip when overlap resolution trims
	// or removes stored boxes, so they are observed, not ordered.)
	waitJobState(t, ts.URL, submitted.ID, string(jobs.StateRunning))
	lastIter, advanced := -1, 0
	deadline := time.After(120 * time.Second)
	for {
		v := getJob(t, ts.URL, submitted.ID)
		if v.State == string(jobs.StateDone) {
			break
		}
		if v.State != string(jobs.StateRunning) {
			t.Fatalf("job fell into %s (%s)", v.State, v.Error)
		}
		if v.Progress.Iteration < lastIter {
			t.Fatalf("progress went backwards: %+v after iter %d", v.Progress, lastIter)
		}
		if v.Progress.Iteration > lastIter {
			advanced++
		}
		lastIter = v.Progress.Iteration
		select {
		case <-deadline:
			t.Fatal("job never finished")
		case <-time.After(20 * time.Millisecond):
		}
	}
	if advanced < 2 {
		t.Errorf("saw %d advancing progress snapshots, want several", advanced)
	}

	final := getJob(t, ts.URL, submitted.ID)
	if !final.Cached || final.Progress.Placements == 0 {
		t.Errorf("finished job not cached or empty: %+v", final)
	}
	// The synchronous path now hits the cache.
	var info StructureInfo
	if code, body := postJSON(t, ts.URL+"/v1/structures", spec, &info); code != http.StatusOK || !info.Cached {
		t.Fatalf("sync fetch after job: %d %s cached=%v", code, body, info.Cached)
	}
	// And the job listing shows it.
	var listing struct {
		Jobs []jobView `json:"jobs"`
	}
	if code := getJSON(t, ts.URL+"/v1/jobs", &listing); code != http.StatusOK {
		t.Fatalf("list jobs: %d", code)
	}
	found := false
	for _, j := range listing.Jobs {
		if j.ID == submitted.ID {
			found = j.State == string(jobs.StateDone)
		}
	}
	if !found {
		t.Errorf("finished job missing from listing: %+v", listing.Jobs)
	}
}

// TestJobsCancelRunning: DELETE on a running job stops the annealers
// promptly and leaves no partial structure in cache or store.
func TestJobsCancelRunning(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Config{Store: openStore(t, dir), Logf: t.Logf})
	t.Cleanup(s.Flush) // the fresh-spec generation at the end persists in the background
	spec := slowSpec(42)

	var submitted jobView
	if code, body := postJSON(t, ts.URL+"/v1/jobs", jobSubmitRequest{Spec: spec}, &submitted); code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, body)
	}
	v := waitJobState(t, ts.URL, submitted.ID, string(jobs.StateRunning))

	start := time.Now()
	var cancelled jobView
	code, body := doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/"+submitted.ID, nil, &cancelled)
	if code != http.StatusOK {
		t.Fatalf("cancel: %d %s", code, body)
	}
	if cancelled.State != string(jobs.StateCancelled) {
		t.Fatalf("state after cancel = %s (%s), want cancelled", cancelled.State, cancelled.Error)
	}
	if took := time.Since(start); took > 10*time.Second {
		t.Errorf("cancellation took %s, want prompt stop", took)
	}
	_ = v

	// No partial structure anywhere: not in the LRU...
	key := cancelled.Key
	if _, ok := s.lookup(key); ok {
		t.Error("cancelled generation left a structure in the cache")
	}
	// ...not in the disk store...
	s.Flush()
	if _, ok := s.cfg.Store.Stat(key); ok {
		t.Error("cancelled generation left a structure in the store")
	}
	// ...and the listing agrees.
	var ls struct {
		Structures []StructureInfo `json:"structures"`
	}
	if code := getJSON(t, ts.URL+"/v1/structures", &ls); code != http.StatusOK {
		t.Fatalf("list: %d", code)
	}
	if len(ls.Structures) != 0 {
		t.Errorf("cache listing after cancel: %+v", ls.Structures)
	}
	if runs := s.genRuns.Load(); runs != 1 {
		t.Errorf("genRuns = %d, want 1 (the cancelled run)", runs)
	}
	// The key is free again: a fresh (quick) spec for it regenerates.
	if _, err := s.Generate(testSpec(42)); err != nil {
		t.Fatalf("generation after cancel: %v", err)
	}
}

// oneWorker returns a memory-only scheduler with a single worker, so a
// test can keep the pool busy and hold a second job in the queue.
func oneWorker(t *testing.T) *jobs.Scheduler {
	t.Helper()
	sched, err := jobs.New(jobs.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return sched
}

// TestJobsCancelQueuedNeverRuns: with one worker busy, a queued job that
// is cancelled must never start annealing.
func TestJobsCancelQueuedNeverRuns(t *testing.T) {
	s, ts := newTestServer(t, Config{Jobs: oneWorker(t)})

	var running jobView
	if code, body := postJSON(t, ts.URL+"/v1/jobs", jobSubmitRequest{Spec: slowSpec(50)}, &running); code != http.StatusAccepted {
		t.Fatalf("submit hog: %d %s", code, body)
	}
	waitJobState(t, ts.URL, running.ID, string(jobs.StateRunning))
	// The job turns running before its worker reaches the generation
	// call that counts the run; wait for the count so the checks below
	// see exactly the hog's run.
	for deadline := time.Now().Add(60 * time.Second); s.genRuns.Load() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the hog job is running but never started generating")
		}
	}

	var queued jobView
	if code, body := postJSON(t, ts.URL+"/v1/jobs", jobSubmitRequest{Spec: slowSpec(51)}, &queued); code != http.StatusAccepted {
		t.Fatalf("submit victim: %d %s", code, body)
	}
	if queued.State != string(jobs.StateQueued) {
		t.Fatalf("victim state %s, want queued (single worker is busy)", queued.State)
	}

	var cancelled jobView
	if code, body := doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/"+queued.ID, nil, &cancelled); code != http.StatusOK {
		t.Fatalf("cancel queued: %d %s", code, body)
	}
	if cancelled.State != string(jobs.StateCancelled) {
		t.Fatalf("queued job state after cancel = %s, want cancelled", cancelled.State)
	}
	if runs := s.genRuns.Load(); runs != 1 {
		t.Errorf("genRuns = %d, want 1 — the cancelled queued job must never run", runs)
	}
	// Cancel the hog too and confirm the victim still never ran.
	if _, err := s.Jobs().Cancel(running.ID); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := s.Jobs().Wait(ctx, running.ID); err != nil {
		t.Fatal(err)
	}
	if runs := s.genRuns.Load(); runs != 1 {
		t.Errorf("genRuns = %d after drain, want 1", runs)
	}
}

// TestJobsSoleWaiterDisconnectDropsQueued preserves the pre-scheduler
// semantics of the synchronous path: a client that alone asked for a
// queued generation may abandon it; the entry is dropped so a later
// request retries, and the worker never runs the job.
func TestJobsSoleWaiterDisconnectDropsQueued(t *testing.T) {
	s := New(Config{Jobs: oneWorker(t)})
	t.Cleanup(s.Close)

	// Occupy the single worker with a job that is not a generation, so
	// genRuns isolates the victim.
	entered := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	if _, err := s.Jobs().Submit(jobs.Request{Key: "hog", Run: func(ctx context.Context, _ func(jobs.Progress)) error {
		close(entered)
		select {
		case <-release:
		case <-ctx.Done():
		}
		return nil
	}}); err != nil {
		t.Fatal(err)
	}
	<-entered

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	spec := testSpec(60)
	if err := spec.normalize(); err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		_, err := s.generate(ctx, spec, spec.key())
		errc <- err
	}()
	// Wait until the victim's job is queued (its entry has a job id).
	norm := testSpec(60)
	if err := norm.normalize(); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(30 * time.Second)
	for {
		found := false
		for _, snap := range s.Jobs().List() {
			if snap.Key == norm.key() && snap.State == jobs.StateQueued {
				found = true
			}
		}
		if found {
			break
		}
		select {
		case <-deadline:
			t.Fatal("victim job never queued")
		case <-time.After(2 * time.Millisecond):
		}
	}
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("generate returned %v, want context.Canceled in the chain", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("generate did not observe the disconnect")
	}
	// The entry was dropped: the key is absent until someone retries.
	if _, ok := s.lookup(norm.key()); ok {
		t.Error("abandoned entry still cached")
	}
	if runs := s.genRuns.Load(); runs != 0 {
		t.Errorf("genRuns = %d, want 0 (abandoned while queued)", runs)
	}
}

// TestJobsRestartHistory: with -jobs-dir and -store-dir, a restarted
// daemon lists previously completed jobs and serves their structures
// without regeneration.
func TestJobsRestartHistory(t *testing.T) {
	storeDir := t.TempDir()
	jobsDir := t.TempDir()
	spec := testSpec(70)

	sched1, err := jobs.New(jobs.Config{Workers: 2, Dir: jobsDir})
	if err != nil {
		t.Fatal(err)
	}
	s1, ts1 := newTestServer(t, Config{Store: openStore(t, storeDir), Jobs: sched1, Logf: t.Logf})
	var submitted jobView
	if code, body := postJSON(t, ts1.URL+"/v1/jobs", jobSubmitRequest{Spec: spec}, &submitted); code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("submit: %d %s", code, body)
	}
	ctx, cancelWait := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancelWait()
	final, err := s1.Jobs().Wait(ctx, submitted.ID)
	if err != nil || final.State != jobs.StateDone {
		t.Fatalf("job: %+v, %v", final, err)
	}
	s1.Flush()
	s1.Close()

	sched2, err := jobs.New(jobs.Config{Workers: 2, Dir: jobsDir})
	if err != nil {
		t.Fatal(err)
	}
	s2, ts2 := newTestServer(t, Config{Store: openStore(t, storeDir), Jobs: sched2, Logf: t.Logf})
	restored := getJob(t, ts2.URL, submitted.ID)
	if restored.State != string(jobs.StateDone) {
		t.Fatalf("restored job state %s, want done", restored.State)
	}
	// Resubmitting the same spec lands on the done record (store hit).
	var again jobView
	if code, body := postJSON(t, ts2.URL+"/v1/jobs", jobSubmitRequest{Spec: spec}, &again); code != http.StatusOK {
		t.Fatalf("resubmit after restart: %d %s", code, body)
	}
	if again.State != string(jobs.StateDone) {
		t.Fatalf("resubmitted job state %s, want done (from store)", again.State)
	}
	// And the structure serves without a single annealing run.
	var out struct {
		Served int `json:"served"`
	}
	code, body := postJSON(t, ts2.URL+"/v1/instantiate", map[string]any{
		"spec":    spec,
		"queries": []map[string][]int{testQuery(t, 0)},
	}, &out)
	if code != http.StatusOK || out.Served != 1 {
		t.Fatalf("instantiate after restart: %d %s", code, body)
	}
	if runs := s2.genRuns.Load(); runs != 0 {
		t.Errorf("restarted server ran %d generations, want 0", runs)
	}
}

// TestJobsResumeInterrupted: a job that was mid-flight when the daemon
// died is reported as interrupted and resubmitted by ResumeInterrupted.
func TestJobsResumeInterrupted(t *testing.T) {
	storeDir := t.TempDir()
	jobsDir := t.TempDir()
	spec := slowSpec(80)

	sched1, err := jobs.New(jobs.Config{Workers: 1, Dir: jobsDir})
	if err != nil {
		t.Fatal(err)
	}
	s1, ts1 := newTestServer(t, Config{Store: openStore(t, storeDir), Jobs: sched1, Logf: t.Logf})
	var submitted jobView
	if code, body := postJSON(t, ts1.URL+"/v1/jobs", jobSubmitRequest{Spec: spec}, &submitted); code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, body)
	}
	waitJobState(t, ts1.URL, submitted.ID, string(jobs.StateRunning))
	s1.Close() // cancels the run; the state file records it as still running

	sched2, err := jobs.New(jobs.Config{Workers: 1, Dir: jobsDir})
	if err != nil {
		t.Fatal(err)
	}
	s2, _ := newTestServer(t, Config{Store: openStore(t, storeDir), Jobs: sched2, Logf: t.Logf})
	old, ok := s2.Jobs().Get(submitted.ID)
	if !ok || old.State != jobs.StateFailed {
		t.Fatalf("interrupted job: %+v (ok=%v), want failed", old, ok)
	}
	if n := s2.ResumeInterrupted(); n != 1 {
		t.Fatalf("resumed %d jobs, want 1", n)
	}
	// The resubmitted job regenerates (nothing reached the store). Find
	// it by key and let it finish or just verify it is active.
	norm := spec
	if err := norm.normalize(); err != nil {
		t.Fatal(err)
	}
	active := false
	for _, snap := range s2.Jobs().List() {
		if snap.Key == norm.key() && !snap.State.Terminal() {
			active = true
		}
	}
	if !active {
		t.Error("interrupted job was not resubmitted")
	}
}

// TestJobsBadRequests sweeps validation on the jobs API.
func TestJobsBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	if code, _ := postJSON(t, ts.URL+"/v1/jobs", jobSubmitRequest{Spec: GenerateSpec{Circuit: "bogus"}}, nil); code != http.StatusBadRequest {
		t.Errorf("unknown circuit: %d, want 400", code)
	}
	if code, _ := postJSON(t, ts.URL+"/v1/jobs",
		jobSubmitRequest{Spec: GenerateSpec{Circuit: "circ01", Iterations: 1 << 30}}, nil); code != http.StatusBadRequest {
		t.Errorf("over-budget: %d, want 400", code)
	}
	if code, msg := postRaw(t, ts.URL+"/v1/jobs", []byte(`{"spec":{"circuit":"circ01"}}]`)); code != http.StatusBadRequest ||
		!strings.Contains(msg, "after the JSON value") {
		t.Errorf("trailing bytes: %d (%s), want 400", code, msg)
	}
	if code := getJSON(t, ts.URL+"/v1/jobs/nope", nil); code != http.StatusNotFound {
		t.Errorf("unknown job get: %d, want 404", code)
	}
	if code, _ := doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/nope", nil, nil); code != http.StatusNotFound {
		t.Errorf("unknown job delete: %d, want 404", code)
	}
	req, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/jobs", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("PUT /v1/jobs: %d, want 405", resp.StatusCode)
	}
}
