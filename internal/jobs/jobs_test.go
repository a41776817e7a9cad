package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// newTestScheduler starts a scheduler closed at test end.
func newTestScheduler(t *testing.T, cfg Config) *Scheduler {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// blockingRun returns a run function that signals entry, then blocks until
// its context ends or release closes.
func blockingRun(entered chan<- struct{}, release <-chan struct{}) RunFunc {
	return func(ctx context.Context, report func(Progress)) error {
		if entered != nil {
			entered <- struct{}{}
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-release:
			return nil
		}
	}
}

func TestSubmitRunsToDone(t *testing.T) {
	s := newTestScheduler(t, Config{Workers: 1})
	var ran atomic.Int32
	snap, err := s.Submit(Request{
		Key:  "k1",
		Spec: json.RawMessage(`{"circuit":"circ01"}`),
		Run: func(ctx context.Context, report func(Progress)) error {
			ran.Add(1)
			report(Progress{Iteration: 7, Placements: 3, Coverage: 0.25})
			return nil
		},
	})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if snap.ID == "" || snap.State != StateQueued && snap.State != StateRunning {
		t.Fatalf("bad submit snapshot: %+v", snap)
	}
	final, err := s.Wait(context.Background(), snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone || ran.Load() != 1 {
		t.Fatalf("final state %s after %d runs, want done after 1", final.State, ran.Load())
	}
	if final.Progress.Iteration != 7 || final.Progress.Placements != 3 {
		t.Errorf("progress not retained: %+v", final.Progress)
	}
	if final.Started.IsZero() || final.Finished.IsZero() {
		t.Errorf("timestamps missing: %+v", final)
	}
}

func TestPriorityOrderAndFIFO(t *testing.T) {
	s := newTestScheduler(t, Config{Workers: 1})
	entered := make(chan struct{})
	release := make(chan struct{})
	first, err := s.Submit(Request{Key: "hold", Run: blockingRun(entered, release)})
	if err != nil {
		t.Fatal(err)
	}
	<-entered // worker busy; everything below queues

	var mu sync.Mutex
	var order []string
	mkRun := func(name string) RunFunc {
		return func(context.Context, func(Progress)) error {
			mu.Lock()
			order = append(order, name)
			mu.Unlock()
			return nil
		}
	}
	var last Snapshot
	for _, sub := range []struct {
		name string
		prio int
	}{
		{"low-a", 0}, {"low-b", 0}, {"high-a", 5}, {"high-b", 5},
	} {
		snap, err := s.Submit(Request{Key: sub.name, Priority: sub.prio, Run: mkRun(sub.name)})
		if err != nil {
			t.Fatal(err)
		}
		if sub.name == "low-b" {
			last = snap
		}
	}
	close(release)
	if _, err := s.Wait(context.Background(), first.ID); err != nil {
		t.Fatal(err)
	}
	// Drain: wait for the lowest-priority latest submission, which the
	// heap order guarantees is scheduled last.
	deadline := time.After(30 * time.Second)
	for {
		snap, ok := s.Get(last.ID)
		if !ok {
			t.Fatal("job lost")
		}
		if snap.State.Terminal() {
			break
		}
		select {
		case <-deadline:
			t.Fatal("queue never drained")
		case <-time.After(5 * time.Millisecond):
		}
	}
	mu.Lock()
	defer mu.Unlock()
	want := []string{"high-a", "high-b", "low-a", "low-b"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Errorf("execution order %v, want %v (priority first, FIFO within)", order, want)
	}
}

func TestCancelQueuedNeverRuns(t *testing.T) {
	s := newTestScheduler(t, Config{Workers: 1})
	entered := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	if _, err := s.Submit(Request{Key: "hold", Run: blockingRun(entered, release)}); err != nil {
		t.Fatal(err)
	}
	<-entered

	var abandoned atomic.Int32
	snap, err := s.Submit(Request{
		Key: "victim",
		Run: func(context.Context, func(Progress)) error {
			t.Error("cancelled queued job ran")
			return nil
		},
		Abandon: func(err error) {
			if !errors.Is(err, ErrCancelled) {
				t.Errorf("abandon error = %v, want ErrCancelled", err)
			}
			abandoned.Add(1)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Cancel(snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateCancelled {
		t.Fatalf("state after cancel = %s, want cancelled", got.State)
	}
	if abandoned.Load() != 1 {
		t.Errorf("Abandon called %d times, want 1", abandoned.Load())
	}
	// Wait returns immediately for a cancelled-while-queued job.
	final, err := s.Wait(context.Background(), snap.ID)
	if err != nil || final.State != StateCancelled {
		t.Fatalf("Wait: %+v, %v", final, err)
	}
	// Cancelling again is a no-op.
	if again, err := s.Cancel(snap.ID); err != nil || again.State != StateCancelled {
		t.Fatalf("second cancel: %+v, %v", again, err)
	}
}

func TestCancelRunningStopsPromptly(t *testing.T) {
	s := newTestScheduler(t, Config{Workers: 1})
	entered := make(chan struct{})
	snap, err := s.Submit(Request{Key: "r", Run: blockingRun(entered, nil)})
	if err != nil {
		t.Fatal(err)
	}
	<-entered
	if _, err := s.Cancel(snap.ID); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	final, err := s.Wait(ctx, snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateCancelled {
		t.Fatalf("state = %s, want cancelled", final.State)
	}
}

func TestCancelQueuedOnlySkipsRunning(t *testing.T) {
	s := newTestScheduler(t, Config{Workers: 1})
	entered := make(chan struct{})
	release := make(chan struct{})
	snap, err := s.Submit(Request{Key: "r", Run: blockingRun(entered, release)})
	if err != nil {
		t.Fatal(err)
	}
	<-entered
	if s.CancelQueuedSilent(snap.ID) {
		t.Error("CancelQueuedSilent dropped a running job")
	}
	close(release)
	final, err := s.Wait(context.Background(), snap.ID)
	if err != nil || final.State != StateDone {
		t.Fatalf("running job not left to finish: %+v, %v", final, err)
	}
}

func TestFailedRunMarksFailed(t *testing.T) {
	s := newTestScheduler(t, Config{Workers: 1})
	boom := errors.New("boom")
	snap, err := s.Submit(Request{Key: "f", Run: func(context.Context, func(Progress)) error { return boom }})
	if err != nil {
		t.Fatal(err)
	}
	final, err := s.Wait(context.Background(), snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateFailed || final.Error != "boom" {
		t.Fatalf("final = %+v, want failed/boom", final)
	}

	// A panicking run fails its job without killing the worker.
	snap, err = s.Submit(Request{Key: "p", Run: func(context.Context, func(Progress)) error { panic("eek") }})
	if err != nil {
		t.Fatal(err)
	}
	if final, err = s.Wait(context.Background(), snap.ID); err != nil || final.State != StateFailed {
		t.Fatalf("panic job: %+v, %v", final, err)
	}
	// Worker still alive: another job completes.
	snap, err = s.Submit(Request{Key: "after", Run: func(context.Context, func(Progress)) error { return nil }})
	if err != nil {
		t.Fatal(err)
	}
	if final, err = s.Wait(context.Background(), snap.ID); err != nil || final.State != StateDone {
		t.Fatalf("post-panic job: %+v, %v", final, err)
	}
}

func TestRecordDoneIdempotent(t *testing.T) {
	s := newTestScheduler(t, Config{Workers: 1})
	a, err := s.RecordDone("k", json.RawMessage(`{"circuit":"circ01"}`), Progress{Placements: 9})
	if err != nil {
		t.Fatal(err)
	}
	if a.State != StateDone || a.Progress.Placements != 9 {
		t.Fatalf("RecordDone snapshot: %+v", a)
	}
	b, err := s.RecordDone("k", nil, Progress{})
	if err != nil {
		t.Fatal(err)
	}
	if b.ID != a.ID {
		t.Errorf("second RecordDone minted a new job: %s vs %s", b.ID, a.ID)
	}
}

func TestCloseCancelsRunningAndAbandonsQueued(t *testing.T) {
	s, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	entered := make(chan struct{})
	running, err := s.Submit(Request{Key: "running", Run: blockingRun(entered, nil)})
	if err != nil {
		t.Fatal(err)
	}
	<-entered
	var abandoned atomic.Int32
	queued, err := s.Submit(Request{
		Key:     "queued",
		Run:     func(context.Context, func(Progress)) error { t.Error("queued job ran during close"); return nil },
		Abandon: func(error) { abandoned.Add(1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { s.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Close did not return (running job not cancelled?)")
	}
	if snap, _ := s.Get(running.ID); snap.State != StateCancelled {
		t.Errorf("running job state after close = %s, want cancelled", snap.State)
	}
	if snap, _ := s.Get(queued.ID); snap.State != StateCancelled {
		t.Errorf("queued job state after close = %s, want cancelled", snap.State)
	}
	if abandoned.Load() != 1 {
		t.Errorf("Abandon called %d times, want 1", abandoned.Load())
	}
	if _, err := s.Submit(Request{Key: "late", Run: func(context.Context, func(Progress)) error { return nil }}); !errors.Is(err, ErrClosed) {
		t.Errorf("Submit after close: %v, want ErrClosed", err)
	}
}

func TestPersistenceAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	spec := json.RawMessage(`{"circuit":"circ01","seed":1}`)

	s1, err := New(Config{Workers: 1, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	doneJob, err := s1.Submit(Request{Key: "done-key", Spec: spec,
		Run: func(ctx context.Context, report func(Progress)) error {
			report(Progress{Placements: 12, Coverage: 0.5})
			return nil
		}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Wait(context.Background(), doneJob.ID); err != nil {
		t.Fatal(err)
	}
	// Leave one job running and one queued at "crash" time.
	entered := make(chan struct{})
	runningJob, err := s1.Submit(Request{Key: "running-key", Spec: spec, Run: blockingRun(entered, nil)})
	if err != nil {
		t.Fatal(err)
	}
	<-entered
	queuedJob, err := s1.Submit(Request{Key: "queued-key", Spec: spec, Run: blockingRun(nil, nil)})
	if err != nil {
		t.Fatal(err)
	}
	s1.Close() // persists queued/running as non-terminal, crash-like

	s2, err := New(Config{Workers: 1, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	snap, ok := s2.Get(doneJob.ID)
	if !ok || snap.State != StateDone {
		t.Fatalf("completed job not restored: %+v (ok=%v)", snap, ok)
	}
	if snap.Progress.Placements != 12 {
		t.Errorf("completed job progress lost: %+v", snap.Progress)
	}
	interrupted := s2.Interrupted()
	if len(interrupted) != 2 {
		t.Fatalf("interrupted = %d jobs, want 2 (queued + running)", len(interrupted))
	}
	for _, id := range []string{runningJob.ID, queuedJob.ID} {
		snap, ok := s2.Get(id)
		if !ok || snap.State != StateFailed {
			t.Errorf("interrupted job %s: %+v (ok=%v), want failed", id, snap, ok)
		}
		if string(snap.Spec) == "" {
			t.Errorf("interrupted job %s lost its spec", id)
		}
	}
	// New submissions must not collide with restored IDs.
	fresh, err := s2.Submit(Request{Key: "fresh", Run: func(context.Context, func(Progress)) error { return nil }})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{doneJob.ID, runningJob.ID, queuedJob.ID} {
		if fresh.ID == id {
			t.Fatalf("fresh job reused ID %s", id)
		}
	}
}

// TestCorruptStateFileQuarantined: a state file that does not parse is
// moved aside with its bytes kept, New starts with an empty history, and
// the next transition writes a state file that a second New loads. A
// state file that cannot be read still fails New.
func TestCorruptStateFileQuarantined(t *testing.T) {
	dir := t.TempDir()
	garbage := []byte("{nope")
	if err := os.WriteFile(filepath.Join(dir, stateFileName), garbage, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Workers: 1, Dir: dir})
	if err != nil {
		t.Fatalf("New with a corrupt state file: %v", err)
	}
	q := s.Quarantined()
	if !strings.HasPrefix(q, stateFileName+".corrupt-") || strings.ContainsAny(q, "/\\") {
		t.Fatalf("Quarantined() = %q, want a file name %s.corrupt-<unix ns>", q, stateFileName)
	}
	if kept, err := os.ReadFile(filepath.Join(dir, q)); err != nil || string(kept) != string(garbage) {
		t.Fatalf("quarantined file holds %q (err %v), want the corrupt state file's bytes", kept, err)
	}
	if n, in := len(s.List()), len(s.Interrupted()); n != 0 || in != 0 {
		t.Fatalf("quarantined scheduler holds %d jobs, %d interrupted; want none", n, in)
	}

	snap, err := s.Submit(Request{Key: "k", Run: func(context.Context, func(Progress)) error { return nil }})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Wait(context.Background(), snap.ID); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2, err := New(Config{Workers: 1, Dir: dir})
	if err != nil {
		t.Fatalf("New after the quarantine: %v", err)
	}
	defer s2.Close()
	if q := s2.Quarantined(); q != "" {
		t.Errorf("second New quarantined %q; the rewritten state file should parse", q)
	}
	if got, ok := s2.Get(snap.ID); !ok || got.State != StateDone {
		t.Errorf("job %s after reload: %+v (ok=%v), want done", snap.ID, got, ok)
	}

	unreadable := t.TempDir()
	if err := os.Mkdir(filepath.Join(unreadable, stateFileName), 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Dir: unreadable}); err == nil {
		t.Error("a state file that cannot be read was accepted")
	}
}

func TestPruneKeepsRecentTerminal(t *testing.T) {
	s := newTestScheduler(t, Config{Workers: 1, KeepFinished: 3})
	var ids []string
	for i := 0; i < 6; i++ {
		snap, err := s.Submit(Request{
			Key: fmt.Sprintf("k%d", i),
			Run: func(context.Context, func(Progress)) error { return nil },
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Wait(context.Background(), snap.ID); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, snap.ID)
	}
	if got := len(s.List()); got != 3 {
		t.Fatalf("retained %d jobs, want 3", got)
	}
	if _, ok := s.Get(ids[0]); ok {
		t.Error("oldest job survived pruning")
	}
	if _, ok := s.Get(ids[len(ids)-1]); !ok {
		t.Error("newest job was pruned")
	}
}

// TestConcurrentSubmitCancelList hammers the scheduler from many
// goroutines; run under -race this is the package's memory-safety gate.
func TestConcurrentSubmitCancelList(t *testing.T) {
	s := newTestScheduler(t, Config{Workers: 4})
	var wg sync.WaitGroup
	// A cancelled job that was already running stays Running until its
	// worker returns, so the final check first waits for every job this
	// test cancelled.
	var cancelledMu sync.Mutex
	var cancelled []string
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				snap, err := s.Submit(Request{
					Key: fmt.Sprintf("k-%d-%d", g, i),
					Run: func(ctx context.Context, report func(Progress)) error {
						report(Progress{Iteration: i})
						return nil
					},
				})
				if err != nil {
					t.Error(err)
					return
				}
				if i%3 == 0 {
					s.Cancel(snap.ID)
					cancelledMu.Lock()
					cancelled = append(cancelled, snap.ID)
					cancelledMu.Unlock()
				} else if _, err := s.Wait(context.Background(), snap.ID); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				s.List()
				s.Stats()
			}
		}()
	}
	wg.Wait()
	for _, id := range cancelled {
		if _, err := s.Wait(context.Background(), id); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Queued != 0 || st.Running != 0 {
		t.Errorf("work left after drain: %+v", st)
	}
}

// TestCancelQueuedSilentSkipsAbandon: the silent variant drops the job
// without running submitter callbacks (the caller notifies its waiters).
func TestCancelQueuedSilentSkipsAbandon(t *testing.T) {
	s := newTestScheduler(t, Config{Workers: 1})
	entered := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	if _, err := s.Submit(Request{Key: "hold", Run: blockingRun(entered, release)}); err != nil {
		t.Fatal(err)
	}
	<-entered
	snap, err := s.Submit(Request{
		Key:     "victim",
		Run:     func(context.Context, func(Progress)) error { t.Error("silently cancelled job ran"); return nil },
		Done:    func(Snapshot) { t.Error("Done fired for a job that never ran") },
		Abandon: func(error) { t.Error("Abandon fired on the silent path") },
	})
	if err != nil {
		t.Fatal(err)
	}
	if !s.CancelQueuedSilent(snap.ID) {
		t.Fatal("silent cancel of a queued job failed")
	}
	if got, _ := s.Get(snap.ID); got.State != StateCancelled {
		t.Fatalf("state = %s, want cancelled", got.State)
	}
	// Running jobs are not silently droppable either.
	if s.CancelQueuedSilent("job-000001") {
		t.Error("silent cancel dropped a running job")
	}
}
