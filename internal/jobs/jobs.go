// Package jobs implements the asynchronous generation job scheduler that
// turns structure generation — the minutes-to-hours offline step of the
// paper's Fig. 1a — into a managed background workload instead of a
// request-scoped side effect.
//
// A Scheduler owns a priority FIFO queue drained by a bounded worker pool.
// Each job carries the canonical spec key the serving layer's LRU and disk
// store already use. The scheduler runs every submission it accepts;
// deduplicating generation is the submitter's job (the serving layer's
// cache entry submits at most once per key). Jobs move through a small
// lifecycle:
//
//	queued → running → done | failed | cancelled
//
// with live progress snapshots (chain, iteration, placement count,
// coverage estimate) fed by the generation stack's Progress hook, and
// cooperative cancellation through the context plumbed down to the nested
// annealers: cancelling a queued job prevents it from ever running, and
// cancelling a running job stops annealing within one inner-SA proposal.
//
// With Config.Dir set, job state is persisted crash-safely (one atomic
// jobs.json rewrite per transition, via store.WriteFileAtomic), so a
// restarted daemon still reports its history: completed jobs list with
// their final progress, and jobs that were queued or running when the
// process died surface through Interrupted for the caller to resubmit. A
// state file that does not parse is renamed aside with its bytes kept
// (see Quarantined), and the scheduler starts with an empty history and a
// sequence seeded from the clock, so no ID the lost history handed out is
// issued again.
package jobs

import (
	"container/heap"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"mps/internal/obs"
	"mps/internal/store"
)

// State is a job lifecycle phase.
type State string

const (
	// StateQueued: accepted, waiting for a worker.
	StateQueued State = "queued"
	// StateRunning: a worker is generating; Progress advances.
	StateRunning State = "running"
	// StateDone: the run function returned nil.
	StateDone State = "done"
	// StateFailed: the run function returned a non-cancellation error (or
	// the job was found queued/running in a loaded state file — see
	// Interrupted).
	StateFailed State = "failed"
	// StateCancelled: cancelled while queued (never ran) or while running
	// (the run function observed its context end).
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Progress is a live generation snapshot, updated by the job's run
// function through the report callback.
type Progress struct {
	// Chain and Iteration locate the reporting explorer chain in its
	// outer-SA schedule.
	Chain     int `json:"chain"`
	Iteration int `json:"iteration"`
	// Placements is the structure's stored-placement count so far.
	Placements int `json:"placements"`
	// Coverage is the structure's covered volume fraction so far (an
	// estimate while running: overlap resolution may later trim it).
	Coverage float64 `json:"coverage"`
	// Updated is when this snapshot was reported.
	Updated time.Time `json:"updated,omitzero"`
}

// Snapshot is the externally visible record of one job. It is a value
// copy: readers never share memory with the scheduler.
type Snapshot struct {
	// ID is the scheduler-assigned job identifier ("job-000001", ...).
	ID string `json:"id"`
	// Key is the canonical spec key (the same string the serve LRU and
	// disk store use).
	Key string `json:"key"`
	// Spec is the submitter's opaque job description (serve stores the
	// normalized GenerateSpec as JSON) so listings and restarts can show
	// or resubmit what was asked for.
	Spec json.RawMessage `json:"spec,omitempty"`
	// Priority orders the queue: higher runs first, FIFO within a level.
	Priority int `json:"priority,omitempty"`
	// Seq is the submission sequence number (FIFO tiebreak, stable IDs).
	Seq int64 `json:"seq"`

	State    State    `json:"state"`
	Progress Progress `json:"progress"`
	// Error holds the failure or cancellation reason for terminal states.
	Error string `json:"error,omitempty"`

	Created  time.Time `json:"created"`
	Started  time.Time `json:"started,omitzero"`
	Finished time.Time `json:"finished,omitzero"`
}

// RunFunc performs a job's work. It must honor ctx — the generation stack
// checks it between annealing moves — and may call report (safe from any
// goroutine) to publish progress. Returning ctx's error marks the job
// cancelled; any other non-nil error marks it failed.
type RunFunc func(ctx context.Context, report func(Progress)) error

// Request describes one submission.
type Request struct {
	// Key is the canonical spec key; required. It names the job's work
	// in listings and RecordDone's history; Submit does not deduplicate
	// on it.
	Key string
	// Spec is recorded verbatim on the job (optional).
	Spec json.RawMessage
	// Priority orders the queue; higher first, FIFO within a level.
	Priority int
	// Run performs the work; required.
	Run RunFunc
	// Done, when non-nil, is called exactly once after a job that ran
	// reaches its terminal state — after the scheduler has finished its
	// own bookkeeping. Called without scheduler locks held; submitters
	// publish their results here, not inside Run.
	Done func(snap Snapshot)
	// Abandon, when non-nil, is called exactly once — instead of Run and
	// Done, and never concurrently with them — if the job is cancelled
	// while still queued via Cancel (CancelQueuedSilent skips it: there
	// the caller takes over notifying its waiters). It lets the submitter
	// release waiters that would otherwise block on a run that will never
	// happen. Called without scheduler locks held.
	Abandon func(err error)
	// Trace, when non-nil, receives a job_run span covering the Run
	// invocation, parented under the trace's root — the originating
	// request's trace accounts for queue-side anneal time. The reference
	// is dropped as soon as the job reaches a terminal state (or is
	// abandoned), so a retained trace never pins scheduler memory.
	Trace *obs.Trace
}

// Config tunes a Scheduler.
type Config struct {
	// Workers is the worker-pool size — the bound on concurrent
	// generations. Default 2.
	Workers int
	// Dir, when non-empty, enables crash-safe job-state persistence in
	// that directory (created if needed). Empty keeps state in memory.
	Dir string
	// KeepFinished bounds retained terminal job records; the oldest are
	// pruned first (active jobs are never pruned). Default 256.
	KeepFinished int
	// Logf, when non-nil, receives operational log lines (persistence
	// failures). Nil discards them.
	Logf func(format string, args ...any)
}

func (cfg Config) withDefaults() Config {
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.KeepFinished <= 0 {
		cfg.KeepFinished = 256
	}
	return cfg
}

// ErrClosed is returned by Submit and RecordDone after Close.
var ErrClosed = errors.New("jobs: scheduler closed")

// ErrNotFound is returned for unknown job IDs.
var ErrNotFound = errors.New("jobs: job not found")

// ErrCancelled is the cause recorded on jobs cancelled via Cancel or
// CancelQueuedSilent, and the error Abandon receives from Cancel and Close.
var ErrCancelled = errors.New("jobs: cancelled")

// stateFileName is the persisted queue state inside Config.Dir.
const stateFileName = "jobs.json"

// job is the scheduler's internal record.
type job struct {
	snap    Snapshot
	run     RunFunc
	onDone  func(Snapshot)
	abandon func(error)
	// trace carries the submitting request's trace so the worker can
	// record a job_run span; cleared with run at every terminal edge.
	trace *obs.Trace
	// cancel is non-nil exactly while the job runs.
	cancel context.CancelFunc
	// heapIndex is the job's position in the pending heap, -1 off-heap.
	heapIndex int
	// done closes when the job reaches a terminal state.
	done chan struct{}
}

// Scheduler is the asynchronous generation job scheduler. Safe for
// concurrent use.
type Scheduler struct {
	cfg Config

	// baseCtx parents every job context; baseCancel fires on Close so a
	// closing scheduler stops in-flight annealing cooperatively.
	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu   sync.Mutex
	cond *sync.Cond // signalled when the queue grows or the scheduler closes
	jobs map[string]*job
	// lastDone tracks the most recent successful job per key so
	// RecordDone is idempotent across cache/store hits.
	lastDone map[string]*job
	queue    jobHeap
	seq      int64
	closed   bool
	// interrupted holds jobs loaded from disk in a non-terminal state —
	// work a previous process accepted but never finished.
	interrupted []Snapshot
	// quarantined names the file New moved an unparsable state file to
	// ("" when it found none).
	quarantined string

	wg sync.WaitGroup

	// writeMu serializes state-file rewrites (see store.Dir for the same
	// pattern): the snapshot is taken after acquiring it, so the last
	// write always carries every earlier transition.
	writeMu sync.Mutex

	// tot holds the monotonic lifetime counters behind Totals.
	tot totals
}

// New starts a scheduler with cfg.Workers workers. With cfg.Dir set it
// loads the persisted state first: terminal jobs are kept for listing,
// non-terminal ones are marked failed ("interrupted by restart") and
// surfaced through Interrupted for resubmission. A state file that does
// not parse is renamed aside (see Quarantined) and the scheduler starts
// with an empty history, its job IDs seeded past the lost ones and written
// before New returns; other read errors, and a failed rename, fail New.
func New(cfg Config) (*Scheduler, error) {
	cfg = cfg.withDefaults()
	s := &Scheduler{
		cfg:      cfg,
		jobs:     map[string]*job{},
		lastDone: map[string]*job{},
	}
	s.cond = sync.NewCond(&s.mu)
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	if cfg.Dir != "" {
		if err := s.load(); err != nil {
			return nil, err
		}
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// persistedState is the jobs.json schema.
type persistedState struct {
	Version int        `json:"version"`
	Seq     int64      `json:"seq"`
	Jobs    []Snapshot `json:"jobs"`
}

// load reads Config.Dir's state file into the scheduler.
func (s *Scheduler) load() error {
	if err := os.MkdirAll(s.cfg.Dir, 0o755); err != nil {
		return fmt.Errorf("jobs: %w", err)
	}
	data, err := os.ReadFile(filepath.Join(s.cfg.Dir, stateFileName))
	if errors.Is(err, fs.ErrNotExist) {
		return s.seedPastQuarantine()
	}
	if err != nil {
		return fmt.Errorf("jobs: %w", err)
	}
	var st persistedState
	if err := json.Unmarshal(data, &st); err != nil {
		name, err := store.Quarantine(s.cfg.Dir, stateFileName)
		if err != nil {
			return fmt.Errorf("jobs: quarantining corrupt state file: %w", err)
		}
		s.quarantined = name
		return s.seedPastQuarantine()
	}
	s.seq = st.Seq
	for _, snap := range st.Jobs {
		if snap.ID == "" || snap.Key == "" {
			continue // malformed row
		}
		// Defensive: never reissue an ID from a state file whose seq
		// counter lags its own rows.
		s.seq = max(s.seq, snap.Seq)
		if !snap.State.Terminal() {
			// Accepted by a previous process and never finished. Record the
			// interruption honestly; the caller decides whether to resubmit
			// (the spec is preserved for exactly that).
			s.interrupted = append(s.interrupted, snap)
			snap.State = StateFailed
			snap.Error = "interrupted by daemon restart"
			if snap.Finished.IsZero() {
				snap.Finished = time.Now().UTC()
			}
		}
		j := &job{snap: snap, heapIndex: -1, done: make(chan struct{})}
		close(j.done)
		s.jobs[snap.ID] = j
		if snap.State == StateDone {
			if prev, ok := s.lastDone[snap.Key]; !ok || prev.snap.Seq < snap.Seq {
				s.lastDone[snap.Key] = j
			}
		}
	}
	s.pruneLocked()
	return nil
}

// seedPastQuarantine runs when load finds no parsable state file. If a
// quarantined one lies in Dir (just moved aside, or left by a boot that
// crashed before its first state write), the seq that handed out the lost
// history's IDs is unreadable, so seq restarts from the current Unix time
// in milliseconds, above any count of submissions, and the state file is
// written at once: the next boot reads that seq back instead of seeding
// again. Without one, the directory is new and seq starts at 0.
func (s *Scheduler) seedPastQuarantine() error {
	aside, err := store.HasQuarantined(s.cfg.Dir, stateFileName)
	if err != nil {
		return fmt.Errorf("jobs: %w", err)
	}
	if aside {
		s.seq = time.Now().UnixMilli()
		s.saveState()
	}
	return nil
}

// Quarantined returns the name, inside Config.Dir, of the file New moved an
// unparsable state file to, or "" when the state file parsed (or was
// absent).
func (s *Scheduler) Quarantined() string { return s.quarantined }

// Interrupted returns the jobs that a previous process accepted but never
// finished (loaded from the state file in a queued or running state). They
// are listed as failed; their Spec lets the caller resubmit them.
func (s *Scheduler) Interrupted() []Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Snapshot, len(s.interrupted))
	copy(out, s.interrupted)
	return out
}

// Submit enqueues req as a new job and returns its snapshot.
func (s *Scheduler) Submit(req Request) (Snapshot, error) {
	if req.Key == "" {
		return Snapshot{}, fmt.Errorf("jobs: empty key")
	}
	if req.Run == nil {
		return Snapshot{}, fmt.Errorf("jobs: nil run function")
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return Snapshot{}, ErrClosed
	}
	j := s.newJobLocked(req.Key, req.Spec, req.Priority)
	j.run = req.Run
	j.onDone = req.Done
	j.abandon = req.Abandon
	j.trace = req.Trace
	j.snap.State = StateQueued
	heap.Push(&s.queue, j)
	s.cond.Signal()
	snap := j.snap
	s.mu.Unlock()
	s.tot.submitted.Add(1)
	s.saveState()
	return snap, nil
}

// RecordDone ensures a completed job record exists for key — used when a
// submission was satisfied without generation (memory cache or disk store
// hit), so the job history still answers "when did this structure last
// materialize". If the newest record for key is already done, it is
// returned unchanged; otherwise a record that was born done is created.
func (s *Scheduler) RecordDone(key string, spec json.RawMessage, prog Progress) (Snapshot, error) {
	if key == "" {
		return Snapshot{}, fmt.Errorf("jobs: empty key")
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return Snapshot{}, ErrClosed
	}
	if j, ok := s.lastDone[key]; ok {
		snap := j.snap
		s.mu.Unlock()
		return snap, nil
	}
	j := s.newJobLocked(key, spec, 0)
	now := time.Now().UTC()
	j.snap.State = StateDone
	j.snap.Started, j.snap.Finished = now, now
	j.snap.Progress = prog
	close(j.done)
	s.lastDone[key] = j
	s.pruneLocked()
	snap := j.snap
	s.mu.Unlock()
	s.tot.recordedDone.Add(1)
	s.saveState()
	return snap, nil
}

// newJobLocked allocates and registers a job record. Callers must hold
// s.mu and set the state fields before releasing it.
func (s *Scheduler) newJobLocked(key string, spec json.RawMessage, priority int) *job {
	s.seq++
	j := &job{
		snap: Snapshot{
			ID:       fmt.Sprintf("job-%06d", s.seq),
			Key:      key,
			Spec:     append(json.RawMessage(nil), spec...),
			Priority: priority,
			Seq:      s.seq,
			Created:  time.Now().UTC(),
		},
		heapIndex: -1,
		done:      make(chan struct{}),
	}
	s.jobs[j.snap.ID] = j
	return j
}

// Get returns the snapshot for id.
func (s *Scheduler) Get(id string) (Snapshot, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return Snapshot{}, false
	}
	return j.snap, true
}

// List returns every known job, newest submission first.
func (s *Scheduler) List() []Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Snapshot, 0, len(s.jobs))
	for _, j := range s.jobs {
		out = append(out, j.snap)
	}
	sort.Slice(out, func(i, k int) bool { return out[i].Seq > out[k].Seq })
	return out
}

// Cancel cancels the job: a queued job is removed from the queue and will
// never run (its Abandon hook fires); a running job has its context
// cancelled, which the annealing stack observes within one proposal —
// Cancel does not wait for the worker to notice (use Wait). Cancelling a
// terminal job is a no-op that returns its snapshot.
func (s *Scheduler) Cancel(id string) (Snapshot, error) {
	return s.cancel(id, false)
}

// CancelQueuedSilent cancels the job only if it has not started running,
// for submitters whose implicit path may drop queued work while a run that
// already holds a worker is left to finish (so the result still lands in
// a cache). Returns dropped=true only when the queued job was cancelled by
// this call. The job's Abandon hook does not fire: on dropped=true the
// caller has taken over notifying whoever waits on the job. Because no
// submitter code runs inside it, it is safe to call while holding
// submitter-side locks — the serving layer uses exactly that to make its
// sole-waiter disconnect check atomic with its cache state.
func (s *Scheduler) CancelQueuedSilent(id string) (dropped bool) {
	snap, err := s.cancel(id, true)
	return err == nil && snap.State == StateCancelled
}

// cancel is Cancel, or with queuedOnly CancelQueuedSilent: a running job
// is left to finish and a queued one is dropped without its Abandon hook.
func (s *Scheduler) cancel(id string, queuedOnly bool) (Snapshot, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return Snapshot{}, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	switch j.snap.State {
	case StateQueued:
		heap.Remove(&s.queue, j.heapIndex)
		_, abandon := s.finishLocked(j, StateCancelled, "cancelled while queued")
		s.pruneLocked()
		snap := j.snap
		s.mu.Unlock()
		if abandon != nil && !queuedOnly {
			abandon(fmt.Errorf("%w while queued", ErrCancelled))
		}
		s.saveState()
		return snap, nil
	case StateRunning:
		if queuedOnly {
			snap := j.snap
			s.mu.Unlock()
			return snap, nil
		}
		// The worker owns the terminal transition; firing the context is
		// all a cancel needs to do. Idempotent: a second Cancel finds the
		// state still running and fires the (spent) context again.
		cancel := j.cancel
		snap := j.snap
		s.mu.Unlock()
		if cancel != nil {
			cancel()
		}
		return snap, nil
	default:
		snap := j.snap
		s.mu.Unlock()
		return snap, nil
	}
}

// Wait blocks until the job reaches a terminal state or ctx ends, and
// returns the job's snapshot at that moment.
func (s *Scheduler) Wait(ctx context.Context, id string) (Snapshot, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return Snapshot{}, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	select {
	case <-j.done:
	case <-ctx.Done():
		return Snapshot{}, ctx.Err()
	}
	s.mu.Lock()
	snap := j.snap
	s.mu.Unlock()
	return snap, nil
}

// Stats summarizes the scheduler for health endpoints.
type Stats struct {
	Workers   int `json:"workers"`
	Queued    int `json:"queued"`
	Running   int `json:"running"`
	Done      int `json:"done"`
	Failed    int `json:"failed"`
	Cancelled int `json:"cancelled"`
}

// Stats returns current queue counts.
func (s *Scheduler) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{Workers: s.cfg.Workers}
	for _, j := range s.jobs {
		switch j.snap.State {
		case StateQueued:
			st.Queued++
		case StateRunning:
			st.Running++
		case StateDone:
			st.Done++
		case StateFailed:
			st.Failed++
		case StateCancelled:
			st.Cancelled++
		}
	}
	return st
}

// Close stops the scheduler: the queue stops accepting work, the state
// file is written with queued and running jobs still non-terminal (so a
// restart sees them as interrupted and can resubmit), every running job's
// context is cancelled — stopping in-flight annealing within one proposal
// — queued jobs' Abandon hooks fire, and Close returns once all workers
// have exited. Idempotent.
func (s *Scheduler) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	// Persist before cancelling: the on-disk state deliberately records
	// in-flight work as still queued/running, exactly like a crash would,
	// so clean shutdown and crash share one recovery path.
	state := s.snapshotStateLocked()
	var abandons []func(error)
	for _, j := range s.jobs {
		switch j.snap.State {
		case StateQueued:
			if j.heapIndex >= 0 {
				heap.Remove(&s.queue, j.heapIndex)
			}
			if _, abandon := s.finishLocked(j, StateCancelled, "scheduler shutting down"); abandon != nil {
				abandons = append(abandons, abandon)
			}
		case StateRunning:
			if j.cancel != nil {
				j.cancel()
			}
		}
	}
	s.cond.Broadcast()
	s.mu.Unlock()

	s.writeState(state)
	for _, ab := range abandons {
		ab(fmt.Errorf("%w: scheduler shutting down", ErrCancelled))
	}
	s.baseCancel()
	s.wg.Wait()
}

// worker drains the queue until the scheduler closes.
func (s *Scheduler) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for !s.closed && s.queue.Len() == 0 {
			s.cond.Wait()
		}
		if s.closed {
			s.mu.Unlock()
			return
		}
		j := heap.Pop(&s.queue).(*job)
		ctx, cancel := context.WithCancel(s.baseCtx)
		j.cancel = cancel
		j.snap.State = StateRunning
		j.snap.Started = time.Now().UTC()
		trace, key := j.trace, j.snap.Key
		s.mu.Unlock()
		s.tot.started.Add(1)
		s.saveState()

		// Record the run under the submitter's trace: the anneal time a
		// request spends waiting on this job lands in its span tree even
		// when the work runs on a worker goroutine (or, via generate-on-
		// owner, on another node). StartSpan is nil-safe.
		span := trace.StartSpan(obs.StageJobRun)
		span.SetKey(key)
		err := s.invoke(ctx, j)
		span.End()
		wasCancelled := ctx.Err() != nil // read before the releasing cancel below
		cancel()

		state, msg := StateDone, ""
		if err != nil {
			state, msg = StateFailed, err.Error()
			if wasCancelled {
				// The context ended (Cancel or Close): however the run
				// function dressed the error, this was a cancellation, not a
				// fault.
				state = StateCancelled
			}
		}
		s.mu.Lock()
		onDone, _ := s.finishLocked(j, state, msg)
		if state == StateDone {
			s.lastDone[j.snap.Key] = j
		}
		s.pruneLocked()
		closed := s.closed
		snap := j.snap
		s.mu.Unlock()
		if !closed {
			s.saveState()
		}
		if onDone != nil {
			onDone(snap)
		}
	}
}

// finishLocked is a job's one terminal transition: it stamps the state,
// error text and finish time, drops the submitter's hooks and trace,
// closes done and counts the transition. It returns the hooks so the
// caller can fire the one it still owes once s.mu is released: onDone for
// a job that ran, abandon for one cancelled while queued. Callers must
// hold s.mu.
func (s *Scheduler) finishLocked(j *job, state State, msg string) (onDone func(Snapshot), abandon func(error)) {
	j.snap.State, j.snap.Error, j.snap.Finished = state, msg, time.Now().UTC()
	onDone, abandon = j.onDone, j.abandon
	j.run, j.onDone, j.abandon, j.trace, j.cancel = nil, nil, nil, nil, nil
	close(j.done)
	switch state {
	case StateDone:
		s.tot.done.Add(1)
	case StateFailed:
		s.tot.failed.Add(1)
	case StateCancelled:
		s.tot.cancelled.Add(1)
	}
	return onDone, abandon
}

// invoke runs a job's function with panic containment: a panicking
// generator fails its own job, never the worker.
func (s *Scheduler) invoke(ctx context.Context, j *job) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("jobs: run panic: %v", r)
		}
	}()
	report := func(p Progress) {
		if p.Updated.IsZero() {
			p.Updated = time.Now().UTC()
		}
		s.mu.Lock()
		if j.snap.State == StateRunning {
			j.snap.Progress = p
		}
		s.mu.Unlock()
	}
	return j.run(ctx, report)
}

// pruneLocked drops the oldest terminal jobs beyond KeepFinished. Callers
// must hold s.mu.
func (s *Scheduler) pruneLocked() {
	finished := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		if j.snap.State.Terminal() {
			finished = append(finished, j)
		}
	}
	if len(finished) <= s.cfg.KeepFinished {
		return
	}
	sort.Slice(finished, func(i, k int) bool { return finished[i].snap.Seq < finished[k].snap.Seq })
	for _, j := range finished[:len(finished)-s.cfg.KeepFinished] {
		delete(s.jobs, j.snap.ID)
		if s.lastDone[j.snap.Key] == j {
			delete(s.lastDone, j.snap.Key)
		}
	}
}

// snapshotStateLocked builds the persistable state. Callers must hold s.mu.
func (s *Scheduler) snapshotStateLocked() *persistedState {
	if s.cfg.Dir == "" {
		return nil
	}
	st := &persistedState{Version: 1, Seq: s.seq, Jobs: make([]Snapshot, 0, len(s.jobs))}
	for _, j := range s.jobs {
		st.Jobs = append(st.Jobs, j.snap)
	}
	sort.Slice(st.Jobs, func(i, k int) bool { return st.Jobs[i].Seq < st.Jobs[k].Seq })
	return st
}

// saveState persists the current job table (when Dir is configured).
// Writers are serialized by writeMu and snapshot the table after acquiring
// it, so the last state file written reflects every earlier transition.
func (s *Scheduler) saveState() {
	if s.cfg.Dir == "" {
		return
	}
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	s.mu.Lock()
	st := s.snapshotStateLocked()
	s.mu.Unlock()
	s.writeStateLocked(st)
}

// writeState writes a pre-built snapshot (Close's crash-like view).
func (s *Scheduler) writeState(st *persistedState) {
	if st == nil {
		return
	}
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	s.writeStateLocked(st)
}

// writeStateLocked writes the state file atomically. Callers must hold
// writeMu.
func (s *Scheduler) writeStateLocked(st *persistedState) {
	_, err := store.WriteFileAtomic(filepath.Join(s.cfg.Dir, stateFileName), func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(st)
	})
	if err != nil && s.cfg.Logf != nil {
		s.cfg.Logf("jobs: persisting state: %v", err)
	}
}

// jobHeap is the pending queue: max-heap on priority, FIFO (min seq)
// within a priority level.
type jobHeap []*job

func (h jobHeap) Len() int { return len(h) }
func (h jobHeap) Less(i, k int) bool {
	if h[i].snap.Priority != h[k].snap.Priority {
		return h[i].snap.Priority > h[k].snap.Priority
	}
	return h[i].snap.Seq < h[k].snap.Seq
}
func (h jobHeap) Swap(i, k int) {
	h[i], h[k] = h[k], h[i]
	h[i].heapIndex = i
	h[k].heapIndex = k
}
func (h *jobHeap) Push(x any) {
	j := x.(*job)
	j.heapIndex = len(*h)
	*h = append(*h, j)
}
func (h *jobHeap) Pop() any {
	old := *h
	n := len(old)
	j := old[n-1]
	old[n-1] = nil
	j.heapIndex = -1
	*h = old[:n-1]
	return j
}
