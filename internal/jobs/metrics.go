package jobs

import (
	"strconv"
	"sync/atomic"
	"time"
)

// totals are the scheduler's monotonic lifetime counters, incremented at
// each lifecycle transition. They exist alongside Stats (which counts the
// *retained* job table and therefore shrinks when pruneLocked drops old
// terminal records) because monitoring needs counters that never go
// backwards.
type totals struct {
	submitted    atomic.Int64
	recordedDone atomic.Int64
	started      atomic.Int64
	done         atomic.Int64
	failed       atomic.Int64
	cancelled    atomic.Int64
}

// Totals is the exported snapshot of the lifetime counters.
type Totals struct {
	// Submitted counts jobs accepted into the queue.
	Submitted int64
	// RecordedDone counts born-done records from RecordDone (cache/store
	// hits that never queued).
	RecordedDone int64
	// Started counts jobs a worker picked up.
	Started int64
	// Done, Failed, Cancelled count terminal transitions of jobs that went
	// through the queue. Started == Done + Failed + Cancelled once all
	// running work finishes, except that jobs cancelled while still queued
	// count in Cancelled without ever counting in Started.
	Done      int64
	Failed    int64
	Cancelled int64
}

// Totals returns the lifetime counters. Unlike Stats, these are
// monotonic: pruning old job records never decreases them.
func (s *Scheduler) Totals() Totals {
	return Totals{
		Submitted:    s.tot.submitted.Load(),
		RecordedDone: s.tot.recordedDone.Load(),
		Started:      s.tot.started.Load(),
		Done:         s.tot.done.Load(),
		Failed:       s.tot.failed.Load(),
		Cancelled:    s.tot.cancelled.Load(),
	}
}

// Metrics is a scrape-time snapshot of the scheduler's live state, shaped
// for gauge export: instantaneous depths and ages, not lifetime counts.
type Metrics struct {
	// QueueDepth maps priority (as a decimal string, ready for use as a
	// metric label) to the number of jobs queued at that priority.
	// Priorities come from the fixed set the submitter uses, so the label
	// cardinality is bounded by the caller's priority scheme.
	QueueDepth map[string]float64
	// Running is the number of jobs currently holding a worker.
	Running int
	// OldestQueuedAge is the age of the longest-queued job (zero when the
	// queue is empty) — the leading indicator of a saturated worker pool.
	OldestQueuedAge time.Duration
	// OldestRunningAge is the age (since start) of the longest-running job
	// (zero when idle) — the leading indicator of a stuck generation.
	OldestRunningAge time.Duration
}

// Metrics returns the live queue snapshot. It takes the scheduler lock
// briefly; intended for scrape-time gauge evaluation, not hot paths.
func (s *Scheduler) Metrics() Metrics {
	now := time.Now().UTC()
	m := Metrics{QueueDepth: map[string]float64{}}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, j := range s.queue {
		m.QueueDepth[strconv.Itoa(j.snap.Priority)]++
		if age := now.Sub(j.snap.Created); age > m.OldestQueuedAge {
			m.OldestQueuedAge = age
		}
	}
	for _, j := range s.jobs {
		if j.snap.State == StateRunning {
			m.Running++
			if age := now.Sub(j.snap.Started); age > m.OldestRunningAge {
				m.OldestRunningAge = age
			}
		}
	}
	return m
}
