package cluster

import (
	"sync"
	"time"
)

// BreakerState is a circuit breaker's position.
type BreakerState string

const (
	// BreakerClosed: requests flow; failures are counted.
	BreakerClosed BreakerState = "closed"
	// BreakerOpen: requests are refused until the cooldown elapses.
	BreakerOpen BreakerState = "open"
	// BreakerHalfOpen: one probe request is allowed through; its outcome
	// closes or re-opens the breaker.
	BreakerHalfOpen BreakerState = "half-open"
)

// Breaker is a per-peer circuit breaker. Threshold consecutive failures
// trip it open; while open every Allow is refused (so a dead peer costs a
// map lookup, not a connect timeout, on every forwarded request); after
// Cooldown one probe is let through half-open, and its result decides
// whether traffic resumes. Safe for concurrent use.
type Breaker struct {
	threshold int
	cooldown  time.Duration
	now       func() time.Time // injectable for tests

	mu       sync.Mutex
	state    BreakerState
	failures int       // consecutive failures while closed
	openedAt time.Time // when the breaker last tripped
	probing  bool      // a half-open probe is in flight
}

// DefaultBreakerThreshold and DefaultBreakerCooldown are the zero-config
// trip point: three consecutive failures open the breaker for 5 seconds.
const (
	DefaultBreakerThreshold = 3
	DefaultBreakerCooldown  = 5 * time.Second
)

// NewBreaker returns a closed breaker. Non-positive threshold or cooldown
// use the defaults.
func NewBreaker(threshold int, cooldown time.Duration) *Breaker {
	if threshold <= 0 {
		threshold = DefaultBreakerThreshold
	}
	if cooldown <= 0 {
		cooldown = DefaultBreakerCooldown
	}
	return &Breaker{
		threshold: threshold,
		cooldown:  cooldown,
		now:       time.Now,
		state:     BreakerClosed,
	}
}

// Allow reports whether a request may proceed. While open it returns
// false until the cooldown has elapsed, then admits exactly one probe
// (half-open); concurrent callers during the probe are refused so a
// recovering peer is not stampeded.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if b.now().Sub(b.openedAt) < b.cooldown {
			return false
		}
		b.state = BreakerHalfOpen
		b.probing = true
		return true
	default: // half-open
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
}

// Success records a completed request: the breaker closes and the failure
// count resets.
func (b *Breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.state = BreakerClosed
	b.failures = 0
	b.probing = false
}

// Failure records a failed request. The threshold'th consecutive failure
// — or any failed half-open probe — trips the breaker open and restarts
// the cooldown.
func (b *Breaker) Failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == BreakerHalfOpen {
		b.trip()
		return
	}
	b.failures++
	if b.failures >= b.threshold {
		b.trip()
	}
}

// Abandon records a request whose caller gave up before the peer
// answered: neither a success nor a failure, so the state and failure
// count stay as they are. A half-open probe's slot is freed, so the next
// request probes instead of waiting on an answer that will never come.
func (b *Breaker) Abandon() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.probing = false
}

// trip opens the breaker. Callers must hold b.mu.
func (b *Breaker) trip() {
	b.state = BreakerOpen
	b.openedAt = b.now()
	b.failures = 0
	b.probing = false
}

// State returns the breaker's current position (open breakers past their
// cooldown still report open until a probe is admitted).
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}
