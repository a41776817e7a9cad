package cluster

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"mps/internal/obs"
)

// Cluster is one node's routing brain: the ring for ownership decisions,
// a per-peer circuit breaker so a dead peer costs a map lookup instead of
// a connect timeout, a hot-key tracker for read-replica fan-out, and the
// HTTP transport that carries forwarded requests with bounded retry and
// backoff. Safe for concurrent use.
type Cluster struct {
	cfg  Config
	ring *Ring
	// mark is the ForwardHeader value for every request this node sends
	// to a peer: one hop, from Self.
	mark string
	// transport carries forwarded requests: http.DefaultTransport, the
	// pool the zero http.Client uses, called directly as
	// httputil.ReverseProxy does, because a peer never redirects and the
	// client's redirect handling clones every request's headers. Each
	// attempt applies its own deadline through its context, because
	// forwards (minutes of generation) and fetches (milliseconds of disk)
	// need different budgets on one connection pool.
	transport http.RoundTripper

	mu       sync.Mutex
	breakers map[string]*Breaker
	hot      map[string]*hotKey
	hotSweep time.Time
	rng      *rand.Rand // replica picks; guarded by mu

	forwards     atomic.Int64 // requests proxied to a peer
	fallbacks    atomic.Int64 // forwards that failed over to local serving
	fetches      atomic.Int64 // artifacts pulled from peers
	breakerSkips atomic.Int64 // attempts refused by an open breaker
	hotFanouts   atomic.Int64 // reads spread to replicas instead of the owner
}

// hotKey is a fixed-window per-key read counter.
type hotKey struct {
	count   int
	window  time.Time // start of the current window
	lastHot bool
}

// New validates cfg and returns a ready Cluster. Self must be one of the
// peers (after URL normalization) and header-safe as a forwarding mark;
// the peer set must be non-empty.
func New(cfg Config) (*Cluster, error) {
	cfg = cfg.withDefaults()
	self, err := NormalizePeerURL(cfg.Self)
	if err != nil {
		return nil, fmt.Errorf("cluster: self: %w", err)
	}
	cfg.Self = self
	peers, err := parsePeerFields(cfg.Peers)
	if err != nil {
		return nil, err
	}
	cfg.Peers = peers
	found := false
	for _, p := range peers {
		if p == self {
			found = true
			break
		}
	}
	if !found {
		return nil, fmt.Errorf("cluster: self %s is not in the peer set %v", self, peers)
	}
	mark, err := EncodeForward(Forward{From: self, Hop: 1})
	if err != nil {
		return nil, fmt.Errorf("cluster: self: %w", err)
	}
	ring, err := NewRing(peers, cfg.VNodes)
	if err != nil {
		return nil, err
	}
	return &Cluster{
		cfg:       cfg,
		ring:      ring,
		mark:      mark,
		transport: http.DefaultTransport,
		breakers:  make(map[string]*Breaker),
		hot:       make(map[string]*hotKey),
		rng:       rand.New(rand.NewSource(int64(hashKey(self) ^ 0x6d707364))),
	}, nil
}

// Self returns this node's canonical base URL.
func (c *Cluster) Self() string { return c.cfg.Self }

// ForwardMark returns the ForwardHeader value this node sets on every
// request it sends to a peer: hop 1, from Self.
func (c *Cluster) ForwardMark() string { return c.mark }

// Peers returns the full node set, sorted.
func (c *Cluster) Peers() []string { return c.ring.Nodes() }

// Ring exposes the ownership ring (for rebalance walks and tests).
func (c *Cluster) Ring() *Ring { return c.ring }

// Owner returns the node owning key.
func (c *Cluster) Owner(key string) string { return c.ring.Owner(key) }

// Owns reports whether this node owns key.
func (c *Cluster) Owns(key string) bool { return c.ring.Owner(key) == c.cfg.Self }

// Replicas returns the key's replica set (owner first), excluding nobody.
func (c *Cluster) Replicas(key string) []string {
	return c.ring.Replicas(key, c.cfg.Replicas)
}

// RecordRead counts a read against key's hot-key window and reports
// whether the key is currently hot. Called by the owner check on every
// locally-served read and by the router on every forwarded one, so
// hotness reflects what this node actually sees.
func (c *Cluster) RecordRead(key string) bool {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	// Amortized sweep: drop stale windows so the map tracks live traffic,
	// not every key ever seen.
	if now.Sub(c.hotSweep) > 4*c.cfg.HotWindow {
		c.hotSweep = now
		for k, h := range c.hot {
			if now.Sub(h.window) > 2*c.cfg.HotWindow {
				delete(c.hot, k)
			}
		}
	}
	h := c.hot[key]
	if h == nil {
		h = &hotKey{window: now}
		c.hot[key] = h
	}
	if now.Sub(h.window) > c.cfg.HotWindow {
		// New window: remember whether the finished window was hot so
		// hotness does not flap at every window boundary.
		h.lastHot = h.count >= c.cfg.HotThreshold
		h.count = 0
		h.window = now
	}
	h.count++
	return h.count >= c.cfg.HotThreshold || h.lastHot
}

// RouteRead picks the node to answer a read for key: the owner, unless
// the key is hot and read fan-out is enabled, in which case a uniform
// pick from the replica set (owner included) spreads the load. The pick
// may be this node.
func (c *Cluster) RouteRead(key string) string {
	if c.cfg.Replicas <= 1 || !c.RecordRead(key) {
		return c.ring.Owner(key)
	}
	reps := c.Replicas(key)
	c.hotFanouts.Add(1)
	c.mu.Lock()
	n := reps[c.rng.Intn(len(reps))]
	c.mu.Unlock()
	return n
}

// breaker returns (creating on first use) the breaker for peer.
func (c *Cluster) breaker(peer string) *Breaker {
	c.mu.Lock()
	defer c.mu.Unlock()
	b := c.breakers[peer]
	if b == nil {
		b = NewBreaker(c.cfg.BreakerThreshold, c.cfg.BreakerCooldown)
		c.breakers[peer] = b
	}
	return b
}

// ErrPeerDown is wrapped into Do errors when the peer's breaker refuses
// the attempt without touching the network.
var ErrPeerDown = fmt.Errorf("cluster: peer breaker open")

// Do sends one HTTP request to peer with per-attempt timeout and bounded
// retry/backoff on transport errors. Any HTTP response — success or error
// status — is an answer and is returned to the caller (forwarding must
// relay the owner's 4xx/5xx verbatim, not mask it as unreachability).
// The breaker is consulted before the first byte and updated from the
// outcome; while open, Do fails in microseconds with ErrPeerDown.
//
// body may be nil; hdr entries are copied onto the request. The caller
// owns the response body.
//
// When ctx carries a trace span (obs.ContextWithSpan), every attempt
// records a child span naming the peer and the request ships an
// X-Mps-Trace header, so the remote segment nests under this exact
// network attempt — a retried forward shows each try separately.
func (c *Cluster) Do(ctx context.Context, peer, method, path string, body []byte, hdr http.Header, timeout time.Duration) (*http.Response, error) {
	br := c.breaker(peer)
	if !br.Allow() {
		c.breakerSkips.Add(1)
		return nil, fmt.Errorf("%w: %s", ErrPeerDown, peer)
	}
	if timeout <= 0 {
		timeout = c.cfg.ForwardTimeout
	}
	parent := obs.SpanFromContext(ctx)
	var lastErr error
	backoff := c.cfg.RetryBackoff
	for attempt := 0; attempt <= c.cfg.Retries; attempt++ {
		if attempt > 0 {
			select {
			case <-time.After(backoff):
			case <-ctx.Done():
				br.Failure()
				return nil, fmt.Errorf("cluster: forward to %s: %w (last error: %v)", peer, ctx.Err(), lastErr)
			}
			backoff *= 2
		}
		att := parent.StartChild()
		att.SetRemote(peer)
		resp, err := c.attempt(att, ctx, peer, method, path, body, hdr, timeout)
		att.End()
		if err == nil {
			br.Success()
			return resp, nil
		}
		lastErr = err
		c.logf("cluster: %s %s%s attempt %d/%d: %v", method, peer, path, attempt+1, c.cfg.Retries+1, err)
		if ctx.Err() != nil {
			break // the caller is gone; retrying serves nobody
		}
	}
	br.Failure()
	return nil, fmt.Errorf("cluster: forward to %s failed after %d attempts: %w", peer, c.cfg.Retries+1, lastErr)
}

// attempt is one bounded try against peer. att, when backed by a trace,
// stamps the propagation header so the peer's segment parents to this
// attempt's span.
func (c *Cluster) attempt(att obs.SpanRef, ctx context.Context, peer, method, path string, body []byte, hdr http.Header, timeout time.Duration) (*http.Response, error) {
	actx, cancel := context.WithTimeout(ctx, timeout)
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(actx, method, peer+path, rd)
	if err != nil {
		cancel()
		return nil, err
	}
	for k, vs := range hdr {
		req.Header[k] = vs
	}
	if hv, ok := att.Header(); ok {
		req.Header.Set(obs.TraceHeader, hv)
	}
	resp, err := c.transport.RoundTrip(req)
	if err != nil {
		cancel()
		return nil, err
	}
	// Hand the per-attempt cancel to the response body: the caller's read
	// stays bounded by the same deadline, and Close releases the timer.
	resp.Body = &cancelBody{ReadCloser: resp.Body, cancel: cancel}
	return resp, nil
}

// cancelBody ties a context cancel to a response body's lifetime.
type cancelBody struct {
	io.ReadCloser
	cancel context.CancelFunc
}

func (b *cancelBody) Close() error {
	err := b.ReadCloser.Close()
	b.cancel()
	return err
}

// MarkFailure records a peer failure the routing layer observed above
// the transport (a relayed 5xx): Do saw a completed HTTP exchange and
// credited the breaker, but the peer is failing — the breaker should
// hear about it so a persistently broken peer trips just like a dead one.
func (c *Cluster) MarkFailure(peer string) { c.breaker(peer).Failure() }

// CountForward and CountFallback let the routing layer attribute
// outcomes; CountFetch marks a peer artifact pull.
func (c *Cluster) CountForward() { c.forwards.Add(1) }

func (c *Cluster) CountFallback() { c.fallbacks.Add(1) }

func (c *Cluster) CountFetch() { c.fetches.Add(1) }

// Stats is a snapshot of the cluster layer's routing counters, exported
// as mps_cluster_events_total. Breaker states are read through
// BreakerGauges.
type Stats struct {
	Forwards     int64
	Fallbacks    int64
	Fetches      int64
	BreakerSkips int64
}

// Stats returns the current counters.
func (c *Cluster) Stats() Stats {
	return Stats{
		Forwards:     c.forwards.Load(),
		Fallbacks:    c.fallbacks.Load(),
		Fetches:      c.fetches.Load(),
		BreakerSkips: c.breakerSkips.Load(),
	}
}

// ForwardTimeout and FetchTimeout expose the configured budgets to the
// routing layer.
func (c *Cluster) ForwardTimeout() time.Duration { return c.cfg.ForwardTimeout }

func (c *Cluster) FetchTimeout() time.Duration { return c.cfg.FetchTimeout }

func (c *Cluster) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}
