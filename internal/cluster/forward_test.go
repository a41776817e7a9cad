package cluster

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestForwardHeaderRoundTrip(t *testing.T) {
	f := Forward{From: "http://10.0.0.1:8723", Hop: 1}
	v, err := EncodeForward(f)
	if err != nil {
		t.Fatal(err)
	}
	got, present, err := ParseForward(v)
	if err != nil || !present {
		t.Fatalf("parse %q: present=%v err=%v", v, present, err)
	}
	if got != f {
		t.Fatalf("round trip %q: got %+v want %+v", v, got, f)
	}
}

func TestForwardHeaderAbsent(t *testing.T) {
	f, present, err := ParseForward("")
	if present || err != nil || f != (Forward{}) {
		t.Fatalf("empty header: %+v present=%v err=%v", f, present, err)
	}
}

// TestForwardHeaderMalformed: every malformed value must parse as
// present=true with an error — present is what blocks re-forwarding, so
// junk must still count as "already forwarded".
func TestForwardHeaderMalformed(t *testing.T) {
	for _, v := range []string{
		"v2;hop=1;from=a",
		"v1;hop=0;from=a",
		"v1;hop=99;from=a",
		"v1;hop=-1;from=a",
		"v1;hop=x;from=a",
		"v1;from=a",
		"v1;hop=1",
		"v1;hop=1;from=",
		"v1;hop=1;from=a;b",
		"garbage",
		"v1;hop=1;from=a\rX: y",
		strings.Repeat("v", 5000),
	} {
		f, present, err := ParseForward(v)
		if err == nil {
			t.Errorf("ParseForward(%q) accepted (%+v)", v, f)
		}
		if !present {
			t.Errorf("ParseForward(%q): present=false — a present header must always read as forwarded", v)
		}
	}
}

func TestEncodeForwardRejectsBadInput(t *testing.T) {
	for _, f := range []Forward{
		{From: "a", Hop: 0},
		{From: "a", Hop: MaxHops + 1},
		{From: "", Hop: 1},
		{From: "a;b", Hop: 1},
		{From: "a\nb", Hop: 1},
	} {
		if v, err := EncodeForward(f); err == nil {
			t.Errorf("EncodeForward(%+v) = %q, want error", f, v)
		}
	}
}

// clusterForPeer builds a 2-node cluster whose non-self peer is the given
// URL, with test-scale timeouts.
func clusterForPeer(t *testing.T, peer string, cfg Config) *Cluster {
	t.Helper()
	cfg.Self = "http://127.0.0.1:1"
	cfg.Peers = []string{cfg.Self, peer}
	if cfg.ForwardTimeout == 0 {
		cfg.ForwardTimeout = 200 * time.Millisecond
	}
	if cfg.RetryBackoff == 0 {
		cfg.RetryBackoff = 5 * time.Millisecond
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestDoRetriesTransportErrors: connection failures retry with doubling
// backoff up to the bound, then surface the last error.
func TestDoRetriesTransportErrors(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) < 3 {
			// Drop the connection without a response: a transport error
			// for the client, so the attempt retries.
			hj := w.(http.Hijacker)
			conn, _, _ := hj.Hijack()
			conn.Close()
			return
		}
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, "ok")
	}))
	defer ts.Close()

	c := clusterForPeer(t, ts.URL, Config{Retries: 2})
	start := time.Now()
	resp, err := c.Do(context.Background(), ts.URL, http.MethodGet, "/x", nil, nil, 0)
	if err != nil {
		t.Fatalf("Do after retries: %v", err)
	}
	defer resp.Body.Close()
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d attempts, want 3", got)
	}
	// Two retries with 5ms then 10ms backoff: at least 15ms elapsed.
	if elapsed := time.Since(start); elapsed < 15*time.Millisecond {
		t.Fatalf("retries completed in %s — backoff not applied", elapsed)
	}
}

// TestDoHTTPErrorIsAnAnswer: a 500 from the peer is returned, not
// retried — the owner answered; masking its error as unreachability
// would mis-route the fallback.
func TestDoHTTPErrorIsAnAnswer(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer ts.Close()

	c := clusterForPeer(t, ts.URL, Config{Retries: 2})
	resp, err := c.Do(context.Background(), ts.URL, http.MethodGet, "/x", nil, nil, 0)
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500 relayed", resp.StatusCode)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("server saw %d attempts, want 1 (HTTP errors are answers)", got)
	}
}

// TestDoTimesOutHangingPeer: a peer that never answers costs one
// per-attempt timeout per attempt, then an error — never a hang.
func TestDoTimesOutHangingPeer(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done()
	}))
	defer ts.Close()

	c := clusterForPeer(t, ts.URL, Config{Retries: -1, ForwardTimeout: 50 * time.Millisecond})
	start := time.Now()
	_, err := c.Do(context.Background(), ts.URL, http.MethodGet, "/x", nil, nil, 0)
	if err == nil {
		t.Fatal("Do against hanging peer succeeded")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("timeout took %s, want ~50ms", elapsed)
	}
}

// TestDoBreakerTripsAndSkips: repeated failures trip the per-peer
// breaker; subsequent calls fail with ErrPeerDown without a network
// round trip.
func TestDoBreakerTripsAndSkips(t *testing.T) {
	peer := "http://127.0.0.1:9" // discard port: connections fail fast
	c := clusterForPeer(t, peer, Config{Retries: -1, BreakerThreshold: 2, BreakerCooldown: time.Hour})
	for i := 0; i < 2; i++ {
		if _, err := c.Do(context.Background(), peer, http.MethodGet, "/x", nil, nil, 0); err == nil {
			t.Fatal("Do against dead peer succeeded")
		}
	}
	_, err := c.Do(context.Background(), peer, http.MethodGet, "/x", nil, nil, 0)
	if !errors.Is(err, ErrPeerDown) {
		t.Fatalf("tripped breaker returned %v, want ErrPeerDown", err)
	}
	if g, st := c.BreakerGauges(), c.Stats(); g[peer] != BreakerOpen.GaugeValue() || st.BreakerSkips != 1 {
		t.Fatalf("after trip: breakers %v, stats %+v", g, st)
	}
}

// TestRouteReadFansOutWhenHot: cold keys route to the owner; past the
// hot threshold the replica set (and only the replica set) serves reads.
func TestRouteReadFansOutWhenHot(t *testing.T) {
	nodes := testNodes(4)
	c, err := New(Config{
		Self:         nodes[0],
		Peers:        nodes,
		Replicas:     2,
		HotThreshold: 10,
		HotWindow:    time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	key := "circ01|seed=1|it=100|bdio=200|chains=1|maxp=0|backup=tree"
	owner := c.Owner(key)
	reps := map[string]bool{}
	for _, n := range c.Replicas(key) {
		reps[n] = true
	}
	targets := map[string]bool{}
	for i := 0; i < 200; i++ {
		tgt := c.RouteRead(key)
		targets[tgt] = true
		if i < 9 && tgt != owner {
			t.Fatalf("read %d routed to %s before hot threshold (owner %s)", i, tgt, owner)
		}
		if !reps[tgt] {
			t.Fatalf("read routed to %s, outside replica set %v", tgt, c.Replicas(key))
		}
	}
	if len(targets) < 2 {
		t.Fatalf("hot key never fanned out: all 200 reads hit %v", targets)
	}
}
