package cluster

import (
	"fmt"
	"net/url"
	"strings"
	"time"
)

// Config describes one node's view of the fleet. Peers (including Self)
// plus VNodes determine the ring, so every node configured with the same
// peer set — in any order, from a flag or a file — agrees on every key's
// owner.
type Config struct {
	// Self is this node's advertised base URL. It must appear in Peers.
	Self string
	// Peers is the full static node set as base URLs (scheme://host:port,
	// no path), Self included.
	Peers []string
	// VNodes is the virtual-node count per peer (0 = DefaultVNodes).
	VNodes int
	// Replicas is how many nodes (owner first) may answer reads for a hot
	// key. 0 defaults to 2; 1 disables read fan-out.
	Replicas int
	// HotThreshold is the forwarded-read count per key per HotWindow above
	// which reads fan out to the replica set. 0 defaults to 64.
	HotThreshold int
	// HotWindow is the hot-key counting window. 0 defaults to 10s.
	HotWindow time.Duration
	// ForwardTimeout bounds one forwarded request attempt. Generation on
	// the owner can legitimately take minutes, so the default is generous:
	// 15 minutes. Fetches use the tighter FetchTimeout.
	ForwardTimeout time.Duration
	// FetchTimeout bounds one artifact-fetch attempt (structure-file bytes
	// off a peer's disk or cache — milliseconds when healthy). 0 defaults
	// to 30s.
	FetchTimeout time.Duration
	// Retries is how many times a failed forward attempt is retried
	// against the same target (transport errors only — an HTTP response,
	// any status, is an answer). 0 defaults to 2; negative disables.
	Retries int
	// RetryBackoff is the first retry's delay, doubling per retry.
	// 0 defaults to 100ms.
	RetryBackoff time.Duration
	// BreakerThreshold and BreakerCooldown tune the per-peer circuit
	// breakers (0 = package defaults).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// Logf, when non-nil, receives forwarding/fallback log lines.
	Logf func(format string, args ...any)
}

func (cfg Config) withDefaults() Config {
	if cfg.Replicas <= 0 {
		cfg.Replicas = 2
	}
	if cfg.HotThreshold <= 0 {
		cfg.HotThreshold = 64
	}
	if cfg.HotWindow <= 0 {
		cfg.HotWindow = 10 * time.Second
	}
	if cfg.ForwardTimeout <= 0 {
		cfg.ForwardTimeout = 15 * time.Minute
	}
	if cfg.FetchTimeout <= 0 {
		cfg.FetchTimeout = 30 * time.Second
	}
	if cfg.Retries == 0 {
		cfg.Retries = 2
	}
	if cfg.Retries < 0 {
		cfg.Retries = 0
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 100 * time.Millisecond
	}
	return cfg
}

// maxPeers bounds a parsed peer set. Far above any plausible static
// fleet; exists so a malicious peers file cannot balloon the ring.
const maxPeers = 1024

// ParsePeers parses a comma-separated peer list (the -cluster-peers flag
// form): each element a base URL, whitespace around elements ignored,
// empty elements rejected. See NormalizePeerURL for what a peer may look
// like.
func ParsePeers(s string) ([]string, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("cluster: empty peer list")
	}
	return parsePeerFields(strings.Split(s, ","))
}

// ParsePeersFile parses the -cluster-peers-file format: one peer base URL
// per line, blank lines and #-comments ignored (a trailing "# ..." on a
// peer line is a comment too).
func ParsePeersFile(data []byte) ([]string, error) {
	var fields []string
	for _, line := range strings.Split(string(data), "\n") {
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		fields = append(fields, line)
	}
	if len(fields) == 0 {
		return nil, fmt.Errorf("cluster: peers file lists no peers")
	}
	return parsePeerFields(fields)
}

// parsePeerFields normalizes and validates a peer list: every peer a
// well-formed base URL, no duplicates after normalization, bounded count.
func parsePeerFields(fields []string) ([]string, error) {
	if len(fields) > maxPeers {
		return nil, fmt.Errorf("cluster: %d peers exceeds limit %d", len(fields), maxPeers)
	}
	peers := make([]string, 0, len(fields))
	seen := make(map[string]bool, len(fields))
	for _, f := range fields {
		p, err := NormalizePeerURL(f)
		if err != nil {
			return nil, err
		}
		if seen[p] {
			return nil, fmt.Errorf("cluster: duplicate peer %s", p)
		}
		seen[p] = true
		peers = append(peers, p)
	}
	return peers, nil
}

// NormalizePeerURL validates one peer address and returns its canonical
// base-URL form. Accepted inputs: "http://host:port", "https://host:port",
// or a bare "host:port" (http assumed). Paths, queries, fragments, and
// userinfo are rejected — a peer is a daemon base address, nothing more —
// and the canonical form is what the ring hashes, so two spellings of one
// address cannot become two ring nodes.
func NormalizePeerURL(s string) (string, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return "", fmt.Errorf("cluster: empty peer address")
	}
	if strings.IndexFunc(s, func(r rune) bool { return r <= 0x20 || r == 0x7f }) >= 0 {
		return "", fmt.Errorf("cluster: peer %q contains whitespace or control bytes", truncate(s))
	}
	if !strings.Contains(s, "://") {
		s = "http://" + s
	}
	u, err := url.Parse(s)
	if err != nil {
		return "", fmt.Errorf("cluster: peer %q: %v", truncate(s), err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return "", fmt.Errorf("cluster: peer %q: scheme must be http or https", truncate(s))
	}
	if u.Host == "" || u.Hostname() == "" {
		return "", fmt.Errorf("cluster: peer %q: missing host", truncate(s))
	}
	if u.User != nil || u.Path != "" || u.RawQuery != "" || u.Fragment != "" || u.Opaque != "" {
		return "", fmt.Errorf("cluster: peer %q: must be a bare scheme://host:port base URL", truncate(s))
	}
	if u.Port() == "" {
		return "", fmt.Errorf("cluster: peer %q: missing port", truncate(s))
	}
	return u.Scheme + "://" + u.Host, nil
}
