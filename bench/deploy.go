package main

// Server deployments: real serve.Servers on loopback listeners inside the
// child process, configured as cmd/mpsd configures them by default.

import (
	"context"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"mps/internal/cluster"
	"mps/internal/serve"
	"mps/internal/store"
)

// node is one serve.Server behind a loopback listener. The listener also
// serves the reference route (see serveReference).
type node struct {
	srv      *serve.Server
	handler  http.Handler
	hs       *http.Server
	served   chan struct{} // closed when hs.Serve returns
	url      string        // where clients connect
	name     string        // advertised peer URL; "" for a single node
	cl       *cluster.Cluster
	storeDir string
	plan     *plan
}

// startNode starts a single node (peer == "") or fleet member peer of the
// peerA/peerB fleet, with a fresh disk store when withStore is set.
func startNode(p *plan, peer string, withStore bool, logf func(string, ...any)) (*node, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	n := &node{url: "http://" + ln.Addr().String(), name: peer, served: make(chan struct{}), plan: p}
	cfg := serve.Config{Logf: logf}
	if peer != "" {
		// Replicas 1, as mpsd's -cluster-replicas 1: the default hot-key
		// fan-out would turn about half of cluster_forward's reads local
		// partway through a run.
		n.cl, err = cluster.New(cluster.Config{Self: peer, Peers: []string{peerA, peerB}, Replicas: 1, Logf: logf})
		if err != nil {
			ln.Close()
			return nil, err
		}
		cfg.Cluster = n.cl
		peerAddrs.Store(strings.TrimPrefix(peer, "http://"), ln.Addr().String())
	}
	if withStore {
		if n.storeDir, err = os.MkdirTemp("", "bench-store-"); err != nil {
			ln.Close()
			return nil, err
		}
		if cfg.Store, err = store.Open(n.storeDir); err != nil {
			ln.Close()
			os.RemoveAll(n.storeDir)
			return nil, err
		}
	}
	n.srv = serve.New(cfg)
	n.handler = n.srv.Handler()
	route := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if i, ok := strings.CutPrefix(r.URL.Path, refPath); ok {
			n.serveReference(w, r, i)
			return
		}
		n.handler.ServeHTTP(w, r)
	})
	n.hs = &http.Server{Handler: route, ErrorLog: log.New(io.Discard, "", 0)}
	go func() {
		defer close(n.served)
		n.hs.Serve(ln)
	}()
	return n, nil
}

// close stops the listener, the server's jobs and its background writes,
// then removes its store.
func (n *node) close() {
	n.hs.Close()
	<-n.served
	n.srv.Close()
	n.srv.Flush()
	if n.storeDir != "" {
		os.RemoveAll(n.storeDir)
	}
}

// deployment is the set of nodes one run talks to.
type deployment struct {
	single *node   // one node, nil when unused
	fleet  []*node // [A, B], nil when unused
	entry  *node   // where the workload's requests enter
}

// deploy starts the workload's own topology, plus in a traced run the
// other one, so every workload's requests can be replayed through both a
// single node and a forwarding fleet.
func deploy(p *plan, logf func(string, ...any)) (*deployment, error) {
	d := &deployment{}
	if !p.Fleet || p.Trace {
		s, err := startNode(p, "", p.Generate, logf)
		if err != nil {
			return nil, err
		}
		d.single, d.entry = s, s
	}
	if p.Fleet || p.Trace {
		for _, peer := range []string{peerA, peerB} {
			n, err := startNode(p, peer, false, logf)
			if err != nil {
				d.close()
				return nil, err
			}
			d.fleet = append(d.fleet, n)
		}
		if p.Fleet {
			d.entry = d.fleet[0]
		}
	}
	return d, nil
}

func (d *deployment) nodes() []*node {
	var out []*node
	if d.single != nil {
		out = append(out, d.single)
	}
	return append(out, d.fleet...)
}

func (d *deployment) close() {
	for _, n := range d.nodes() {
		n.close()
	}
	if d.fleet != nil {
		// Forwards ride http.DefaultTransport; drop its connections to this
		// fleet before the next one reuses the peer names.
		http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	}
}

// owner returns the fleet node owning key, and the other one.
func (d *deployment) owner(key string) (owner, other *node) {
	if d.fleet[0].cl.Owner(key) == d.fleet[0].name {
		return d.fleet[0], d.fleet[1]
	}
	return d.fleet[1], d.fleet[0]
}

// peerAddrs maps each advertised peer host:port to its listener address.
var peerAddrs sync.Map

var installOnce sync.Once

// installPeerDialer points http.DefaultTransport, which carries the
// fleet's forwards, at the loopback listeners behind the fixed peer names.
// It dials nothing else, and never consults a proxy.
func installPeerDialer() {
	installOnce.Do(func() {
		t := http.DefaultTransport.(*http.Transport)
		t.Proxy = nil
		dialer := &net.Dialer{Timeout: 5 * time.Second}
		t.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
			real, ok := peerAddrs.Load(addr)
			if !ok {
				return nil, fmt.Errorf("bench: %s is not a benchmark node", addr)
			}
			return dialer.DialContext(ctx, network, real.(string))
		}
	})
}
