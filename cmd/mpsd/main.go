// Command mpsd is the multi-placement-structure query daemon: it serves
// the paper's generate-once, query-many workflow (Fig. 1) over HTTP/JSON.
// Structures are generated on demand, cached in a bounded LRU keyed by
// (circuit, seed, options), and batched Instantiate traffic is answered
// through the concurrent worker pool in the mps facade.
//
// Usage:
//
//	mpsd [-addr :8723] [-cache 8] [-workers 0] [-max-batch 8192]
//	     [-max-iterations 5000] [-preload TwoStageOpamp] [-preload-backend ga]
//	     [-store-dir /var/lib/mpsd] [-store-warm -1]
//	     [-gen-workers 2] [-jobs-dir /var/lib/mpsd-jobs] [-jobs-resume]
//	     [-cluster-self http://node1:8723]
//	     [-cluster-peers http://node1:8723,http://node2:8723]
//	     [-slow-query 2s] [-pprof-addr localhost:6060]
//
// With -store-dir, generated structures are persisted to a disk-backed
// repository (atomic v2 binary files plus a JSON manifest) and the daemon
// warm-starts from it: up to -store-warm cache entries (default: the cache
// size, and never more than the cache has room for) are loaded into the
// LRU at boot, the newest structures first and then the portfolios whose
// members all landed, and any cache miss consults the store before
// regenerating, so a restart never repeats an annealing run.
//
// Generation runs as a background workload on a job scheduler with
// -gen-workers annealing workers. With -jobs-dir, job state survives
// restarts: completed jobs stay listed, and jobs the previous process
// accepted but never finished are resubmitted at boot (-jobs-resume=false
// leaves them reported as interrupted instead). A graceful shutdown
// (SIGINT/SIGTERM) cancels in-flight generation jobs cooperatively — the
// nested annealers stop within one proposal — before draining HTTP.
//
// Cluster mode shards the structure space over a static peer set by
// consistent hashing on the canonical spec key. -cluster-peers (or
// -cluster-peers-file, one base URL per line with #-comments) names the
// full fleet, Self included; -cluster-self is this node's advertised base
// URL and must appear in the peer set. Requests for keys another node
// owns are forwarded there (single hop — a marked request is never
// re-forwarded), hot keys fan reads out across the replica set, and when
// the owner is unreachable the entry node degrades gracefully: bounded
// retry with backoff, a per-peer circuit breaker, then local serving.
// POST /v1/cluster/rebalance walks the local store and pushes misplaced
// structures to their owners. Every cluster response carries
// X-Mps-Served-By naming the node that answered.
//
// A spec may name a generation backend ("backend": "ga"); omitted means
// "anneal", the nested simulated annealing, so every spec written before
// backends existed keeps its meaning and its cache/store artifacts.
// Unknown backends are rejected with a 400 listing the registered names,
// which GET /v1/backends also serves.
//
// A spec with "portfolio": K (2..8) asks for a structure portfolio: K
// members generated from derived seeds as K parallel scheduler jobs, then
// served as one entry that routes every query to the covering member with
// the smallest instantiated area and falls back to the backup only when
// no member covers it. Members share cache keys, store files, and jobs
// with identical single-structure specs; with -store-dir the grouping is
// recorded in the manifest and warm-starts from its cached members.
//
// Endpoints:
//
//	GET    /healthz          liveness probe: {"status":"ok"}
//	GET    /metrics          Prometheus text metrics (see ARCHITECTURE.md)
//	GET    /v1/circuits      list benchmark circuits
//	GET    /v1/backends      list generation backends (anneal, ga, ...)
//	GET    /v1/structures    list cached + persisted structures
//	POST   /v1/structures    generate (submit-and-wait) a structure for a spec
//	POST   /v1/instantiate   answer a batch of dimension queries
//	POST   /v1/jobs          submit a generation job; returns its id at once
//	GET    /v1/jobs          list jobs, newest first, with queue stats
//	GET    /v1/jobs/{id}     one job's live progress snapshot
//	DELETE /v1/jobs/{id}     cancel a queued (never runs) or running job
//
// Every response carries X-Mps-Trace-Id, and each request records a span
// tree (cache lookup, job wait, instantiate, encode, forwards, fetches)
// into a bounded per-node ring of 512 with tail sampling — errors,
// requests over -slow-query, and cross-node traces are always retained,
// plus a deterministic tenth of the rest. A request over -slow-query is
// also logged as one JSON line rendered from its retained trace:
//
//	GET /v1/debug/traces       list retained traces (route=, min_ms=, limit=)
//	GET /v1/debug/traces/{id}  one trace assembled across the cluster
//
// Cluster mode adds (and /metrics then reports forwarding counters and
// per-peer breaker states):
//
//	GET  /v1/cluster/structure   serve a stored artifact to a peer (fetch path)
//	POST /v1/cluster/accept      receive a structure during rebalance
//	POST /v1/cluster/rebalance   push misplaced local structures to their owners
//
// Example session:
//
//	curl -s -X POST localhost:8723/v1/jobs \
//	  -d '{"spec":{"circuit":"TwoStageOpamp","seed":1},"priority":5}'
//	curl -s localhost:8723/v1/jobs/job-000001
//	curl -s -X POST localhost:8723/v1/instantiate \
//	  -d '{"spec":{"circuit":"TwoStageOpamp","seed":1,"effort":"quick"},
//	       "queries":[{"ws":[20,16,12,24,18],"hs":[10,8,7,12,18]}]}'
//	curl -s -X POST localhost:8723/v1/structures \
//	  -d '{"circuit":"TwoStageOpamp","seed":1,"effort":"quick","portfolio":3}'
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	// Registers the profiling handlers on http.DefaultServeMux, which only
	// the optional -pprof-addr listener serves — the daemon's own handler
	// is an explicit ServeMux that never falls through to the default.
	_ "net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"mps/internal/cluster"
	"mps/internal/jobs"
	"mps/internal/serve"
	"mps/internal/store"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("mpsd: ")

	addr := flag.String("addr", ":8723", "listen address")
	cacheSize := flag.Int("cache", 8, "max generated structures kept in memory (LRU)")
	workers := flag.Int("workers", 0, "instantiate worker pool size (0 = GOMAXPROCS)")
	maxBatch := flag.Int("max-batch", 8192, "max queries per instantiate request")
	maxIterations := flag.Int("max-iterations", 5000,
		"cap on per-request explorer iterations (negative disables)")
	preload := flag.String("preload", "",
		"comma-free circuit name to generate at startup with quick effort")
	preloadBackend := flag.String("preload-backend", "",
		"generation backend for -preload (empty = the default backend; see GET /v1/backends)")
	storeDir := flag.String("store-dir", "",
		"persistent structure store directory (empty = memory-only)")
	storeWarm := flag.Int("store-warm", -1,
		"cache entries to warm-load from the store at startup, structures then portfolios (-1 = cache size, 0 = disable)")
	genWorkers := flag.Int("gen-workers", 2,
		"generation job workers (concurrent annealing runs)")
	jobsDir := flag.String("jobs-dir", "",
		"job-state persistence directory (empty = in-memory job history)")
	jobsResume := flag.Bool("jobs-resume", true,
		"resubmit jobs the previous process accepted but never finished (needs -jobs-dir)")
	clusterSelf := flag.String("cluster-self", "",
		"this node's advertised base URL; required in cluster mode and must appear in the peer set")
	clusterPeers := flag.String("cluster-peers", "",
		"comma-separated peer base URLs, self included (enables cluster mode)")
	clusterPeersFile := flag.String("cluster-peers-file", "",
		"file listing peer base URLs, one per line with #-comments (enables cluster mode)")
	clusterVNodes := flag.Int("cluster-vnodes", 0,
		"virtual nodes per peer on the consistent-hash ring (0 = default)")
	clusterReplicas := flag.Int("cluster-replicas", 0,
		"nodes that may answer reads for a hot key, owner first (0 = default 2, 1 disables fan-out)")
	clusterForwardTimeout := flag.Duration("cluster-forward-timeout", 0,
		"per-attempt budget for a forwarded request, generation included (0 = default 15m)")
	clusterFetchTimeout := flag.Duration("cluster-fetch-timeout", 0,
		"per-attempt budget for an artifact fetch off a peer (0 = default 30s)")
	clusterRetries := flag.Int("cluster-retries", 0,
		"retries per forward on transport errors (0 = default 2, negative disables)")
	clusterRetryBackoff := flag.Duration("cluster-retry-backoff", 0,
		"first retry delay, doubling per retry (0 = default 100ms)")
	slowQuery := flag.Duration("slow-query", 0,
		"log requests at least this slow as one-line JSON with a per-stage time breakdown, and always retain their traces (0 disables)")
	pprofAddr := flag.String("pprof-addr", "",
		"listen address for net/http/pprof, e.g. localhost:6060 (empty = off; never on the serving mux)")
	flag.Parse()

	cfg := serve.Config{
		CacheSize:             *cacheSize,
		Workers:               *workers,
		MaxBatch:              *maxBatch,
		MaxGenerateIterations: *maxIterations,
		Logf:                  log.Printf,
		SlowQuery:             *slowQuery,
	}
	if *storeDir != "" {
		st, err := store.Open(*storeDir)
		if err != nil {
			log.Fatal(err)
		}
		if q := st.Quarantined(); q != "" {
			log.Printf("store: manifest in %s did not parse; moved it to %s and started with an empty store",
				*storeDir, q)
		}
		cfg.Store = st
	}
	sched, err := jobs.New(jobs.Config{
		Workers: *genWorkers,
		Dir:     *jobsDir,
		Logf:    log.Printf,
	})
	if err != nil {
		log.Fatal(err)
	}
	if q := sched.Quarantined(); q != "" {
		log.Printf("jobs: state file in %s did not parse; moved it to %s and started with an empty job history",
			*jobsDir, q)
	}
	cfg.Jobs = sched
	if *clusterPeers != "" || *clusterPeersFile != "" {
		if *clusterPeers != "" && *clusterPeersFile != "" {
			log.Fatal("use -cluster-peers or -cluster-peers-file, not both")
		}
		if *clusterSelf == "" {
			log.Fatal("cluster mode needs -cluster-self (this node's advertised base URL)")
		}
		var peers []string
		if *clusterPeersFile != "" {
			data, err := os.ReadFile(*clusterPeersFile)
			if err != nil {
				log.Fatal(err)
			}
			if peers, err = cluster.ParsePeersFile(data); err != nil {
				log.Fatal(err)
			}
		} else if peers, err = cluster.ParsePeers(*clusterPeers); err != nil {
			log.Fatal(err)
		}
		cl, err := cluster.New(cluster.Config{
			Self:           *clusterSelf,
			Peers:          peers,
			VNodes:         *clusterVNodes,
			Replicas:       *clusterReplicas,
			ForwardTimeout: *clusterForwardTimeout,
			FetchTimeout:   *clusterFetchTimeout,
			Retries:        *clusterRetries,
			RetryBackoff:   *clusterRetryBackoff,
			Logf:           log.Printf,
		})
		if err != nil {
			log.Fatal(err)
		}
		cfg.Cluster = cl
		log.Printf("cluster mode: %d nodes, self %s", len(cl.Peers()), cl.Self())
	}
	srv := serve.New(cfg)

	if cfg.Store != nil && *storeWarm != 0 {
		start := time.Now()
		n, err := srv.Warm(*storeWarm)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("warm-started %d cache entries from %s (%d structures + %d portfolios persisted) in %s",
			n, *storeDir, cfg.Store.Len(), len(cfg.Store.Portfolios()),
			time.Since(start).Round(time.Millisecond))
	}

	if interrupted := sched.Interrupted(); len(interrupted) > 0 {
		if *jobsResume {
			n := srv.ResumeInterrupted()
			log.Printf("resubmitted %d of %d generation jobs interrupted by the last shutdown",
				n, len(interrupted))
		} else {
			log.Printf("%d generation jobs interrupted by the last shutdown (listed as failed; -jobs-resume to resubmit)",
				len(interrupted))
		}
	}

	if *preload != "" {
		start := time.Now()
		spec := serve.GenerateSpec{Circuit: *preload, Effort: "quick", Backend: *preloadBackend}
		info, err := srv.Generate(spec)
		if err != nil {
			log.Fatalf("preload %s: %v", *preload, err)
		}
		log.Printf("preloaded %s (%s backend): %d placements, %.1f%% coverage in %s",
			*preload, info.Spec.Backend, info.Placements, 100*info.Coverage,
			time.Since(start).Round(time.Millisecond))
	}

	// ReadTimeout bounds slow-trickled request bodies (slowloris).
	// WriteTimeout is a deliberate per-request ceiling: generations beyond
	// it are cut off client-side but still complete and land in the cache
	// (the sync.Once run is not tied to the connection), so a retry after
	// the timeout is a cache hit rather than a second annealing run.
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           logRequests(srv.Handler()),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       2 * time.Minute,
		WriteTimeout:      30 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}

	// Profiling lives on its own listener, opt-in and typically bound to
	// localhost: the serving mux never exposes pprof, so the public port
	// leaks neither heap contents nor CPU time to whoever can reach it.
	if *pprofAddr != "" {
		pprofSrv := &http.Server{Addr: *pprofAddr, Handler: http.DefaultServeMux,
			ReadHeaderTimeout: 10 * time.Second}
		go func() {
			log.Printf("pprof listening on %s", *pprofAddr)
			if err := pprofSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("pprof server: %v", err)
			}
		}()
	}

	// Serve until SIGINT/SIGTERM, then drain in-flight requests.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("listening on %s", *addr)

	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
	}
	// Restore default signal handling so a second SIGINT/SIGTERM kills the
	// process immediately.
	stop()
	log.Print("shutting down (interrupt again to force quit)")
	// Cancel generation first: closing the server shuts the job scheduler
	// down, which stops in-flight annealing cooperatively (the context
	// plumbed through explorer and the BDIO ends the run within one
	// proposal) and fails waiting clients with 503s — with -jobs-dir the
	// state file records the interrupted jobs for resubmission at the next
	// boot. Only then drain HTTP; nothing is left to block on for minutes,
	// so the drain needs seconds, not the old generation-scale timeout.
	srv.Close()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	// Finish background store writes so a generation that completed during
	// the drain is not lost to the exit racing its persist.
	srv.Flush()
}

// logRequests is a minimal access log: method, path, status, latency.
func logRequests(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		lw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(lw, r)
		log.Printf("%s %s %d %s", r.Method, r.URL.Path, lw.status,
			time.Since(start).Round(time.Microsecond))
	})
}

type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(status int) {
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}
