// Observability wiring for the serve layer: one obs.Registry per Server,
// populated at construction with every metric family the daemon exports,
// plus the HTTP middleware that traces requests and feeds the per-route
// histograms and the slow-query log.
//
// Conventions (see ARCHITECTURE.md "Observability"):
//
//   - Every family is prefixed mps_ and uses base units (seconds, bytes).
//   - Label sets are bounded by construction: routes come from the fixed
//     routeLabel table, stages from the obs.Stage enum, peers from the
//     static cluster membership, job priorities from the submitter's
//     fixed priority scheme, circuits from the benchmark registry and
//     portfolio members from the daemon's member cap. Nothing
//     client-controlled becomes a label.
//   - Counters owned by other layers (cluster, jobs) stay where they are
//     — atomics next to the code that increments them — and are exported
//     through scrape-time CounterFunc/GaugeFunc closures, so /metrics
//     reads the same values GET /v1/jobs and the owning layer report.
package serve

import (
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"mps"
	"mps/internal/circuits"
	"mps/internal/cluster"
	"mps/internal/obs"
)

// routeLabels is the closed set of route label values. Unmatched paths
// collapse into "other" so a scanner probing random URLs cannot mint
// series.
var routeLabels = []string{
	"healthz", "metrics", "circuits", "backends", "structures",
	"instantiate", "jobs", "job", "cluster_structure", "cluster_accept",
	"cluster_rebalance", "debug_traces", "debug_trace", "other",
}

// routeLabel maps a request path to its route label.
func routeLabel(path string) string {
	switch path {
	case "/healthz":
		return "healthz"
	case "/metrics":
		return "metrics"
	case "/v1/circuits":
		return "circuits"
	case "/v1/backends":
		return "backends"
	case "/v1/structures":
		return "structures"
	case "/v1/instantiate":
		return "instantiate"
	case "/v1/jobs":
		return "jobs"
	case "/v1/cluster/structure":
		return "cluster_structure"
	case "/v1/cluster/accept":
		return "cluster_accept"
	case "/v1/cluster/rebalance":
		return "cluster_rebalance"
	case "/v1/debug/traces":
		return "debug_traces"
	}
	if len(path) > len("/v1/jobs/") && path[:len("/v1/jobs/")] == "/v1/jobs/" {
		return "job"
	}
	if len(path) > len("/v1/debug/traces/") && path[:len("/v1/debug/traces/")] == "/v1/debug/traces/" {
		return "debug_trace"
	}
	return "other"
}

// serverMetrics holds the Server's registry and the hot-path metric
// children, resolved once at construction so request handling never does
// a labeled lookup.
type serverMetrics struct {
	reg *obs.Registry

	// routes holds each route label's latency histogram and request
	// counters by status code.
	routes map[string]routeMetrics

	// Per-stage global accumulation, indexed by obs.Stage. A span counts
	// here when it ends (endSpan), so the stage totals do not depend on a
	// request surviving to the middleware epilogue — background fetches
	// count too.
	stageDur [obs.NumStages]*obs.Counter
	stageOps [obs.NumStages]*obs.Counter

	// answers[circuit][source] counts instantiate answers and routeWins
	// [member] the stored ones by answering member: served coverage and
	// route winners, live.
	answers   map[string]*[numSources]*obs.Counter
	routeWins [maxPortfolio]*obs.Counter

	genRuns         *obs.Counter
	persistErrs     *obs.Counter
	loadErrs        *obs.Counter
	cacheEvictions  *obs.Counter
	forwardedServed *obs.Counter
	slowQueries     *obs.Counter
}

type routeMetrics struct {
	hist  *obs.Histogram
	codes *obs.CodeCounters
}

// newServerMetrics builds the registry for s. Gauge and counter funcs
// close over s and read live state at scrape time; they take the same
// locks a request would (briefly), never the other way around, so a
// scrape can't deadlock the serving path.
func newServerMetrics(s *Server) *serverMetrics {
	reg := obs.NewRegistry()
	m := &serverMetrics{reg: reg, routes: make(map[string]routeMetrics, len(routeLabels))}

	reqCount := reg.CounterVec("mps_http_requests_total",
		"HTTP requests served, by route and status code.", "route", "code")
	durVec := reg.HistogramVec("mps_http_request_duration_seconds",
		"HTTP request latency by route.", "route")
	for _, rt := range routeLabels {
		m.routes[rt] = routeMetrics{hist: durVec.With(rt), codes: reqCount.Codes(rt)}
	}

	stageDur := reg.DurationCounterVec("mps_stage_duration_seconds_total",
		"Time attributed to each request stage (stages may overlap; see internal/obs).", "stage")
	stageOps := reg.CounterVec("mps_stage_ops_total",
		"Spans recorded per request stage.", "stage")
	for _, st := range obs.Stages() {
		m.stageDur[st] = stageDur.With(st.String())
		m.stageOps[st] = stageOps.With(st.String())
	}

	answers := reg.CounterVec("mps_instantiate_answers_total",
		"Instantiate query answers this node computed, by circuit and source (stored, backup or error).",
		"circuit", "source")
	m.answers = make(map[string]*[numSources]*obs.Counter)
	for _, name := range circuits.Names() {
		var cs [numSources]*obs.Counter
		for src, label := range sourceLabels {
			cs[src] = answers.With(name, label)
		}
		m.answers[name] = &cs
	}
	wins := reg.CounterVec("mps_portfolio_route_total",
		"Stored instantiate answers by the portfolio member that answered; a one-member entry reports member 0.",
		"member")
	for i := range m.routeWins {
		m.routeWins[i] = wins.With(strconv.Itoa(i))
	}

	m.genRuns = reg.Counter("mps_generation_runs_total",
		"Full annealing runs started (cache and store hits excluded).")
	m.persistErrs = reg.Counter("mps_store_persist_errors_total",
		"Background store writes that failed.")
	m.loadErrs = reg.Counter("mps_store_load_errors_total",
		"Store reads that failed (corrupt file, mismatched circuit).")
	m.cacheEvictions = reg.Counter("mps_cache_evictions_total",
		"Finished entries evicted from the LRU cache.")
	m.forwardedServed = reg.Counter("mps_forwarded_served_total",
		"Client requests served here that a peer forwarded (cluster peer-protocol traffic excluded).")
	m.slowQueries = reg.Counter("mps_slow_queries_total",
		"Requests over the configured slow-query threshold.")

	reg.GaugeFunc("mps_cache_entries",
		"Entries (finished or in flight) in the LRU cache.", func() float64 {
			s.mu.Lock()
			n := len(s.cache)
			s.mu.Unlock()
			return float64(n)
		})
	reg.GaugeFunc("mps_batch_slots_in_use",
		"Instantiate batch slots currently held.", func() float64 {
			return float64(len(s.batchSlots))
		})
	reg.GaugeFunc("mps_batch_slots_limit",
		"Server-wide concurrent instantiate batch bound.", func() float64 {
			return maxConcurrentBatches
		})

	// Jobs: live queue gauges plus the scheduler's monotonic lifetime
	// counters. One Metrics() snapshot per gauge keeps each closure
	// self-contained; the scheduler lock is held for microseconds.
	reg.GaugeVecFunc("mps_jobs_queue_depth",
		"Queued generation jobs by priority.", "priority", func() map[string]float64 {
			return s.sched.Metrics().QueueDepth
		})
	reg.GaugeFunc("mps_jobs_running",
		"Generation jobs currently holding a worker.", func() float64 {
			return float64(s.sched.Metrics().Running)
		})
	reg.GaugeFunc("mps_jobs_oldest_queued_seconds",
		"Age of the longest-queued job (0 when the queue is empty).", func() float64 {
			return s.sched.Metrics().OldestQueuedAge.Seconds()
		})
	reg.GaugeFunc("mps_jobs_oldest_running_seconds",
		"Age of the longest-running job (0 when idle).", func() float64 {
			return s.sched.Metrics().OldestRunningAge.Seconds()
		})
	reg.CounterVecFunc("mps_jobs_transitions_total",
		"Lifetime job lifecycle transitions by event.", "event", func() map[string]float64 {
			t := s.sched.Totals()
			return map[string]float64{
				"submitted":     float64(t.Submitted),
				"deduped":       float64(t.Deduped),
				"recorded_done": float64(t.RecordedDone),
				"started":       float64(t.Started),
				"done":          float64(t.Done),
				"failed":        float64(t.Failed),
				"cancelled":     float64(t.Cancelled),
			}
		})

	if s.cfg.Store != nil {
		st := s.cfg.Store
		reg.GaugeFunc("mps_store_entries",
			"Structures in the disk store manifest.", func() float64 {
				return float64(st.Stats().Entries)
			})
		reg.GaugeFunc("mps_store_portfolios",
			"Portfolio grouping rows in the disk store manifest.", func() float64 {
				return float64(st.Stats().Portfolios)
			})
		reg.GaugeFunc("mps_store_bytes",
			"Total bytes of persisted structure files.", func() float64 {
				return float64(st.Stats().Bytes)
			})
		reg.GaugeFunc("mps_store_manifest_quarantined",
			"1 when the store opened after moving an unparsable manifest aside.", func() float64 {
				if st.Quarantined() != "" {
					return 1
				}
				return 0
			})
	}

	if c := s.cluster; c != nil {
		reg.CounterVecFunc("mps_cluster_events_total",
			"Cluster routing outcomes by event.", "event", func() map[string]float64 {
				cs := c.Stats()
				return map[string]float64{
					"forward":      float64(cs.Forwards),
					"fallback":     float64(cs.Fallbacks),
					"fetch":        float64(cs.Fetches),
					"breaker_skip": float64(cs.BreakerSkips),
					"hot_fanout":   float64(c.HotFanouts()),
				}
			})
		reg.GaugeVecFunc("mps_cluster_breaker_state",
			"Per-peer circuit breaker state (0 closed, 1 half-open, 2 open); peers never contacted are absent.",
			"peer", c.BreakerGauges)
		// Ring shares are fixed for the life of the membership: compute
		// once, serve the same map every scrape.
		shares := c.Ring().Shares()
		reg.GaugeVecFunc("mps_cluster_ring_share",
			"Fraction of the key space this ring assigns to each node.",
			"peer", func() map[string]float64 { return shares })
	}

	ts := s.traces
	reg.CounterFunc("mps_traces_offered_total",
		"Completed requests offered to the trace store.", func() float64 {
			offered, _, _ := ts.Stats()
			return float64(offered)
		})
	reg.CounterFunc("mps_traces_retained_total",
		"Traces kept by tail sampling (error, slow, cross-node, or sampled).", func() float64 {
			_, retained, _ := ts.Stats()
			return float64(retained)
		})
	reg.GaugeFunc("mps_traces_buffered",
		"Trace segments currently in the ring buffer.", func() float64 {
			_, _, buffered := ts.Stats()
			return float64(buffered)
		})

	// Go runtime health — "is this node GC-bound?" answerable from
	// /metrics alone. The memstats-backed gauges share one cached
	// ReadMemStats sample (refreshed at most once a second) because each
	// read is a stop-the-world, and a scrape asks for several.
	var msc memStatsCache
	reg.GaugeFunc("go_goroutines",
		"Live goroutines.", func() float64 {
			return float64(runtime.NumGoroutine())
		})
	reg.GaugeFunc("go_gomaxprocs",
		"GOMAXPROCS — the scheduler's OS-thread parallelism bound.", func() float64 {
			return float64(runtime.GOMAXPROCS(0))
		})
	reg.GaugeFunc("go_memstats_heap_inuse_bytes",
		"Heap bytes in in-use spans.", func() float64 {
			return float64(msc.read().HeapInuse)
		})
	reg.GaugeFunc("go_memstats_heap_idle_bytes",
		"Heap bytes in idle spans (returnable to the OS).", func() float64 {
			return float64(msc.read().HeapIdle)
		})
	reg.CounterFunc("go_gc_pause_seconds_total",
		"Cumulative stop-the-world GC pause time.", func() float64 {
			return float64(msc.read().PauseTotalNs) / 1e9
		})
	reg.GaugeFunc("go_gc_last_gc_age_seconds",
		"Seconds since the last completed GC cycle (0 before the first).", func() float64 {
			last := msc.read().LastGC
			if last == 0 {
				return 0
			}
			age := time.Since(time.Unix(0, int64(last))).Seconds()
			if age < 0 {
				return 0
			}
			return age
		})
	return m
}

// memStatsCache amortizes runtime.ReadMemStats across the gauges that
// read it: one stop-the-world sample per refresh window, not per gauge.
type memStatsCache struct {
	mu   sync.Mutex
	at   time.Time
	snap runtime.MemStats
}

func (c *memStatsCache) read() runtime.MemStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	if now := time.Now(); c.at.IsZero() || now.Sub(c.at) > time.Second {
		runtime.ReadMemStats(&c.snap)
		c.at = now
	}
	return c.snap
}

// Sources of an instantiate answer, the source label values of
// mps_instantiate_answers_total.
const (
	sourceStored = iota
	sourceBackup
	sourceError
	numSources
)

var sourceLabels = [numSources]string{"stored", "backup", "error"}

// countAnswers tallies one batch's answers into locals and adds each
// non-zero tally to its series once: no per-query lookup. circuit is the
// entry's circuit, a registry name: every entry's circuit was resolved
// through mps.Benchmark. A member index at or past the daemon's cap has
// no route series and is not counted there.
func (m *serverMetrics) countAnswers(circuit string, batch []mps.BatchResult) {
	var sources [numSources]int64
	var wins [maxPortfolio]int64
	for i := range batch {
		switch r := &batch[i]; {
		case r.Err != nil:
			sources[sourceError]++
		case r.FromBackup:
			sources[sourceBackup]++
		default:
			sources[sourceStored]++
			if r.Member < maxPortfolio {
				wins[r.Member]++
			}
		}
	}
	cs := m.answers[circuit]
	for src, n := range sources {
		if n > 0 {
			cs[src].Add(n)
		}
	}
	for member, n := range wins {
		if n > 0 {
			m.routeWins[member].Add(n)
		}
	}
}

// observe records one stage duration measured outside a span (a job's
// run, from the scheduler's snapshot). Allocation-free.
func (m *serverMetrics) observe(st obs.Stage, d time.Duration) {
	if d > 0 {
		m.stageDur[st].AddDuration(d)
	}
	m.stageOps[st].Inc()
}

// endSpan commits sp to its trace and feeds the global per-stage
// counters. Allocation-free; safe on zero refs.
func (m *serverMetrics) endSpan(sp obs.SpanRef) time.Duration {
	d := sp.End()
	if d > 0 {
		m.stageDur[sp.Stage()].AddDuration(d)
	}
	m.stageOps[sp.Stage()].Inc()
	return d
}

// statusRecorder captures the response status for the request metrics and
// the slow-query log.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (w *statusRecorder) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// Flush keeps streaming handlers streaming through the wrapper.
func (w *statusRecorder) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap lets http.ResponseController reach the underlying writer for
// capabilities (hijack, deadlines) the wrapper does not intercept.
func (w *statusRecorder) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// instrument wraps the routing table with the observability epilogue:
// attach a Trace to the context — linked to the upstream span when the
// request carries an X-Mps-Trace header — then on completion record the
// per-route latency histogram and request counter, count forwarded client
// traffic, offer the trace to the tail-sampling store, and, when the
// request ran over SlowQuery, emit the slow-query line rendered from the
// record the store retained.
//
// The epilogue runs even when the handler panics — the deferred close
// treats the in-flight response as a 500 so the trace is finished and
// retained under the error rule, never leaked as a live span — and then
// lets the panic propagate to net/http's connection teardown.
func (s *Server) instrument(next http.Handler) http.Handler {
	m := s.metrics
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		route := routeLabel(r.URL.Path)
		upID, upSpan, _ := obs.ParseTraceHeader(r.Header.Get(obs.TraceHeader))
		ctx, tr := obs.WithTraceLink(r.Context(), upID, upSpan)
		w.Header().Set(obs.TraceIDHeader, tr.ID().String())
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()

		panicked := true
		finish := func() {
			elapsed := time.Since(start)
			status := rec.status
			if panicked && status < 500 {
				// The handler died mid-flight; whatever status the partial
				// write carried, the request failed.
				status = http.StatusInternalServerError
			}
			rm := m.routes[route]
			rm.hist.Observe(elapsed)
			rm.codes.Inc(status)
			// Forwarded *client* requests only: the /v1/cluster/* endpoints
			// always carry the forward mark (it is the peer-protocol loop
			// guard), so counting them would make every fetch look like a
			// forwarded client call.
			if forwarded(r) && route != "cluster_structure" &&
				route != "cluster_accept" && route != "cluster_rebalance" {
				m.forwardedServed.Inc()
			}
			var from string
			if fwd, _, err := cluster.ParseForward(r.Header.Get(cluster.ForwardHeader)); err == nil {
				from = fwd.From
			}
			// The store's slow rule uses the same threshold, so a slow
			// request's record is always retained.
			rec := s.traces.Offer(tr, route, from, status, elapsed)
			if s.cfg.SlowQuery > 0 && elapsed >= s.cfg.SlowQuery {
				m.slowQueries.Inc()
				line := rec.SlowQuery(r.Method, r.URL.Path, w.Header().Get(cluster.ServedByHeader))
				s.logf("slow-query %s", line.Render())
			}
		}
		defer func() {
			if panicked {
				finish()
			}
		}()
		next.ServeHTTP(rec, r.WithContext(ctx))
		panicked = false
		finish()
	})
}

// Registry exposes the server's metric registry — cmd/mpsd mounts its
// Handler, tests scrape it directly.
func (s *Server) Registry() *obs.Registry { return s.metrics.reg }
