// Package serve implements the HTTP/JSON placement query engine behind
// cmd/mpsd. It operationalizes the paper's Figure 1 split for a service
// setting: structures are generated once per (circuit, seed, options) key
// and held in a bounded LRU cache (Fig. 1a), and batched Instantiate
// traffic — the hot path of a layout-inclusive sizing loop (Fig. 1b,
// §3.3) — is answered from the cached structure through the facade's
// concurrent InstantiateBatch worker pool, which queries the compiled
// (flat, allocation-free) form of the structure. Every cache entry holds
// one artifact shape, a portfolio of 1..K member structures: a plain spec
// is its one-member case, which the portfolio answers without routing,
// and a portfolio spec fans its K members out as ordinary entries. The
// index is always materialized off the request path: after generation on
// the job worker, or right after the disk load or peer fetch.
//
// Generation requests for the same key are deduplicated: concurrent
// clients share one generation run (per-entry sync.Once) and all block on
// its completion, so a thundering herd costs one annealing run, not N.
//
// With a Store configured the cache becomes a write-through layer over a
// disk repository (internal/store): finished generations persist in the
// background, cache misses try a disk load (milliseconds) before an
// annealing run (minutes), and Warm preloads the newest persisted
// structures, and the portfolios over them, at startup — so a daemon
// restart never repeats generation work (the paper's "generate once" made
// durable).
//
// Generation itself is a background workload: every annealing run is a job
// on an internal/jobs scheduler (priority FIFO queue, bounded worker
// pool), never an inline call on a request goroutine. POST /v1/structures
// is submit-and-wait on that scheduler; POST /v1/jobs is submit-and-return
// (a job id comes back immediately), with GET /v1/jobs/{id} serving live
// progress snapshots and DELETE /v1/jobs/{id} cancelling cooperatively —
// a queued job never runs, a running one stops annealing within one
// inner-SA proposal and leaves no partial structure in cache or store.
package serve

import (
	"bytes"
	"container/list"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mps"
	"mps/internal/circuits"
	"mps/internal/cluster"
	"mps/internal/core"
	"mps/internal/gen"
	"mps/internal/jobs"
	"mps/internal/obs"
	"mps/internal/store"
)

// Config tunes a Server. The zero value is a sensible default.
type Config struct {
	// CacheSize bounds the number of generated structures kept in memory
	// (LRU eviction). Default 8.
	CacheSize int
	// Workers bounds the per-request InstantiateBatch worker pool.
	// 0 uses GOMAXPROCS.
	Workers int
	// MaxBatch caps queries per instantiate request. It also sizes the
	// request body limit (~1 KiB per query), so it bounds per-request
	// decode memory: the default 8192 keeps any one request under ~8 MiB.
	MaxBatch int
	// MaxGenerateIterations caps the explorer budget of every spec the
	// server admits (see admit), protecting the daemon from hours-scale
	// generation. The same cap bounds bdio_steps, and chains is bounded by
	// maxChains, so no spec field multiplies the work unboundedly.
	// Default 5000. Set negative to disable the cap.
	MaxGenerateIterations int
	// Store, when non-nil, is the disk-backed structure repository: cache
	// misses consult it before paying for an annealing run, finished
	// generations are persisted to it in the background (Flush waits for
	// them), and Warm preloads its newest entries into the LRU at
	// startup. Nil keeps the server memory-only.
	Store *store.Dir
	// Jobs, when non-nil, is the generation job scheduler the server runs
	// every annealing job on — supply one (see internal/jobs) to persist
	// job state across restarts or to tune its worker pool. Nil creates a
	// memory-only scheduler with the jobs package's default pool of 2
	// workers: dedup only collapses identical specs, and the pool stops a
	// sweep of distinct seeds from launching unbounded annealing runs —
	// excess jobs queue. Either way the server owns the scheduler after
	// New — Close shuts it down — so it must be exclusive to this server.
	Jobs *jobs.Scheduler
	// Cluster, when non-nil, puts the server in cluster mode: the
	// canonical spec key is consistent-hashed over the peer set, requests
	// for non-owned keys are forwarded (single-hop) to the owning node,
	// and non-owned keys served locally (replica fan-out, owner-down
	// fallback, portfolio members owned elsewhere) are fetched as built
	// artifacts from peers before any local generation. See
	// internal/serve/cluster.go for the routing rules.
	Cluster *cluster.Cluster
	// Logf, when non-nil, receives operational log lines (store persist
	// or warm-load failures). Nil discards them; counters still track.
	Logf func(format string, args ...any)
	// SlowQuery, when positive, is the one slow-request threshold: the
	// tail sampler retains the trace of every request that takes at least
	// this long, and the request is logged as a one-line JSON record
	// through Logf, rendered from that trace, with the per-stage time
	// breakdown naming where the time went. The mps_slow_queries_total
	// counter counts these requests even when Logf is nil. Zero disables
	// both the log and the sampler's slow rule.
	SlowQuery time.Duration
}

// Trace retention: each node keeps its last traceBuffer completed trace
// segments for /v1/debug/traces, and besides every error, slow and
// cross-node trace it keeps the traceSample share of the rest, decided
// from the trace ID so every node keeps the same traces.
const (
	traceBuffer = 512
	traceSample = 0.1
)

func (cfg Config) withDefaults() Config {
	if cfg.CacheSize <= 0 {
		cfg.CacheSize = 8
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 8192
	}
	if cfg.MaxGenerateIterations == 0 {
		cfg.MaxGenerateIterations = 5000
	}
	return cfg
}

// maxConcurrentBatches bounds how many instantiate batches execute at once
// server-wide (each uses up to Config.Workers goroutines); excess requests
// queue. Keeps N concurrent clients from oversubscribing the CPU with
// N×Workers runnable goroutines.
const maxConcurrentBatches = 4

// Server is the query engine: an LRU cache of generated structures plus
// the HTTP handlers that fill and query it. Safe for concurrent use.
type Server struct {
	cfg Config

	// sched runs every generation as a background job; requests submit
	// and wait instead of annealing inline.
	sched *jobs.Scheduler

	// cluster is cfg.Cluster (nil in single-node mode), hoisted for the
	// hot routing checks.
	cluster *cluster.Cluster

	// batchSlots is a semaphore bounding concurrent batch executions to
	// maxConcurrentBatches.
	batchSlots chan struct{}

	// metrics is the server's observability registry plus the hot-path
	// metric children; the genRuns/persistErrs/loadErrs fields below
	// alias its counters so the incrementing code (and tests calling
	// Load) reads the same as when they were plain atomics.
	metrics *serverMetrics

	// traces is the tail-sampled ring of completed request traces behind
	// /v1/debug/traces and the slow-query log.
	traces *obs.TraceStore

	// genRuns counts full annealing runs started — not cache or store
	// hits — so tests and operators can verify warm-started structures
	// are served without regeneration.
	genRuns *obs.Counter
	// persistWG tracks in-flight background store writes; persistErrs
	// counts the ones that failed and loadErrs the store reads that did
	// (both also reported through Logf).
	persistWG   sync.WaitGroup
	persistErrs *obs.Counter
	loadErrs    *obs.Counter

	mu    sync.Mutex
	cache map[string]*entry
	order *list.List // front = most recently used; values are *entry
}

// entry is one cached (or in-flight) generation. The start once gates the
// work — a disk-store rehydration or a job submission — so concurrent
// requests for the same key share it; ready closes when the result (or
// failure) publishes.
type entry struct {
	key      string
	spec     GenerateSpec
	priority int
	elem     *list.Element

	// waiters counts requests currently interested in this entry; the
	// queued-job cancel path only fires when the canceling request is
	// the sole waiter, so one flaky client cannot fail a patient herd.
	waiters atomic.Int64

	start sync.Once
	// ready closes exactly once, in publish, after the result fields
	// below are set. Readers either select on ready (and then read the
	// fields lock-free: they are never written again) or hold the server
	// mutex and check done.
	ready chan struct{}
	// jobID is the scheduler job producing (or having produced) this
	// entry; written under the server mutex in startWork, "" until then.
	// Portfolio entries have no job of their own while members generate:
	// jobID stays "" until fan-in records the born-done portfolio job,
	// and memberJobIDs (written under the server mutex during fan-out)
	// names the K member jobs doing the actual annealing.
	jobID        string
	memberJobIDs []string

	// done and the fields below are written exactly once, under the
	// server mutex, when generation finishes. p is set on success: every
	// entry holds one portfolio, of one member for a single-structure spec
	// and of K members for a portfolio spec. placements and coverage
	// snapshot the artifact at publish time so listing the cache never
	// walks structure internals while holding the global mutex.
	done       bool
	p          *mps.Portfolio
	stats      mps.Stats
	placements int
	coverage   float64
	err        error
}

// New returns a Server ready to serve. The server owns its job scheduler
// (provided or internally created): Close shuts it down.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	sched := cfg.Jobs
	if sched == nil {
		// A memory-only scheduler cannot fail to construct (no state file
		// to load).
		sched, _ = jobs.New(jobs.Config{Logf: cfg.Logf})
	}
	node := "local"
	if cfg.Cluster != nil {
		node = cfg.Cluster.Self()
	}
	s := &Server{
		cfg:        cfg,
		sched:      sched,
		cluster:    cfg.Cluster,
		batchSlots: make(chan struct{}, maxConcurrentBatches),
		traces:     obs.NewTraceStore(node, traceBuffer, cfg.SlowQuery, traceSample),
		cache:      make(map[string]*entry),
		order:      list.New(),
	}
	s.metrics = newServerMetrics(s)
	s.genRuns = s.metrics.genRuns
	s.persistErrs = s.metrics.persistErrs
	s.loadErrs = s.metrics.loadErrs
	return s
}

// Close shuts down the server's job scheduler: queued jobs are abandoned,
// running generations are cancelled cooperatively (the nested annealers
// stop within one proposal), and waiting requests fail with a
// cancellation error. Instantiate traffic against cached structures keeps
// working. Call Flush separately to drain background store writes.
func (s *Server) Close() { s.sched.Close() }

// Jobs exposes the server's scheduler (for health endpoints and tests).
func (s *Server) Jobs() *jobs.Scheduler { return s.sched }

// GenerateSpec identifies a structure: the circuit plus every Generate
// option that affects the result. It doubles as the cache key source.
//
// Portfolio > 1 asks for a K-member structure portfolio instead of a
// single structure: member i is the single-structure spec with Seed =
// mps.PortfolioMemberSeed(Seed, i) and Portfolio folded away, each member
// generated as its own scheduler job (fan-out) and the portfolio published
// once all K land (fan-in). Member specs are ordinary cache/store/job
// citizens, so members deduplicate against identical single-structure
// requests and against other portfolios sharing a member.
type GenerateSpec struct {
	Circuit       string `json:"circuit"`
	Seed          int64  `json:"seed"`
	Effort        string `json:"effort,omitempty"` // quick | balanced | thorough
	Iterations    int    `json:"iterations,omitempty"`
	BDIOSteps     int    `json:"bdio_steps,omitempty"`
	Chains        int    `json:"chains,omitempty"`
	MaxPlacements int    `json:"max_placements,omitempty"`
	Backup        string `json:"backup,omitempty"` // tree | seqpair
	// Backend selects the generation backend (GET /v1/backends lists
	// them); empty means "anneal", so every spec written before backends
	// existed keeps its meaning, its cache key, and its store artifacts.
	Backend string `json:"backend,omitempty"`
	// Portfolio is the member count K; 0 and 1 both mean a single
	// structure (and share one cache key).
	Portfolio int `json:"portfolio,omitempty"`
	// Weights selects the generation objective (see cost.Weights).
	// Omitted, all-zero, and the explicit balanced vector all mean the
	// default objective and are folded to nil, so default-weight specs
	// keep their historical keys and artifacts.
	Weights *WeightsSpec `json:"weights,omitempty"`
	// MemberWeights gives portfolio member i its generation objective
	// (requires Portfolio > 1, length K): member i uses MemberWeights[i]
	// when non-zero, else Weights. Unlike the facade, a plain portfolio
	// spec gets NO implicit weight ladder — an unweighted spec must keep
	// producing the exact members its key always named — so weight
	// diversity over HTTP is always explicit.
	MemberWeights []WeightsSpec `json:"member_weights,omitempty"`
}

// WeightsSpec is the JSON form of an objective weight vector: omitted
// components weigh zero, and the all-zero vector means the default
// balanced objective.
type WeightsSpec struct {
	Wire   float64 `json:"wire,omitempty"`
	Area   float64 `json:"area,omitempty"`
	Aspect float64 `json:"aspect,omitempty"`
}

// weights converts to the facade vector (nil = the zero vector).
func (w *WeightsSpec) weights() mps.Weights {
	if w == nil {
		return mps.Weights{}
	}
	return mps.Weights{Wire: w.Wire, Area: w.Area, Aspect: w.Aspect}
}

// validateNames is the one place the spec's enumerated string fields are
// checked and defaulted: effort, backup, and backend all resolve here,
// so no path can reach generation with a name validation missed (the
// backup field used to be the cautionary tale — accepted here, failing
// only deep in the facade). Mutates the spec to the canonical names.
func (g *GenerateSpec) validateNames() error {
	switch g.Effort {
	case "":
		g.Effort = "balanced"
	case "quick", "balanced", "thorough":
	default:
		return fmt.Errorf("unknown effort %q (want quick, balanced, or thorough)", g.Effort)
	}
	switch g.Backup {
	case "":
		g.Backup = "tree"
	case "tree", "seqpair":
	default:
		return fmt.Errorf("unknown backup %q (want tree or seqpair)", g.Backup)
	}
	if g.Backend == "" {
		g.Backend = mps.DefaultBackend
	}
	if _, err := gen.ByName(g.Backend); err != nil {
		return fmt.Errorf("unknown backend %q (registered: %s)",
			g.Backend, strings.Join(mps.Backends(), ", "))
	}
	if err := g.Weights.weights().Validate(); err != nil {
		return fmt.Errorf("weights: %w", err)
	}
	for i := range g.MemberWeights {
		if err := g.MemberWeights[i].weights().Validate(); err != nil {
			return fmt.Errorf("member_weights[%d]: %w", i, err)
		}
	}
	return nil
}

// normalize validates the spec and fills implied defaults so equivalent
// specs map to one cache key.
func (g *GenerateSpec) normalize() error {
	if g.Circuit == "" {
		return fmt.Errorf("missing circuit")
	}
	if err := circuits.CheckName(g.Circuit); err != nil {
		return err
	}
	if err := g.validateNames(); err != nil {
		return err
	}
	if g.Iterations < 0 || g.BDIOSteps < 0 || g.Chains < 0 || g.MaxPlacements < 0 {
		return fmt.Errorf("negative budget")
	}
	if g.Portfolio < 0 {
		return fmt.Errorf("negative portfolio size")
	}
	// Canonicalize the 0-means-default budget fields so provably identical
	// specs share one cache key (and one generation run): resolve effort
	// presets into concrete budgets, fold chains 0 to the single chain the
	// explorer runs anyway, and fold portfolio 0 to the single structure
	// it already means.
	g.Iterations, g.BDIOSteps = g.options().Budgets()
	if g.Chains == 0 {
		g.Chains = 1
	}
	if g.Portfolio == 0 {
		g.Portfolio = 1
	}
	if len(g.MemberWeights) != 0 {
		if g.Portfolio <= 1 {
			return fmt.Errorf("member_weights given for a single-structure spec")
		}
		if len(g.MemberWeights) != g.Portfolio {
			return fmt.Errorf("%d member_weights for a %d-member portfolio",
				len(g.MemberWeights), g.Portfolio)
		}
	}
	g.canonWeights()
	return nil
}

// canonWeights folds the weights fields to canonical form so provably
// equivalent weightings share one cache key: a spec-level vector meaning
// the default objective drops to nil; a member entry meaning the same
// objective an omitted entry would resolve to drops to the zero entry;
// and an all-zero member list drops entirely. Every fold preserves
// memberWeight's resolution, so folding never changes what generates —
// only which of several equivalent spellings names it.
func (g *GenerateSpec) canonWeights() {
	if g.Weights != nil && g.Weights.weights().IsDefault() {
		g.Weights = nil
	}
	if len(g.MemberWeights) == 0 {
		g.MemberWeights = nil
		return
	}
	allZero := true
	for i := range g.MemberWeights {
		// With no spec-level vector, an omitted member entry resolves to
		// the default objective — so an entry naming the default
		// explicitly folds to omitted. With a spec-level vector the two
		// spellings differ (omitted inherits g.Weights) and must not fold.
		if g.Weights == nil && g.MemberWeights[i].weights().IsDefault() {
			g.MemberWeights[i] = WeightsSpec{}
		}
		if (g.MemberWeights[i] != WeightsSpec{}) {
			allZero = false
		}
	}
	if allZero {
		g.MemberWeights = nil
	}
}

// memberWeight resolves member i's generation objective: its
// MemberWeights entry when non-zero, else the spec-level vector (zero
// when neither is given — the default objective).
func (g GenerateSpec) memberWeight(i int) mps.Weights {
	if i < len(g.MemberWeights) {
		if w := g.MemberWeights[i].weights(); !w.IsZero() {
			return w
		}
	}
	return g.Weights.weights()
}

// resolvedMemberWeights is the per-member generation weight record a
// portfolio spec's manifest row keeps for operators (nil when the spec
// names no weights at all — the historical weightless portfolio).
func (g GenerateSpec) resolvedMemberWeights() []mps.Weights {
	if g.Weights == nil && len(g.MemberWeights) == 0 {
		return nil
	}
	ws := make([]mps.Weights, g.Portfolio)
	for i := range ws {
		ws[i] = g.memberWeight(i)
	}
	return ws
}

// key derives the cache key from the fields that affect the generated
// structure. Effort is deliberately absent: normalize resolved it into
// concrete Iterations/BDIOSteps, so two specs differing only in how they
// named the same budgets share one entry. The portfolio suffix appears
// only for K > 1, the backend tag only for non-default backends, and the
// weight tags only for weightings canonWeights could not fold away, so
// single-structure anneal keys — and every weightless spec's key — are
// byte-identical to what pre-portfolio, pre-backend, and pre-weights
// manifests and job files recorded: every existing cache entry, store
// artifact, and cluster assignment stays valid.
func (g GenerateSpec) key() string {
	b := make([]byte, 0, 128)
	b = append(b, g.Circuit...)
	b = append(b, "|seed="...)
	b = strconv.AppendInt(b, g.Seed, 10)
	b = append(b, "|it="...)
	b = strconv.AppendInt(b, int64(g.Iterations), 10)
	b = append(b, "|bdio="...)
	b = strconv.AppendInt(b, int64(g.BDIOSteps), 10)
	b = append(b, "|chains="...)
	b = strconv.AppendInt(b, int64(g.Chains), 10)
	b = append(b, "|maxp="...)
	b = strconv.AppendInt(b, int64(g.MaxPlacements), 10)
	b = append(b, "|backup="...)
	b = append(b, g.Backup...)
	if g.Backend != "" && g.Backend != mps.DefaultBackend {
		b = append(b, "|backend="...)
		b = append(b, g.Backend...)
	}
	if g.Weights != nil {
		b = append(b, "|w="...)
		b = g.Weights.weights().AppendKey(b)
	}
	if g.Portfolio > 1 {
		b = append(b, "|k="...)
		b = strconv.AppendInt(b, int64(g.Portfolio), 10)
		if len(g.MemberWeights) != 0 {
			b = append(b, "|mw="...)
			for i := range g.MemberWeights {
				if i > 0 {
					b = append(b, ';')
				}
				// Zero entries (inherit the spec-level vector) stay empty so
				// the suffix round-trips the canonical spec exactly.
				if w := g.MemberWeights[i].weights(); !w.IsZero() {
					b = w.AppendKey(b)
				}
			}
		}
	}
	return string(b)
}

// memberSpec derives portfolio member i's single-structure spec: the
// shared member-seed rule, Portfolio folded to 1, and the member's
// resolved weight vector promoted to the spec-level Weights field (a
// single-structure spec has no member list), every other field
// unchanged. Members therefore share cache keys, store files, and
// scheduler jobs with identical single-structure specs — including
// weighted ones: a portfolio member generated under the wire-heavy rung
// deduplicates against a standalone wire-heavy request at the same
// derived seed.
func (g GenerateSpec) memberSpec(i int) GenerateSpec {
	m := g
	m.Seed = mps.PortfolioMemberSeed(g.Seed, i)
	m.Portfolio = 1
	m.MemberWeights = nil
	m.Weights = nil
	if w := g.memberWeight(i); !w.IsZero() && !w.IsDefault() {
		m.Weights = &WeightsSpec{Wire: w.Wire, Area: w.Area, Aspect: w.Aspect}
	}
	return m
}

// backupKind maps the spec's backup name to the facade's enum.
func (g GenerateSpec) backupKind() mps.BackupKind {
	if g.Backup == "seqpair" {
		return mps.BackupSequencePair
	}
	return mps.BackupSlicingTree
}

// structure wraps a decoded structure — from the store, a peer fetch or a
// cluster transfer — for serving, installing the backup the spec names:
// only the backup must be rebuilt (it is derived from the circuit, not
// persisted).
func (g GenerateSpec) structure(cs *core.Structure) *mps.Structure {
	st := &mps.Structure{Structure: cs}
	st.SetBackupKind(g.backupKind())
	return st
}

func (g GenerateSpec) options() mps.Options {
	effort := mps.EffortBalanced
	switch g.Effort {
	case "quick":
		effort = mps.EffortQuick
	case "thorough":
		effort = mps.EffortThorough
	}
	return mps.Options{
		Seed:          g.Seed,
		Iterations:    g.Iterations,
		BDIOSteps:     g.BDIOSteps,
		Effort:        effort,
		Chains:        g.Chains,
		MaxPlacements: g.MaxPlacements,
		Backup:        g.backupKind(),
	}
}

// maxChains bounds the chains an admitted spec may name regardless of the
// iteration cap — each chain is a full explorer run.
const maxChains = 64

// maxPortfolio bounds the portfolio members an admitted spec may name — each
// member is a full generation job, so K multiplies the annealing work.
// Deliberately below the library's MaxPortfolioMembers: a daemon serves
// many clients, a library call serves one.
const maxPortfolio = 8

// admit is the one door into the cache: it normalizes the spec, checks
// the daemon's caps and returns the canonical key. Every spec this node
// serves passes here or through recordedSpec (a request's, a bare key's
// recorded spec, a warm-start row, a resumed job, a rebalance push), so
// nothing generates, fans out or serves past a cap. A request's spec is
// admitted before the request is forwarded, so the entry node's caps
// decide for it. Refusals are clientErrors (400).
func (s *Server) admit(g *GenerateSpec) (string, error) {
	err := g.normalize()
	limit := s.cfg.MaxGenerateIterations
	switch {
	case err != nil:
	case g.Chains > maxChains:
		err = fmt.Errorf("chains %d exceeds daemon cap %d", g.Chains, maxChains)
	case g.Portfolio > maxPortfolio:
		err = fmt.Errorf("portfolio size %d exceeds daemon cap %d", g.Portfolio, maxPortfolio)
	case limit >= 0 && g.Iterations > limit:
		err = fmt.Errorf("iterations %d exceeds daemon cap %d", g.Iterations, limit)
	case limit >= 0 && g.BDIOSteps > limit:
		err = fmt.Errorf("bdio_steps %d exceeds daemon cap %d", g.BDIOSteps, limit)
	}
	if err != nil {
		return "", clientError{err}
	}
	return g.key(), nil
}

// errNoRecord is recordedSpec's answer for a key with no usable recorded
// spec: none was found, or the record does not decode or names another
// key. Callers treat the key as unrecorded.
var errNoRecord = errors.New("no usable recorded spec")

// recordedSpec admits the spec recorded under key — a store manifest
// row's options, a peer's spec header, a jobs.json record — and requires
// it to rebuild exactly key. An empty raw is no record; a record that does
// not decode or rebuilds another key is logged and is no record either.
// An admit refusal comes back as admit's error.
func (s *Server) recordedSpec(key, raw string) (GenerateSpec, error) {
	if raw == "" {
		return GenerateSpec{}, errNoRecord
	}
	var spec GenerateSpec
	if err := json.Unmarshal([]byte(raw), &spec); err != nil {
		s.logf("spec: options for %s: %v", key, err)
		return GenerateSpec{}, errNoRecord
	}
	got, err := s.admit(&spec)
	if err != nil {
		return GenerateSpec{}, err
	}
	if got != key {
		s.logf("spec: options for %s rebuild to %s (key drift)", key, got)
		return GenerateSpec{}, errNoRecord
	}
	return spec, nil
}

// evictLocked shrinks the cache to its bound, least-recently-used first.
// In-flight entries are skipped so an eviction can never duplicate a
// running generation; the cache may transiently exceed its bound while
// herds generate, which is why publication re-runs this pass. Callers must
// hold s.mu.
func (s *Server) evictLocked() {
	for s.order.Len() > s.cfg.CacheSize {
		var victim *list.Element
		for el := s.order.Back(); el != nil; el = el.Prev() {
			if el.Value.(*entry).done {
				victim = el
				break
			}
		}
		if victim == nil {
			return
		}
		s.order.Remove(victim)
		delete(s.cache, victim.Value.(*entry).key)
		s.metrics.cacheEvictions.Inc()
	}
}

// ensure returns the cache entry for the spec, whose key is key, creating
// it and starting its work (disk rehydration or job submission) on first
// use; the spec is admitted, or a member of an admitted spec. The entry
// comes back with the caller registered as a waiter — callers must
// e.waiters.Add(-1) when done with it. The returned bool reports a true
// cache hit: the entry had already finished, not merely landing on an
// in-flight one.
//
// tr is the requesting trace (nil for background callers) and parent the
// span the inline work should nest under (0 = the trace root): the first
// caller runs the inline read-through, so its trace gets the store-read
// and compile spans; later callers land on the same entry and wait.
func (s *Server) ensure(tr *obs.Trace, parent obs.SpanID, spec GenerateSpec, key string, priority int) (*entry, bool) {
	s.mu.Lock()
	e, hit := s.cache[key]
	wasDone := hit && e.done
	if !hit {
		e = &entry{key: key, spec: spec, priority: priority, ready: make(chan struct{})}
		e.elem = s.order.PushFront(e)
		s.cache[key] = e
		s.evictLocked()
	} else {
		s.order.MoveToFront(e.elem)
	}
	e.waiters.Add(1)
	s.mu.Unlock()
	e.start.Do(func() { s.startWork(tr, parent, e) })
	return e, wasDone
}

// startWork produces the entry's structure: a disk-store rehydration when
// available (milliseconds, done inline so it never queues behind
// annealing jobs), else a job submission to the scheduler. Portfolio
// specs branch into the member fan-out instead. Exactly one of the
// resulting paths — store hit, submit failure, the job's run, or the
// job's abandon hook — calls publish, which closes e.ready.
func (s *Server) startWork(tr *obs.Trace, parent obs.SpanID, e *entry) {
	if e.spec.Portfolio > 1 {
		s.startPortfolioWork(tr, parent, e)
		return
	}
	// Read-through: a structure persisted by an earlier process (or
	// evicted from this one) is rehydrated from disk in milliseconds
	// instead of regenerated in minutes. Load failures (corrupt file,
	// missing entry) fall through to a fresh generation.
	if p, stats, err := s.loadFromStore(tr, parent, e.spec); err == nil && p != nil {
		s.publishDone(e, p, stats)
		return
	}
	// Cluster mode, non-owned key: this node is serving the key anyway
	// (replica fan-out, owner-down fallback, or a portfolio member owned
	// elsewhere). Pull the built artifact from a peer — or have the owner
	// generate it — before annealing here; off this goroutine, because
	// peer calls are network-scale and ensure's caller may be fanning out
	// K members. remoteWork degrades to submitGeneration when no peer can
	// help, so exactly one path publishes either way.
	if s.cluster != nil && !s.cluster.Owns(e.key) {
		go s.remoteWork(tr, e)
		return
	}
	s.submitGeneration(tr, e)
}

// submitGeneration queues the entry's annealing run on the local job
// scheduler — the tail of startWork, split out so the cluster path can
// fall back to it after peer routes fail. tr (nil for background work)
// receives the job_run span; it parents to the trace root because the
// job routinely outlives the request span that submitted it.
func (s *Server) submitGeneration(tr *obs.Trace, e *entry) {
	// Run and Done execute sequentially on the same worker, so the result
	// variables they share need no further synchronization. Publication
	// happens in Done, after the scheduler has finished the job's
	// bookkeeping. The entry submits at most once, so it is the only dedup
	// layer a key's generation has.
	var genP *mps.Portfolio
	var genStats mps.Stats
	var genErr error
	snap, err := s.sched.Submit(jobs.Request{
		Key:      e.key,
		Spec:     mustSpecJSON(e.spec),
		Priority: e.priority,
		Trace:    tr,
		Run: func(ctx context.Context, report func(jobs.Progress)) error {
			genP, genStats, genErr = s.runGeneration(ctx, e.spec, report)
			// Write-through: persist the finished structure off the job
			// path. The annealing run took minutes; the disk write takes
			// milliseconds and must never hold the worker (or a waiting
			// client) hostage. On error, nothing persists — a cancelled or
			// failed run leaves no partial structure in the store, and
			// publish drops the entry so none lingers in the cache either.
			if genErr == nil {
				s.persistAsync(e.spec, genP, genStats.FinalCoverage)
			}
			return genErr
		},
		Done: func(snap jobs.Snapshot) {
			// The scheduler records the job_run span on the submitting trace;
			// the server-wide stage counters live here, where the metrics are.
			if snap.Finished.After(snap.Started) {
				s.metrics.observe(obs.StageJobRun, snap.Finished.Sub(snap.Started))
			}
			s.publish(e, genP, genStats, genErr)
		},
		Abandon: func(reason error) {
			s.publish(e, nil, mps.Stats{}, fmt.Errorf("generation canceled while queued: %w: %w", reason, context.Canceled))
		},
	})
	if err != nil {
		s.publish(e, nil, mps.Stats{}, err)
		return
	}
	s.setJobID(e, snap.ID)
}

// setJobID records the scheduler job backing the entry.
func (s *Server) setJobID(e *entry, id string) {
	s.mu.Lock()
	e.jobID = id
	s.mu.Unlock()
}

// runGeneration executes one full annealing run under the job's context,
// translating generation progress into job progress, and returns the
// structure as the one-member portfolio its cache entry holds. Panics
// become errors so a misbehaving generator fails one entry, not the
// daemon.
func (s *Server) runGeneration(ctx context.Context, spec GenerateSpec, report func(jobs.Progress)) (p *mps.Portfolio, stats mps.Stats, err error) {
	defer func() {
		if r := recover(); r != nil {
			p, err = nil, fmt.Errorf("generation panic: %v", r)
		}
	}()
	circuit, err := mps.Benchmark(spec.Circuit)
	if err != nil {
		return nil, mps.Stats{}, err
	}
	opts := spec.options()
	if report != nil {
		opts.Progress = func(p mps.Progress) {
			report(jobs.Progress{
				Chain:      p.Chain,
				Iteration:  p.Iteration,
				Placements: p.Placements,
				Coverage:   p.Coverage,
			})
		}
	}
	s.genRuns.Add(1)
	res, err := mps.Run(ctx, mps.Request{
		Circuit: circuit, Options: opts, Backend: spec.Backend,
		Weights: spec.Weights.weights(),
	})
	if len(res.Stats) > 0 {
		stats = res.Stats[0]
	}
	if err != nil {
		return nil, stats, err
	}
	// Wrapping compiles on the job worker, not on the first instantiate
	// request: queries against this structure find the index ready.
	return single(res.Structure), stats, nil
}

// startPortfolioWork produces a portfolio entry: the K member specs fan
// out synchronously through ensure — so each member is its own cache
// entry, store read-through, and scheduler job, deduplicated against
// identical single-structure work — and a fan-in goroutine waits for all
// members, assembles the routing layer, and publishes. It is the server's
// only K>1 assembler: requests, ResumeInterrupted and Warm all land
// groupings here. A fully persisted portfolio still assembles in
// milliseconds (every member ensure is a store read-through, no
// annealing) while its members land as shared cache entries; there is
// deliberately no grouping-row fast path here, because it would load
// private member copies and defeat that sharing — the grouping row exists
// for listings, for resolving a bare key to its spec, and for Warm's
// order. This is the one place the scheduler runs cooperative multi-job
// work for a single logical artifact: the K jobs proceed in parallel up to
// the worker-pool bound.
func (s *Server) startPortfolioWork(tr *obs.Trace, parent obs.SpanID, e *entry) {
	k := e.spec.Portfolio
	members := make([]*entry, k)
	memberIDs := make([]string, 0, k)
	for i := 0; i < k; i++ {
		mspec := e.spec.memberSpec(i)
		me, _ := s.ensure(tr, parent, mspec, mspec.key(), e.priority)
		members[i] = me
		s.mu.Lock()
		if me.jobID != "" {
			memberIDs = append(memberIDs, me.jobID)
		}
		s.mu.Unlock()
	}
	s.mu.Lock()
	e.memberJobIDs = memberIDs
	s.mu.Unlock()

	// Fan-in off the caller's goroutine: member waits are generation-scale.
	// Each member keeps this goroutine registered as a waiter until its
	// result is read, so a member is never silently dropped mid-portfolio
	// by some other client's disconnect.
	go func() {
		structures := make([]*mps.Structure, k)
		var memberErr error
		for i, me := range members {
			<-me.ready
			if me.err != nil && memberErr == nil {
				memberErr = fmt.Errorf("portfolio member %d (%s): %w", i, me.key, me.err)
			}
			if me.err == nil {
				structures[i] = &mps.Structure{Structure: me.p.Member(0)}
			}
			me.waiters.Add(-1)
		}
		if memberErr != nil {
			s.publish(e, nil, mps.Stats{}, memberErr)
			return
		}
		p, err := mps.NewPortfolio(structures)
		if err != nil {
			s.publish(e, nil, mps.Stats{}, err)
			return
		}
		// Member generation stats live with the member entries; the
		// portfolio's own stats carry the merged coverage.
		stats := mps.Stats{FinalCoverage: portfolioCoverage(p, e.spec.Seed)}
		// A grouping row already on disk stays as it is: re-assembling a
		// persisted portfolio (after Warm, or after an eviction) rewrites no
		// manifest and keeps the row's Created, which orders Warm.
		if s.cfg.Store != nil {
			if _, ok := s.cfg.Store.GetPortfolio(e.key); !ok {
				s.persistAsync(e.spec, p, stats.FinalCoverage)
			}
		}
		s.publishDone(e, p, stats)
	}()
}

// portfolioCoverage is the merged (union) covered fraction estimate
// published for a portfolio. Monte-Carlo because member boxes overlap
// across members, so the union has no cheap exact form; the seed-derived
// rng keeps the listing deterministic for a given portfolio.
func portfolioCoverage(p *mps.Portfolio, seed int64) float64 {
	return p.CoverageMonteCarlo(rand.New(rand.NewSource(seed^0x706f7274)), 4096)
}

// mustSpecJSON marshals a normalized spec; by construction this cannot
// fail (plain struct of strings and ints).
func mustSpecJSON(spec GenerateSpec) json.RawMessage {
	b, err := json.Marshal(spec)
	if err != nil {
		panic(fmt.Sprintf("serve: encoding spec: %v", err))
	}
	return b
}

// structureFor returns the cached structure for the admitted spec, whose
// key is key, scheduling its generation on first use and waiting for it.
// Concurrent callers for one key share a single run. The returned bool
// reports a true cache hit — the entry had already finished generating —
// not merely landing on an in-flight entry and waiting for it.
func (s *Server) structureFor(ctx context.Context, spec GenerateSpec, key string) (*entry, bool, error) {
	tr := obs.TraceFrom(ctx)
	tr.Annotate(key)
	cacheSpan := tr.StartSpan(obs.StageCache)
	cacheSpan.SetKey(key)
	e, wasDone := s.ensure(tr, cacheSpan.SpanID(), spec, key, 0)
	// The cache span covers lookup plus any inline read-through ensure ran
	// on this goroutine (store_read/compile nest under it by design).
	s.metrics.endSpan(cacheSpan)
	defer e.waiters.Add(-1)
	select {
	case <-e.ready:
	default:
		waitSpan := tr.StartSpan(obs.StageJobWait)
		waitSpan.SetKey(e.key)
		defer func() { s.metrics.endSpan(waitSpan) }()
		select {
		case <-e.ready:
		case <-ctx.Done():
			// Queued-but-not-started work is droppable: if the requesting
			// client disconnects while its job is still queued and no other
			// request shares this entry, cancel the job and fail the entry
			// ourselves, so a later request retries. Portfolio entries have
			// no jobID until fan-in completes, so they never take this
			// branch: their member jobs run to completion and land in the
			// cache/store even if every portfolio client has gone — the
			// same keep-the-work semantics as a multi-waiter entry. The
			// waiter check, the
			// silent job cancellation (no submitter callbacks run inside
			// it, so holding s.mu is safe — lock order is always s.mu →
			// scheduler), and the cancel publication share one critical
			// section with waiter registration: a request that joined
			// before this point is always counted, and one arriving after
			// never finds the canceled entry. With other live waiters, or
			// once a worker holds the job, the run completes and lands in
			// the cache even if every client has gone.
			s.mu.Lock()
			if e.waiters.Load() <= 1 && e.jobID != "" && !e.done &&
				s.sched.CancelQueuedSilent(e.jobID) {
				e.err = fmt.Errorf("generation canceled while queued: %w", ctx.Err())
				e.done = true
				s.removeLocked(e)
				s.mu.Unlock()
				close(e.ready)
				return nil, false, e.err
			}
			s.mu.Unlock()
			<-e.ready
		}
	}
	if e.err != nil {
		return nil, false, e.err
	}
	return e, wasDone, nil
}

// publish records a finished (or failed) generation on its entry under
// the cache lock, so handlers that find the entry in the cache (rather
// than by waiting on ready) read a consistent result, then releases the
// waiters by closing ready. Failed generations are dropped in the same
// critical section so no request can observe a cached entry carrying
// another client's error — later requests miss and retry instead.
// Eviction re-runs because the entry was un-evictable while in flight, so
// the cache may be over its bound with no future miss to shrink it.
//
// The published coverage is stats.FinalCoverage for every K. For one
// member it is the generation's exact coverage: Compact (run inside
// generation) merges fragments without changing covered volume, so no
// recompute is needed. For K members it is the Monte-Carlo union the
// fan-in computes.
func (s *Server) publish(e *entry, p *mps.Portfolio, stats mps.Stats, err error) {
	var placements int
	var coverage float64
	if p != nil {
		placements, coverage = p.NumPlacements(), stats.FinalCoverage
	}
	s.mu.Lock()
	if e.done {
		// Already published (the sole-waiter silent-cancel path marks the
		// entry itself). Never double-publish — ready closes exactly once.
		s.mu.Unlock()
		return
	}
	e.p, e.stats, e.err, e.done = p, stats, err, true
	e.placements, e.coverage = placements, coverage
	if err != nil {
		s.removeLocked(e)
	}
	s.evictLocked()
	s.mu.Unlock()
	close(e.ready)
}

// publishDone publishes an artifact that materialized without a local
// annealing run — a store read, a peer fetch, a portfolio fan-in, an
// installed entry — first recording a born-done job so /v1/jobs answers
// for the key too.
func (s *Server) publishDone(e *entry, p *mps.Portfolio, stats mps.Stats) {
	if snap, err := s.sched.RecordDone(e.key, mustSpecJSON(e.spec), jobs.Progress{
		Placements: p.NumPlacements(),
		Coverage:   stats.FinalCoverage,
	}); err == nil {
		s.setJobID(e, snap.ID)
	}
	s.publish(e, p, stats, nil)
}

// single wraps one structure as the one-member portfolio its cache entry
// holds; wrapping compiles the query index unless it is already attached.
// A single non-nil member always forms a valid portfolio.
func single(st *mps.Structure) *mps.Portfolio {
	p, _ := mps.NewPortfolio([]*mps.Structure{st})
	return p
}

// loadFromStore rehydrates the one-member portfolio for a structure spec
// from the disk store. (nil, _, nil) means "not available" — no store
// configured or no row for the key; an error means a row existed but
// could not be loaded (corrupt file, circuit mismatch), which callers also
// treat as a miss after counting it. The read and compile phases record as
// store_read and compile spans on tr (nil for background callers), nested
// under parent. Portfolio specs never come here: their members do, through
// the fan-out.
func (s *Server) loadFromStore(tr *obs.Trace, parent obs.SpanID, spec GenerateSpec) (*mps.Portfolio, mps.Stats, error) {
	if s.cfg.Store == nil {
		return nil, mps.Stats{}, nil
	}
	key := spec.key()
	if _, ok := s.cfg.Store.Stat(key); !ok {
		return nil, mps.Stats{}, nil
	}
	circuit, err := mps.Benchmark(spec.Circuit)
	if err != nil {
		return nil, mps.Stats{}, err
	}
	readSpan := tr.StartSpanUnder(parent, obs.StageStoreRead)
	readSpan.SetKey(key)
	cs, meta, err := s.cfg.Store.Get(key, circuit)
	s.metrics.endSpan(readSpan)
	if err != nil {
		s.loadErrs.Add(1)
		s.logf("store: loading %s: %v (regenerating)", key, err)
		return nil, mps.Stats{}, err
	}
	st := spec.structure(cs)
	// Materialize the compiled query index before the entry publishes so
	// no instantiate request ever pays compile cost. Store files are v2
	// (placements only), so this compiles, off the request path; a legacy
	// v3 file arrives with the index core.Load compiled to check its
	// tables.
	compileSpan := tr.StartSpanUnder(parent, obs.StageCompile)
	p := single(st)
	s.metrics.endSpan(compileSpan)
	// The manifest's coverage snapshot is all that survives a restart;
	// the rest of the generation stats belong to the process that ran
	// the annealer.
	return p, mps.Stats{FinalCoverage: meta.Coverage}, nil
}

// persistAsync persists a finished artifact in the background when a
// store is configured. The persistWG.Add happens here, before the caller
// publishes: publish wakes waiters, and a woken client may immediately
// Flush.
func (s *Server) persistAsync(spec GenerateSpec, p *mps.Portfolio, coverage float64) {
	if s.cfg.Store == nil {
		return
	}
	s.persistWG.Add(1)
	go func() {
		defer s.persistWG.Done()
		s.persist(spec, p, coverage)
	}()
}

// persist writes one finished artifact to the disk store, recording the
// normalized spec in the manifest so a restarted server can rebuild the
// cache entry without guessing. A one-member portfolio is one structure
// row. A K-member portfolio is a grouping row over its members' structure
// rows, each member first persisted if it has not landed yet: member
// entries persist their own generations in the background, and the
// duplicate Put is atomic and idempotent (same key, same filename, same
// content).
func (s *Server) persist(spec GenerateSpec, p *mps.Portfolio, coverage float64) {
	var err error
	if p.K() == 1 {
		_, err = s.cfg.Store.Put(structureMeta(spec, coverage), p.Member(0))
	} else {
		memberKeys := make([]string, p.K())
		for i := range memberKeys {
			mspec := spec.memberSpec(i)
			memberKeys[i] = mspec.key()
			if _, ok := s.cfg.Store.Stat(memberKeys[i]); !ok && err == nil {
				m := p.Member(i)
				_, err = s.cfg.Store.Put(structureMeta(mspec, m.Coverage()), m)
			}
		}
		var memberWeights []string
		if wts := spec.resolvedMemberWeights(); wts != nil {
			memberWeights = make([]string, len(wts))
			for i, w := range wts {
				if !w.IsZero() {
					memberWeights[i] = w.Key()
				}
			}
		}
		if err == nil {
			_, err = s.cfg.Store.RecordPortfolio(store.PortfolioMeta{
				Key:           spec.key(),
				Circuit:       spec.Circuit,
				Seed:          spec.Seed,
				Options:       string(mustSpecJSON(spec)),
				Members:       memberKeys,
				MemberWeights: memberWeights,
				Placements:    p.NumPlacements(),
				Coverage:      coverage,
			})
		}
	}
	if err != nil {
		s.persistErrs.Add(1)
		s.logf("store: persisting %s: %v", spec.key(), err)
	}
}

// structureMeta is the manifest row of a one-member spec's structure.
func structureMeta(spec GenerateSpec, coverage float64) store.Meta {
	return store.Meta{
		Key:      spec.key(),
		Circuit:  spec.Circuit,
		Seed:     spec.Seed,
		Options:  string(mustSpecJSON(spec)),
		Coverage: coverage,
	}
}

// Flush blocks until all background store writes have completed. Call it
// before shutdown (or before another process opens the store directory)
// so finished generations are never lost to a racing exit.
func (s *Server) Flush() { s.persistWG.Wait() }

// Warm preloads persisted artifacts into the LRU at boot, before traffic,
// and returns how many cache entries it added. It has one budget: limit
// (limit <= 0 or above the cache size means the cache size), clamped to
// the room the cache has left, so nothing Warm installs is evicted by its
// own installs. Structure rows load first, newest first. Grouping rows
// follow, newest first, while budget remains: a grouping lands through the
// ensure fan-out a request takes, and only when its own key is not cached
// and every member is a finished cache entry — so its members are those
// entries' structures, and landing it reads no file, submits no job and
// calls no peer. A grouping whose members did not all fit waits for its
// first request. Rows recordedSpec refuses, structure rows that record a
// portfolio spec, and rows that fail to load are logged and skipped,
// never fatal — a warm start must not keep a daemon from booting.
func (s *Server) Warm(limit int) (int, error) {
	if s.cfg.Store == nil {
		return 0, fmt.Errorf("serve: no store configured")
	}
	if limit <= 0 || limit > s.cfg.CacheSize {
		limit = s.cfg.CacheSize
	}
	s.mu.Lock()
	limit = min(limit, s.cfg.CacheSize-s.order.Len())
	s.mu.Unlock()
	added := 0
	for _, m := range s.cfg.Store.List() {
		if added >= limit {
			break
		}
		spec, err := s.recordedSpec(m.Key, m.Options)
		if err == nil && spec.Portfolio > 1 {
			// A portfolio key holds a grouping row, never one structure:
			// cached, this row would answer the K-member key alone.
			err = fmt.Errorf("structure row records a %d-member portfolio spec", spec.Portfolio)
		}
		if err != nil {
			s.logf("warm: skipping %s: %v", m.Key, err)
			continue
		}
		p, stats, err := s.loadFromStore(nil, 0, spec)
		if err != nil || p == nil {
			continue // already logged and counted
		}
		if s.install(spec, p, stats, true) {
			added++
		}
	}
	for _, row := range s.cfg.Store.Portfolios() {
		if added >= limit {
			break
		}
		spec, err := s.recordedSpec(row.Key, row.Options)
		if err != nil {
			s.logf("warm: skipping %s: %v", row.Key, err)
			continue
		}
		// A row whose member list disagrees with its spec (a hand-edited
		// manifest) is skipped like any malformed row.
		if spec.Portfolio != row.K() || !s.membersCached(spec) {
			continue
		}
		e, _ := s.ensure(nil, 0, spec, row.Key, 0)
		<-e.ready
		e.waiters.Add(-1)
		if e.err == nil {
			added++
		}
	}
	return added, nil
}

// membersCached reports whether Warm may land the portfolio spec: its own
// key is not cached and every member is a finished cache entry. It reads
// the cache without moving any LRU position. A one-structure spec (a
// hand-edited grouping row) never qualifies: its one member is its own
// key.
func (s *Server) membersCached(spec GenerateSpec) bool {
	key := spec.key()
	members := make([]string, spec.Portfolio)
	for i := range members {
		members[i] = spec.memberSpec(i).key()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.cache[key]; ok {
		return false
	}
	for _, k := range members {
		if e, ok := s.cache[k]; !ok || !e.done || e.err != nil {
			return false
		}
	}
	return true
}

// install adds a finished artifact to the cache as a done entry unless the
// key is already cached, and reports whether it did. It serves Warm and
// the store-less rebalance accept. cold places the entry at the LRU's cold
// end, as Warm does: it walks rows newest first, and warmed entries must
// not displace what traffic has already touched.
func (s *Server) install(spec GenerateSpec, p *mps.Portfolio, stats mps.Stats, cold bool) bool {
	e := &entry{key: spec.key(), spec: spec, ready: make(chan struct{})}
	e.start.Do(func() {}) // the artifact is built: there is no work to start
	s.mu.Lock()
	if _, exists := s.cache[e.key]; exists {
		s.mu.Unlock()
		return false
	}
	if cold {
		e.elem = s.order.PushBack(e)
	} else {
		e.elem = s.order.PushFront(e)
	}
	s.cache[e.key] = e
	s.mu.Unlock()
	s.publishDone(e, p, stats)
	return true
}

// ResumeInterrupted resubmits generation jobs that a previous process
// accepted but never finished (its scheduler loaded them from the state
// file). Jobs whose structures meanwhile exist in the store complete
// instantly through the read-through; the rest re-anneal. Returns how
// many were resubmitted; records recordedSpec refuses are logged and skipped.
func (s *Server) ResumeInterrupted() int {
	resumed := 0
	for _, snap := range s.sched.Interrupted() {
		spec, err := s.recordedSpec(snap.Key, string(snap.Spec))
		if err != nil {
			s.logf("resume %s: %v", snap.ID, err)
			continue
		}
		e, _ := s.ensure(nil, 0, spec, snap.Key, snap.Priority)
		e.waiters.Add(-1) // fire and forget: nobody waits on a resumed job
		resumed++
	}
	return resumed
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// removeLocked deletes e from the cache and LRU order if still present.
// Callers must hold s.mu.
func (s *Server) removeLocked(e *entry) {
	if cur, ok := s.cache[e.key]; ok && cur == e {
		s.order.Remove(e.elem)
		delete(s.cache, e.key)
	}
}

// lookup returns the cached entry for key without generating. Only entries
// whose generation has finished successfully are returned; the done check
// under the mutex makes the entry's fields safe to read after return.
func (s *Server) lookup(key string) (*entry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.cache[key]
	if !ok || !e.done || e.err != nil {
		return nil, false
	}
	s.order.MoveToFront(e.elem)
	return e, true
}

// Handler returns the daemon's HTTP routing table. In cluster mode the
// peer endpoints are mounted and every response names the answering node
// (forwarded responses relay the remote's name instead).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealth)
	mux.Handle("GET /metrics", s.metrics.reg.Handler())
	mux.HandleFunc("/v1/circuits", s.handleCircuits)
	mux.HandleFunc("/v1/backends", s.handleBackends)
	mux.HandleFunc("/v1/structures", s.handleStructures)
	mux.HandleFunc("/v1/instantiate", s.handleInstantiate)
	mux.HandleFunc("POST /v1/jobs", s.handleJobSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleJobList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	mux.HandleFunc("GET /v1/debug/traces", s.handleTraceList)
	mux.HandleFunc("GET /v1/debug/traces/{id}", s.handleTraceGet)
	if s.cluster == nil {
		return s.instrument(mux)
	}
	mux.HandleFunc("GET /v1/cluster/structure", s.handleClusterStructure)
	mux.HandleFunc("POST /v1/cluster/accept", s.handleClusterAccept)
	mux.HandleFunc("POST /v1/cluster/rebalance", s.handleClusterRebalance)
	// instrument sits outermost so the latency histogram includes forward
	// relays and the slow-query log sees the final ServedBy header.
	return s.instrument(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(cluster.ServedByHeader, s.cluster.Self())
		mux.ServeHTTP(w, r)
	}))
}

// handleHealth is the liveness probe: 200 {"status":"ok"} whenever the
// process serves HTTP. Job counts live on GET /v1/jobs and /metrics,
// cluster counters on /metrics.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// circuitInfo is one row of the /v1/circuits listing.
type circuitInfo struct {
	Name      string `json:"name"`
	Blocks    int    `json:"blocks"`
	Nets      int    `json:"nets"`
	Terminals int    `json:"terminals"`
}

func (s *Server) handleCircuits(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	var out []circuitInfo
	for _, name := range circuits.Names() {
		c := circuits.MustByName(name)
		// Table 1's "Terminals" column counts block pins (see the
		// circuits package doc), so report PinCount, not boundary pads.
		out = append(out, circuitInfo{
			Name:      c.Name,
			Blocks:    c.N(),
			Nets:      len(c.Nets),
			Terminals: c.PinCount(),
		})
	}
	writeJSON(w, http.StatusOK, map[string]any{"circuits": out})
}

// backendInfo is one row of the /v1/backends listing.
type backendInfo struct {
	Name string `json:"name"`
	// Default marks the backend a spec without a backend field runs —
	// and the one whose artifacts carry no backend tag in their keys.
	Default bool `json:"default"`
}

// handleBackends lists the registered generation backends — the valid
// values of GenerateSpec.Backend — so clients can discover them instead
// of learning the set from 400 responses.
func (s *Server) handleBackends(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	var out []backendInfo
	for _, name := range mps.Backends() {
		out = append(out, backendInfo{Name: name, Default: name == mps.DefaultBackend})
	}
	writeJSON(w, http.StatusOK, map[string]any{"backends": out})
}

// StructureInfo describes one generated structure to clients.
type StructureInfo struct {
	Key        string       `json:"key"`
	Spec       GenerateSpec `json:"spec"`
	Cached     bool         `json:"cached"` // true when served from cache
	Placements int          `json:"placements"`
	Coverage   float64      `json:"coverage"`
	Stats      *mps.Stats   `json:"stats,omitempty"`
}

// PersistedInfo describes one structure in the disk store (a manifest
// row) to clients of GET /v1/structures.
type PersistedInfo struct {
	Key        string    `json:"key"`
	Circuit    string    `json:"circuit"`
	Seed       int64     `json:"seed"`
	Placements int       `json:"placements"`
	Coverage   float64   `json:"coverage,omitempty"`
	Bytes      int64     `json:"bytes"`
	Created    time.Time `json:"created"`
	// Cached reports whether the entry is also in the in-memory LRU right
	// now (a disk-only entry costs one load, not a regeneration).
	Cached bool `json:"cached"`
}

// clientError wraps validation failures so HTTP handlers can map them to
// 400 while generation failures stay 500.
type clientError struct{ err error }

func (e clientError) Error() string { return e.err.Error() }
func (e clientError) Unwrap() error { return e.err }

// generateErrorStatus maps a generate/structureFor error to its HTTP
// status: 400 for validation, 503 for requests shed while queued or
// cancelled mid-run and for a shutting-down scheduler (so the access log
// does not count shed load as server faults), 500 otherwise.
func generateErrorStatus(err error) int {
	var ce clientError
	switch {
	case errors.As(err, &ce):
		return http.StatusBadRequest
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded),
		errors.Is(err, jobs.ErrCancelled), errors.Is(err, jobs.ErrClosed):
		return http.StatusServiceUnavailable
	}
	return http.StatusInternalServerError
}

// Generate admits spec and generates (or fetches from cache) its
// structure — the programmatic entry point behind cmd/mpsd's -preload
// flag and tests. Refusals are clientErrors.
func (s *Server) Generate(spec GenerateSpec) (StructureInfo, error) {
	key, err := s.admit(&spec)
	if err != nil {
		return StructureInfo{}, err
	}
	return s.generate(context.Background(), spec, key)
}

// generate is structureFor reporting an admitted spec's structure to a
// client.
func (s *Server) generate(ctx context.Context, spec GenerateSpec, key string) (StructureInfo, error) {
	e, hit, err := s.structureFor(ctx, spec, key)
	if err != nil {
		return StructureInfo{}, err
	}
	stats := e.stats
	return StructureInfo{
		Key:        e.key,
		Spec:       e.spec,
		Cached:     hit,
		Placements: e.placements,
		Coverage:   e.coverage,
		Stats:      &stats,
	}, nil
}

func (s *Server) handleStructures(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		s.mu.Lock()
		out := []StructureInfo{}
		cached := map[string]bool{}
		for el := s.order.Front(); el != nil; el = el.Next() {
			e := el.Value.(*entry)
			if !e.done || e.err != nil {
				continue // still generating or failed
			}
			cached[e.key] = true
			out = append(out, StructureInfo{
				Key:        e.key,
				Spec:       e.spec,
				Cached:     true,
				Placements: e.placements,
				Coverage:   e.coverage,
			})
		}
		s.mu.Unlock()
		resp := map[string]any{"structures": out}
		if s.cfg.Store != nil {
			persisted := []PersistedInfo{}
			for _, m := range s.cfg.Store.List() {
				persisted = append(persisted, PersistedInfo{
					Key:        m.Key,
					Circuit:    m.Circuit,
					Seed:       m.Seed,
					Placements: m.Placements,
					Coverage:   m.Coverage,
					Bytes:      m.Bytes,
					Created:    m.Created,
					Cached:     cached[m.Key],
				})
			}
			resp["persisted"] = persisted
		}
		writeJSON(w, http.StatusOK, resp)
	case http.MethodPost:
		body, err := readBody(w, r, 4096)
		if err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		var spec GenerateSpec
		if err := decodeJSONBytes(body, &spec); err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		key, err := s.admit(&spec)
		if err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		// Cluster routing: generation belongs on the key's owner.
		if s.maybeForward(w, r, key, false, body) {
			return
		}
		info, err := s.generate(r.Context(), spec, key)
		if err != nil {
			writeError(w, generateErrorStatus(err), err.Error())
			return
		}
		writeJSON(w, http.StatusOK, info)
	default:
		writeError(w, http.StatusMethodNotAllowed, "use GET or POST")
	}
}

// jobSubmitRequest is the POST /v1/jobs body: the generation spec plus an
// optional queue priority (higher runs first, FIFO within a level).
type jobSubmitRequest struct {
	Spec     GenerateSpec `json:"spec"`
	Priority int          `json:"priority,omitempty"`
}

// JobInfo is one job as reported by the /v1/jobs endpoints: the
// scheduler's snapshot plus whether the produced structure currently sits
// in the in-memory LRU (instantiate traffic against it is free).
type JobInfo struct {
	jobs.Snapshot
	Cached bool `json:"cached"`
}

// jobInfo decorates a snapshot with the cache state of its key.
func (s *Server) jobInfo(snap jobs.Snapshot) JobInfo {
	s.mu.Lock()
	e, ok := s.cache[snap.Key]
	cached := ok && e.done && e.err == nil
	s.mu.Unlock()
	return JobInfo{Snapshot: snap, Cached: cached}
}

// handleJobSubmit is POST /v1/jobs: validate the spec, submit it to the
// scheduler (deduplicating onto in-flight work for the same canonical
// key), and return the job immediately — 202 while queued or running, 200
// when the structure already existed (memory or disk) and the job was
// born done.
func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := readBody(w, r, 4096)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	var req jobSubmitRequest
	if err := decodeJSONBytes(body, &req); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	spec := req.Spec
	key, err := s.admit(&spec)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	// Cluster routing: the job — and its id, progress, and artifact —
	// lives on the key's owner. The relayed response's ServedBy header
	// names the node to poll GET /v1/jobs/{id} on (job ids are
	// node-local).
	if s.maybeForward(w, r, key, false, body) {
		return
	}
	e, _ := s.ensure(obs.TraceFrom(r.Context()), 0, spec, key, req.Priority)
	defer e.waiters.Add(-1)
	s.mu.Lock()
	id := e.jobID
	memberIDs := append([]string(nil), e.memberJobIDs...)
	s.mu.Unlock()
	// Portfolio submissions with members still generating have no job of
	// their own yet (fan-in records it when all K land): answer with the
	// member jobs, which carry the live progress a client can poll.
	if spec.Portfolio > 1 && id == "" {
		members := make([]JobInfo, 0, len(memberIDs))
		done := 0
		for _, mid := range memberIDs {
			if snap, ok := s.sched.Get(mid); ok {
				if snap.State.Terminal() {
					done++
				}
				members = append(members, s.jobInfo(snap))
			}
		}
		writeJSON(w, http.StatusAccepted, map[string]any{
			"key":          e.key,
			"spec":         spec,
			"portfolio":    spec.Portfolio,
			"members_done": done,
			"members":      members,
		})
		return
	}
	snap, ok := s.sched.Get(id)
	if !ok {
		// No job backs the entry: its submission failed (scheduler closed)
		// or the record was pruned. ready is closed on the failure path,
		// so this read does not block on a healthy server.
		select {
		case <-e.ready:
			if e.err != nil {
				writeError(w, generateErrorStatus(e.err), e.err.Error())
				return
			}
			writeError(w, http.StatusInternalServerError,
				fmt.Sprintf("job record for %s no longer retained", e.key))
		case <-r.Context().Done():
			writeError(w, http.StatusServiceUnavailable, "canceled")
		}
		return
	}
	status := http.StatusAccepted
	if snap.State.Terminal() {
		status = http.StatusOK
	}
	writeJSON(w, status, s.jobInfo(snap))
}

// handleJobList is GET /v1/jobs: every known job, newest first, plus
// scheduler queue counts.
func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	list := s.sched.List()
	out := make([]JobInfo, len(list))
	for i, snap := range list {
		out[i] = s.jobInfo(snap)
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"jobs":  out,
		"stats": s.sched.Stats(),
	})
}

// handleJobGet is GET /v1/jobs/{id}: one job's live snapshot — while the
// generation runs, Progress advances with every explorer iteration.
func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	snap, ok := s.sched.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("unknown job %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, s.jobInfo(snap))
}

// handleJobCancel is DELETE /v1/jobs/{id}: cooperative cancellation. A
// queued job never runs; a running job's context ends and the nested
// annealers stop within one proposal — the handler waits briefly so the
// response usually carries the terminal state. Cancelling a finished job
// is a no-op returning its snapshot.
func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	snap, err := s.sched.Cancel(id)
	if err != nil {
		writeError(w, http.StatusNotFound, err.Error())
		return
	}
	if !snap.State.Terminal() {
		ctx, cancel := context.WithTimeout(r.Context(), 5*time.Second)
		defer cancel()
		if final, err := s.sched.Wait(ctx, id); err == nil {
			snap = final
		}
	}
	writeJSON(w, http.StatusOK, s.jobInfo(snap))
}

// instantiateRequest is a batched query: address a structure by cache key
// (from POST /v1/structures) or inline spec, plus the dimension queries.
type instantiateRequest struct {
	Key  string        `json:"key,omitempty"`
	Spec *GenerateSpec `json:"spec,omitempty"`
	// Weights optionally routes every query in the batch by weighted
	// per-objective cost over the covering portfolio members (see
	// mps.DimQuery.Weights); a query's own weights override it. Omitted
	// means the historical smallest-area rule. Query weights never change
	// which structures exist — only which member answers — so they are
	// deliberately absent from the cache key.
	Weights *WeightsSpec `json:"weights,omitempty"`
	Queries []dimQuery   `json:"queries"`
}

type dimQuery struct {
	Ws []int `json:"ws"`
	Hs []int `json:"hs"`
	// Weights optionally routes this one query by weighted cost,
	// overriding the request-level vector.
	Weights *WeightsSpec `json:"weights,omitempty"`
}

// dimQueries resolves the batch into facade queries, rejecting invalid
// routing weight vectors before any instantiation work. A query's own
// non-zero weights override the request-level vector; Ws and Hs are the
// decoded slices themselves.
func (req *instantiateRequest) dimQueries() ([]mps.DimQuery, error) {
	batchWeights := req.Weights.weights()
	if err := batchWeights.Validate(); err != nil {
		return nil, fmt.Errorf("weights: %w", err)
	}
	queries := make([]mps.DimQuery, len(req.Queries))
	for i := range req.Queries {
		q := &req.Queries[i]
		w := q.Weights.weights()
		if err := w.Validate(); err != nil {
			return nil, fmt.Errorf("queries[%d].weights: %w", i, err)
		}
		if w.IsZero() {
			w = batchWeights
		}
		queries[i] = mps.DimQuery{Ws: q.Ws, Hs: q.Hs, Weights: w}
	}
	return queries, nil
}

// handleInstantiate answers a query batch from the entry's portfolio.
// Each result carries x/y anchors or an error (e.g. out-of-bounds
// dimensions), plus member: the portfolio member that answered (-1 when
// the backup did; single-structure entries are one-member portfolios, so
// their stored answers report 0 and placement_id is always member-local
// to member). See mps.BatchResult and wire.go.
func (s *Server) handleInstantiate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	tr := obs.TraceFrom(r.Context())
	decodeSpan := tr.StartSpan(obs.StageDecode)
	var req instantiateRequest
	body, err := readBody(w, r, 4096+int64(s.cfg.MaxBatch)*maxQueryBytes)
	if err == nil {
		err = decodeInstantiate(body, &req)
	}
	s.metrics.endSpan(decodeSpan)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if len(req.Queries) == 0 {
		writeError(w, http.StatusBadRequest, "no queries")
		return
	}
	if len(req.Queries) > s.cfg.MaxBatch {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("batch of %d exceeds max %d", len(req.Queries), s.cfg.MaxBatch))
		return
	}
	queries, err := req.dimQueries()
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}

	// Cluster routing: instantiate is a read — hot keys may fan out
	// across the replica set instead of pinning the owner. A replica that
	// lacks the structure pulls the built artifact from the owner (the
	// entry pipeline's peer read-through), so fan-out never duplicates
	// generation while the owner is reachable.
	ctx := r.Context()
	if forwarded(r) {
		ctx = context.WithValue(ctx, forwardedCtxKey{}, true)
	}

	var e *entry
	switch {
	case req.Key != "" && req.Spec != nil:
		// Refuse ambiguous addressing rather than silently answering from
		// one structure while the client meant the other.
		writeError(w, http.StatusBadRequest, "provide key or spec, not both")
		return
	case req.Key != "":
		if s.maybeForward(w, r, req.Key, true, body) {
			return
		}
		resolved, err := s.entryForKey(ctx, req.Key)
		if err != nil {
			writeError(w, generateErrorStatus(err), err.Error())
			return
		}
		if resolved == nil {
			writeError(w, http.StatusNotFound,
				fmt.Sprintf("structure %q not cached — POST /v1/structures first", req.Key))
			return
		}
		e = resolved
	case req.Spec != nil:
		spec := *req.Spec
		key, err := s.admit(&spec)
		if err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		if s.maybeForward(w, r, key, true, body) {
			return
		}
		e, _, err = s.structureFor(ctx, spec, key)
		if err != nil {
			writeError(w, generateErrorStatus(err), err.Error())
			return
		}
	default:
		writeError(w, http.StatusBadRequest, "need key or spec")
		return
	}

	// The batch slot wraps only the CPU fan-out — holding it across decode
	// or a cold generation would let a handful of slow requests starve
	// sub-millisecond cached traffic. Requests shed while queued get a 503
	// so the access log does not count shed load as success. Per-request
	// decode memory is bounded by MaxBatch (see withDefaults).
	tr.Annotate(e.key)
	slotSpan := tr.StartSpan(obs.StageBatchWait)
	select {
	case s.batchSlots <- struct{}{}:
		s.metrics.endSpan(slotSpan)
		defer func() { <-s.batchSlots }()
	case <-r.Context().Done():
		s.metrics.endSpan(slotSpan)
		writeError(w, http.StatusServiceUnavailable, "canceled while queued for a batch slot")
		return
	}
	instSpan := tr.StartSpan(obs.StageInstantiate)
	instSpan.SetKey(e.key)
	batch := e.p.InstantiateBatchWorkers(queries, s.cfg.Workers)
	s.metrics.endSpan(instSpan)
	s.metrics.countAnswers(e.spec.Circuit, batch)

	encSpan := tr.StartSpan(obs.StageEncode)
	writeInstantiateResponse(w, e.key, batch)
	s.metrics.endSpan(encSpan)
}

// maxQueryBytes is a generous upper bound on the JSON size of one
// dimension query (two int arrays for the largest benchmark's 24 blocks).
const maxQueryBytes = 1024

// readBody reads the request body whole, refusing bodies over limit
// bytes. Handlers that may forward read the body first so the same bytes
// can replay to a peer verbatim; the limits bound per-request memory
// exactly as the old streaming decoder did. A declared Content-Length
// sizes the buffer, with one spare byte so the read that reports EOF needs
// no regrowth; declarations past maxPresize grow with the bytes that
// actually arrive, so a client cannot reserve megabytes by announcing
// them. The buffer is never pooled: a forward hands it to the HTTP
// transport, which may read it after RoundTrip returns.
func readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, error) {
	size := int64(512)
	if n := r.ContentLength; n >= 0 && n < min(limit, maxPresize) {
		size = n + 1
	}
	body := make([]byte, 0, size)
	src := http.MaxBytesReader(w, r.Body, limit)
	for {
		n, err := src.Read(body[len(body):cap(body)])
		body = body[:len(body)+n]
		if err == io.EOF {
			return body, nil
		}
		if err != nil {
			return nil, fmt.Errorf("bad request body: %w", err)
		}
		if len(body) == cap(body) {
			body = append(body, 0)[:len(body)]
		}
	}
}

// maxPresize bounds the buffer readBody allocates before any body bytes
// arrive.
const maxPresize = 1 << 20

// decodeJSONBytes strictly decodes an already-read body into v: unknown
// fields and anything but whitespace after the value are errors.
func decodeJSONBytes(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	if len(bytes.TrimLeft(body[dec.InputOffset():], " \t\r\n")) != 0 {
		return fmt.Errorf("bad request body: data after the JSON value")
	}
	return nil
}

// writeJSON emits compact JSON: instantiate responses carry up to MaxBatch
// results, so pretty-printing would roughly double hot-path bytes.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": strings.TrimSpace(msg)})
}
