package main

// The traced run. It runs the workload's closed loop with a client span
// per request in every other second, then replays every request of the pool
// through each query layer's public entry point in turn, from the
// compiled index up to a forwarded HTTP hop, and the workload's first
// generation spec through each generation layer. A layer's cost is the
// gap between adjacent rows. Spans are recorded around the calls, from
// outside the program.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"mps"
	"mps/internal/bdio"
	"mps/internal/core"
	"mps/internal/cost"
	"mps/internal/explorer"
	"mps/internal/gen"
	"mps/internal/loadgen"
	"mps/internal/obs"
	"mps/internal/serve"
	"mps/internal/store"
)

// span is one timed call. Spans of one replayed request share Req and
// hang under that request's root span.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Pass   int    `json:"pass"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func (t *tracer) add(name string, start, end time.Time, parent, req, pass int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Name: name, Start: start.Sub(t.t0).Nanoseconds(),
		End: end.Sub(t.t0).Nanoseconds(), Parent: parent, Req: req, Pass: pass})
	return id
}

func (t *tracer) finish(id int, end time.Time) {
	t.mu.Lock()
	t.spans[id-1].End = end.Sub(t.t0).Nanoseconds()
	t.mu.Unlock()
}

func (t *tracer) write(path string, p *plan) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(map[string]any{"workload": p.Workload, "seed": p.Seed, "spans": t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// Query layers, outermost last. Each wraps the one before it.
var queryLayers = []string{"core.lookup", "portfolio.route", "mps.batch", "serve.handler", "serve.http", "cluster.forward", "cluster.owner"}

const (
	lCore = iota
	lRoute
	lBatch
	lHandler
	lHTTP
	lForward
	lOwner
)

// replayPasses is how many times each request goes through every layer;
// a request's time in a layer is its fastest pass.
const replayPasses = 5

// artifactObj is an artifact regenerated in process.
type artifactObj struct {
	st *mps.Structure // nil for a portfolio
	pf *mps.Portfolio // the portfolio, or a one-member portfolio of st
}

func (o artifactObj) batch(qs []mps.DimQuery) []mps.BatchResult {
	if o.st != nil {
		return o.st.InstantiateBatchWorkers(qs, 0)
	}
	return o.pf.InstantiateBatchWorkers(qs, 0)
}

// compiled is the index a core lookup of a query answers from: the
// structure, or the portfolio member that wins the route (member 0, whose
// backup answers, when none covers).
func (o artifactObj) compiled(w answer) *core.CompiledStructure {
	if o.st != nil {
		return o.st.Compiled()
	}
	return core.Compile(o.pf.Member(max(w.Member, 0)))
}

func runTraced(ctx context.Context, p *plan, logw io.Writer) (*result, error) {
	d, err := deploy(p, serverLog(logw))
	if err != nil {
		return nil, err
	}
	defer d.close()
	singleGens, err := setupArtifacts(ctx, p, d.single)
	if err != nil {
		return nil, fmt.Errorf("set-up (single node): %w", err)
	}
	fleetGens, err := setupArtifacts(ctx, p, d.fleet[0])
	if err != nil {
		return nil, fmt.Errorf("set-up (fleet): %w", err)
	}
	tr := &tracer{t0: time.Now()}
	res := &result{Correct: true, Metrics: map[string]metricValue{}}
	fail := func(err error) (*result, error) {
		res.Correct = false
		return res, err
	}

	// Tracing overhead: the closed loop with client spans in every other
	// second, traced seconds against untraced ones.
	warm, dur := warmup(p.Seconds), time.Duration(p.Seconds)*time.Second
	lr := runLoop(ctx, p, d.entry, warm, dur, tr)
	res.Attempted += lr.attempted
	res.Failed += lr.failed
	if lr.wrong != nil {
		return fail(lr.wrong)
	}
	if lr.owned != lr.checked {
		return fail(fmt.Errorf("forwarded_frac %d/%d", lr.owned, lr.checked))
	}
	w, err := windowStats(lr.wins)
	if err != nil {
		return nil, err
	}
	var untraced, traced []float64
	for k, q := range w.windowQPS {
		if k%2 == 0 {
			untraced = append(untraced, q)
		} else {
			traced = append(traced, q)
		}
	}

	vals, err := replay(ctx, p, d, fleetGens, tr, res, logw)
	if err != nil {
		return fail(err)
	}
	genVals, err := generationLadder(ctx, ladderSpec(p))
	if err != nil {
		return nil, err
	}
	for k, v := range genVals {
		vals[k] = v
	}
	if err := stageMetrics(ctx, d, vals); err != nil {
		return nil, err
	}
	// Serve's share of a generation: the client's latency minus the
	// generation time the server itself reports, over the single node's
	// generations.
	var over []float64
	for _, g := range append(structureGens(p, singleGens), lr.gens...) {
		over = append(over, ms(g.lat-g.info.Stats.Duration))
	}
	vals["serve.gen_overhead_ms"] = median(over)
	if err := res.fill(perLayer, vals); err != nil {
		return nil, err
	}
	if err := tr.write(p.Spans, p); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}

	fmt.Fprintf(logw, "%s seed %d: traced run, %d requests replayed %d times\n", p.Workload, p.Seed, len(p.Requests), replayPasses)
	printMetrics(logw, perLayer, vals)
	if len(traced) > 0 {
		fmt.Fprintf(logw, "  info: tracing overhead %.2f%% (closed loop, median of alternate seconds: %.6g queries/s untraced, %.6g traced)\n",
			100*(1-median(traced)/median(untraced)), median(untraced), median(traced))
	}
	fmt.Fprintf(logw, "  info: %d spans written to %s\n", len(tr.spans), p.Spans)
	return res, nil
}

// ladderSpec is the generation spec the traced run replays: the
// workload's first generated artifact, or generate_mixed's first loop
// spec.
func ladderSpec(p *plan) serve.GenerateSpec {
	if p.Generate {
		return genSpec(0)
	}
	return p.Artifacts[0].Spec
}

// replay drives every request through each query layer and reports the
// query-layer metrics.
func replay(ctx context.Context, p *plan, d *deployment, fleetGens []genSample, tr *tracer, res *result, logw io.Writer) (map[string]float64, error) {
	objs, err := regenerate(ctx, p)
	if err != nil {
		return nil, err
	}
	c := newClient()
	defer c.close()
	n := len(p.Requests)
	// Per request: the index each query's core lookup uses, and which
	// fleet node owns the artifact.
	cs := make([][]*core.CompiledStructure, n)
	owner := make([]*node, n)
	other := make([]*node, n)
	for i, r := range p.Requests {
		for _, w := range r.Want {
			cs[i] = append(cs[i], objs[r.Artifact].compiled(w))
		}
		owner[i], other[i] = d.owner(fleetGens[r.Artifact].info.Key)
	}

	var respBytes int
	post := func(i int, target *node) (time.Time, time.Time, error) {
		t0 := time.Now()
		status, by, body, err := c.post(ctx, target.url+"/v1/instantiate", p.Requests[i].Body)
		t1 := time.Now()
		res.Attempted++
		switch {
		case err != nil || status != http.StatusOK:
			res.Failed++
			return t0, t1, fmt.Errorf("status %d: %v", status, err)
		case target.name != "" && by != owner[i].name:
			return t0, t1, fmt.Errorf("served by %q, want owner %q", by, owner[i].name)
		}
		return t0, t1, c.verify(p.Requests, i, body)
	}
	call := func(layer, i int, check bool) (time.Time, time.Time, error) {
		r := &p.Requests[i]
		o := objs[r.Artifact]
		switch layer {
		case lCore:
			var cr core.Result
			t0 := time.Now()
			for q, dq := range r.Queries {
				if err := cs[i][q].InstantiateInto(&cr, dq.Ws, dq.Hs); err != nil {
					return t0, time.Now(), err
				}
				if check {
					if err := sameAnswer(q, r.Want[q], resultAnswer(cr, r.Want[q].Member)); err != nil {
						return t0, time.Now(), err
					}
				}
			}
			return t0, time.Now(), nil
		case lRoute:
			var cr core.Result
			t0 := time.Now()
			for q, dq := range r.Queries {
				m, err := o.pf.InstantiateWeightedInto(&cr, dq.Weights, dq.Ws, dq.Hs)
				if err != nil {
					return t0, time.Now(), err
				}
				if check {
					if err := sameAnswer(q, r.Want[q], resultAnswer(cr, m)); err != nil {
						return t0, time.Now(), err
					}
				}
			}
			return t0, time.Now(), nil
		case lBatch:
			t0 := time.Now()
			out := o.batch(r.Queries)
			t1 := time.Now()
			if check {
				return t0, t1, checkBatch(r.Want, out)
			}
			return t0, t1, nil
		case lHandler:
			req := httptest.NewRequest(http.MethodPost, "/v1/instantiate", bytes.NewReader(r.Body))
			rec := httptest.NewRecorder()
			t0 := time.Now()
			d.single.handler.ServeHTTP(rec, req)
			t1 := time.Now()
			if rec.Code != http.StatusOK {
				return t0, t1, fmt.Errorf("handler status %d", rec.Code)
			}
			if check {
				respBytes += rec.Body.Len()
			}
			return t0, t1, c.verify(p.Requests, i, rec.Body.Bytes())
		case lHTTP:
			return post(i, d.single)
		case lForward:
			return post(i, other[i])
		default:
			return post(i, owner[i])
		}
	}

	// One checking pass (untimed), then the timed passes.
	for i := range p.Requests {
		for l := range queryLayers {
			if _, _, err := call(l, i, true); err != nil {
				return nil, fmt.Errorf("request %d, layer %s: %w", i, queryLayers[l], err)
			}
		}
	}
	best := make([][]time.Duration, len(queryLayers))
	for l := range best {
		best[l] = make([]time.Duration, n)
	}
	for pass := 0; pass < replayPasses; pass++ {
		for i := range p.Requests {
			root := tr.add("replay.request", time.Now(), time.Now(), 0, i, pass)
			for l, name := range queryLayers {
				if l <= lBatch {
					// In-process layers take microseconds: one untimed call
					// first, so the row measures them with this request's
					// data in cache, as the serving loop runs them. The
					// timed call below reports any error.
					_, _, _ = call(l, i, false)
				}
				t0, t1, err := call(l, i, false)
				if err != nil {
					return nil, fmt.Errorf("request %d, layer %s: %w", i, name, err)
				}
				tr.add(name, t0, t1, root, i, pass)
				if dt := t1.Sub(t0); pass == 0 || dt < best[l][i] {
					best[l][i] = dt
				}
			}
			tr.finish(root, time.Now())
		}
	}

	// Each layer wraps the one below it, so the ladder must be ordered:
	// core ≤ batch ≤ handler ≤ http ≤ forward, within 10% for timer and
	// cache noise on microsecond rows. A batch of 64 or more queries fans
	// out over GOMAXPROCS goroutines, so its wall time may undercut the
	// serial lookups by up to that factor. The medians must hold the
	// order; single requests may break it by noise, which is reported.
	fan := 1.1
	if len(p.Requests[0].Queries) >= 64 {
		fan *= float64(runtime.GOMAXPROCS(0))
	}
	ordered := func(b func(l int) time.Duration) bool {
		within := func(lo, hi int, f float64) bool { return float64(b(lo)) <= f*float64(b(hi)) }
		return within(lCore, lBatch, fan) && within(lBatch, lHandler, 1.1) && within(lHandler, lHTTP, 1.1) && within(lHTTP, lForward, 1.1)
	}
	inversions := 0
	for i := range p.Requests {
		if !ordered(func(l int) time.Duration { return best[l][i] }) {
			inversions++
		}
	}
	// Every row is a median over the pool of per-request values.
	over := func(f func(i int) time.Duration) time.Duration {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(f(i))
		}
		return time.Duration(median(xs))
	}
	med := make([]time.Duration, len(queryLayers))
	for l := range med {
		med[l] = over(func(i int) time.Duration { return best[l][i] })
	}
	if !ordered(func(l int) time.Duration { return med[l] }) {
		return nil, fmt.Errorf("layer ladder out of order: core %v, batch %v (allowed factor %.2g), handler %v, http %v, forward %v",
			med[lCore], med[lBatch], fan, med[lHandler], med[lHTTP], med[lForward])
	}
	fmt.Fprintf(logw, "  query ladder, median per request: core %v, route %v, batch %v, handler %v, http %v, forward %v, owner %v (%d of %d requests out of order)\n",
		med[lCore], med[lRoute], med[lBatch], med[lHandler], med[lHTTP], med[lForward], med[lOwner], inversions, n)

	perQuery := func(l int) float64 {
		xs := make([]float64, n)
		for i, r := range p.Requests {
			xs[i] = float64(best[l][i]) / float64(len(r.Queries))
		}
		return median(xs)
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	gap := func(hi, lo int) float64 {
		return us(over(func(i int) time.Duration { return best[hi][i] - best[lo][i] }))
	}
	vals := map[string]float64{
		"core.lookup_ns":     perQuery(lCore),
		"portfolio.route_ns": perQuery(lRoute),
		"mps.batch_ns":       perQuery(lBatch),
		"serve.handler_us":   us(med[lHandler]),
		"serve.self_us":      gap(lHandler, lBatch),
		"serve.http_us":      us(med[lHTTP]),
		"serve.http_self_us": gap(lHTTP, lHandler),
		"cluster.forward_us": us(med[lForward]),
		"cluster.self_us":    gap(lForward, lOwner),
		"serve.resp_kb":      float64(respBytes) / float64(n) / 1024,
	}

	// Allocations, one layer at a time over the whole pool. The passes
	// above already checked every call's error.
	queries := 0
	for _, r := range p.Requests {
		queries += len(r.Queries)
	}
	coreAllocs, _ := allocsOf(n, func(i int) { call(lCore, i, false) })
	batchAllocs, _ := allocsOf(n, func(i int) { call(lBatch, i, false) })
	reqs := make([]*http.Request, n)
	recs := make([]*httptest.ResponseRecorder, n)
	for i, r := range p.Requests {
		reqs[i] = httptest.NewRequest(http.MethodPost, "/v1/instantiate", bytes.NewReader(r.Body))
		recs[i] = httptest.NewRecorder()
	}
	hAllocs, hBytes := allocsOf(n, func(i int) { d.single.handler.ServeHTTP(recs[i], reqs[i]) })
	vals["core.lookup_allocs"] = coreAllocs * float64(n) / float64(queries)
	vals["mps.batch_allocs"] = batchAllocs
	vals["serve.handler_allocs"] = hAllocs
	vals["serve.handler_kb"] = hBytes / 1024

	return vals, nil
}

// regenerate rebuilds in process every artifact a request addresses.
func regenerate(ctx context.Context, p *plan) (map[int]artifactObj, error) {
	var idx []int
	var specs []serve.GenerateSpec
	seen := map[int]bool{}
	for _, r := range p.Requests {
		if !seen[r.Artifact] {
			seen[r.Artifact] = true
			idx = append(idx, r.Artifact)
			specs = append(specs, p.Artifacts[r.Artifact].Spec)
		}
	}
	runs, err := runSpecs(ctx, specs)
	if err != nil {
		return nil, err
	}
	objs := make(map[int]artifactObj, len(idx))
	for k, a := range idx {
		if pf := runs[k].Portfolio; pf != nil {
			objs[a] = artifactObj{pf: pf}
			continue
		}
		st := runs[k].Structure
		pf, err := mps.NewPortfolio([]*mps.Structure{st})
		if err != nil {
			return nil, err
		}
		objs[a] = artifactObj{st: st, pf: pf}
	}
	return objs, nil
}

// allocsOf runs f over 0..n-1 and returns heap allocations and bytes
// allocated per call, process-wide (the servers are idle meanwhile).
func allocsOf(n int, f func(i int)) (allocs, bytes float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		f(i)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n), float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

// stageMetrics reads the servers' per-stage counters for the whole traced
// run (set-up, loops and replay) and reports each stage's mean span.
func stageMetrics(ctx context.Context, d *deployment, vals map[string]float64) error {
	var targets []string
	for _, n := range d.nodes() {
		targets = append(targets, n.url)
	}
	c := newClient()
	defer c.close()
	scrape, err := loadgen.ScrapeAll(ctx, c.hc, targets)
	if err != nil {
		return err
	}
	for _, st := range []struct {
		stage obs.Stage
		name  string
		unit  time.Duration
	}{
		{obs.StageBatchWait, "serve.stage.batch_wait_us", time.Microsecond},
		{obs.StageInstantiate, "serve.stage.instantiate_us", time.Microsecond},
		{obs.StageEncode, "serve.stage.encode_us", time.Microsecond},
		{obs.StageForward, "serve.stage.forward_us", time.Microsecond},
		{obs.StageJobWait, "serve.stage.job_wait_ms", time.Millisecond},
		{obs.StageJobRun, "serve.stage.job_run_ms", time.Millisecond},
	} {
		sel := map[string]string{"stage": st.stage.String()}
		ops := scrape.Sum("mps_stage_ops_total", sel)
		if ops == 0 {
			return fmt.Errorf("stage %s recorded no spans", st.stage)
		}
		secs := scrape.Sum("mps_stage_duration_seconds_total", sel)
		vals[st.name] = secs / ops * float64(time.Second) / float64(st.unit)
	}
	return nil
}

// ladderReps is how many times each generation layer runs; its row is
// the fastest run.
const ladderReps = 3

// fastest runs f(0), f(1), ... ladderReps times and returns the fastest.
func fastest(f func(k int) error) (time.Duration, error) {
	var best time.Duration
	for k := 0; k < ladderReps; k++ {
		t0 := time.Now()
		if err := f(k); err != nil {
			return 0, err
		}
		if dt := time.Since(t0); k == 0 || dt < best {
			best = dt
		}
	}
	return best, nil
}

// generationLadder replays one generation spec through each generation
// layer: cost evaluation, a BDIO step, an explorer iteration, insertion
// into a full structure, a whole backend run, compile, encode and store.
func generationLadder(ctx context.Context, spec serve.GenerateSpec) (map[string]float64, error) {
	c, err := mps.Benchmark(spec.Circuit)
	if err != nil {
		return nil, err
	}
	w := weightsOf(spec.Weights)
	iters, steps := mps.Options{Iterations: spec.Iterations, BDIOSteps: spec.BDIOSteps}.Budgets()
	g, err := gen.ByName(gen.Default)
	if err != nil {
		return nil, err
	}
	gspec := gen.Spec{Backend: g.Name(), Seed: spec.Seed, Iterations: iters, BDIOSteps: steps, Weights: w}
	vals := map[string]float64{}

	var s *core.Structure
	run, err := fastest(func(int) (err error) {
		s, _, err = g.Generate(ctx, c, gspec)
		return err
	})
	if err != nil {
		return nil, err
	}
	vals["gen.run_ms"] = ms(run)

	var ev cost.Evaluator
	if !w.IsZero() {
		ev = w.Canonical()
	}
	var est explorer.Stats
	explore, err := fastest(func(int) (err error) {
		_, est, err = explorer.GenerateContext(ctx, c, explorer.Config{Seed: spec.Seed, MaxIterations: iters, BDIO: bdio.Config{Steps: steps}, Evaluator: ev})
		return err
	})
	if err != nil {
		return nil, err
	}
	vals["explorer.iter_ms"] = ms(explore) / float64(est.Iterations)
	vals["explorer.accept_frac"] = float64(est.Accepted) / float64(est.Iterations)

	// Cost evaluation on every stored placement at its intervals' midpoints.
	var layouts []cost.Layout
	for _, id := range s.IDs() {
		pl := s.Get(id)
		l := cost.Layout{Circuit: c, X: pl.X, Y: pl.Y, W: make([]int, c.N()), H: make([]int, c.N()), Floorplan: s.Floorplan()}
		for i := range l.W {
			l.W[i], l.H[i] = (pl.WLo[i]+pl.WHi[i])/2, (pl.HLo[i]+pl.HHi[i])/2
		}
		layouts = append(layouts, l)
	}
	eval, _ := fastest(func(int) error {
		for i := range layouts {
			cost.DefaultWeights.Cost(&layouts[i])
		}
		return nil
	})
	vals["cost.eval_ns"] = float64(eval.Nanoseconds()) / float64(len(layouts))
	vals["cost.eval_allocs"], _ = allocsOf(len(layouts), func(i int) { cost.DefaultWeights.Cost(&layouts[i]) })

	// BDIO on up to 16 stored placements, per annealing step.
	ids := s.IDs()[:min(16, len(s.IDs()))]
	anneal, err := fastest(func(int) error {
		for k, id := range ids {
			cfg := bdio.Config{Steps: steps, Rand: rand.New(rand.NewSource(int64(k)))}
			if _, err := bdio.Optimize(c, s.Get(id).Clone(), s.Floorplan(), cost.DefaultWeights, cfg); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	vals["bdio.step_ns"] = float64(anneal.Nanoseconds()) / float64(len(ids)*steps)

	// Insertion of another seed's placements into fresh copies of the
	// structure; compile and encode of fresh copies.
	var v2 bytes.Buffer
	if err := s.SaveBinary(&v2); err != nil {
		return nil, err
	}
	copies := make([]*core.Structure, 2*ladderReps)
	for i := range copies {
		if copies[i], err = core.Load(bytes.NewReader(v2.Bytes()), c); err != nil {
			return nil, err
		}
	}
	other, _, err := g.Generate(ctx, c, gen.Spec{Backend: g.Name(), Seed: spec.Seed + 1, Iterations: iters, BDIOSteps: steps, Weights: w})
	if err != nil {
		return nil, err
	}
	cands := other.IDs()[:min(128, len(other.IDs()))]
	insert, err := fastest(func(k int) error {
		for _, id := range cands {
			if _, err := copies[ladderReps+k].Insert(other.Get(id).Clone()); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	vals["core.insert_us"] = float64(insert) / float64(time.Microsecond) / float64(len(cands))
	compile, _ := fastest(func(k int) error {
		core.Compile(copies[k])
		return nil
	})
	vals["core.compile_us"] = float64(compile) / float64(time.Microsecond)
	encode, err := fastest(func(k int) error { return copies[k].SaveBinaryCompiled(io.Discard) })
	if err != nil {
		return nil, err
	}
	vals["core.encode_us"] = float64(encode) / float64(time.Microsecond)

	dir, err := os.MkdirTemp("", "bench-put-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	put, err := fastest(func(k int) error {
		_, err := st.Put(store.Meta{Key: fmt.Sprintf("ladder-%d", k), Circuit: c.Name, Seed: spec.Seed}, s)
		return err
	})
	if err != nil {
		return nil, err
	}
	vals["store.put_ms"] = ms(put)
	return vals, nil
}
