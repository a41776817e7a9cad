package main

// Workload plans. The parent process builds everything a run sends to the
// servers from --seed, before any server exists, together with the oracle
// answer of every query: the child process only replays these bodies.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"mps"
	"mps/internal/cluster"
	"mps/internal/core"
	"mps/internal/serve"
)

const (
	circuitName = "TwoStageOpamp"
	// artifactSeed is the structure seed the query workloads serve.
	artifactSeed = 1
	// batchQueries and batchPool shape the single_batch stream (also
	// portfolio_weighted's and generate_mixed's reads): 64 distinct
	// requests of 256 queries, cycled by the clients.
	batchQueries = 256
	batchPool    = 64
	portfolioK   = 3
	// cluster_forward serves clusterKeys structures, all owned by node B,
	// from a pool of clusterPool requests of clusterBatch queries.
	clusterKeys  = 8
	clusterBatch = 4
	clusterPool  = 512
	// genSeedBase starts generate_mixed's generation seeds. The list does
	// not depend on --seed: generation time varies about 40% between
	// seeds and coverage about 50% (coefficients of variation of
	// TwoStageOpamp at 300/300 over seeds 1-40), so a seed-dependent list
	// would move the writer's load and gen_coverage from one --seed to the
	// next by more than any bound.
	genSeedBase = 1001
	genBudget   = 300 // iterations and bdio_steps of each generate_mixed spec
	// genQualitySeeds is how many leading generate_mixed seeds gen_coverage
	// and gen_cost average over.
	genQualitySeeds = 16
)

// Advertised peer URLs of the two-node fleet. The ring hashes peer URLs,
// so fixed names give every run the same key ownership; the child dials
// them at its loopback listeners (see installPeerDialer).
const (
	peerA = "http://a.mpsbench.invalid:7001"
	peerB = "http://b.mpsbench.invalid:7002"
)

// plan is one run's complete input, sent from the parent to the child.
type plan struct {
	Workload string
	Seed     int64
	Seconds  int
	Trace    bool
	Spans    string // traced run: where the spans file goes
	// Artifacts are POSTed to /v1/structures during set-up.
	Artifacts []artifact
	// Requests is the /v1/instantiate pool the query clients cycle through.
	Requests []request
	// Fleet runs the workload on two clustered nodes, entering node A.
	Fleet bool
	// Generate makes one client POST genSpec(0), genSpec(1), ... in a
	// closed loop while the other reads.
	Generate bool
}

// artifact is one set-up POST and what its response must report.
type artifact struct {
	Spec serve.GenerateSpec
	// Key and Owner, when set, are the canonical key and the answering node
	// the response must name.
	Key, Owner string
	Placements int
	// Coverage is the exact covered fraction (single structures only; a
	// portfolio reports a Monte-Carlo estimate).
	Coverage float64
}

// request is one /v1/instantiate body with the oracle answer to each of
// its queries.
type request struct {
	Body     []byte
	Artifact int // index into plan.Artifacts
	Queries  []mps.DimQuery
	Want     []answer
	Stored   int // queries answered by a stored placement
}

// answer is the expected result of one query.
type answer struct {
	X, Y        []int
	PlacementID int
	Member      int
	FromBackup  bool
}

// instantiateBody and queryBody are the /v1/instantiate wire format.
type instantiateBody struct {
	Spec    serve.GenerateSpec `json:"spec"`
	Queries []queryBody        `json:"queries"`
}

type queryBody struct {
	Ws      []int              `json:"ws"`
	Hs      []int              `json:"hs"`
	Weights *serve.WeightsSpec `json:"weights,omitempty"`
}

// buildPlan generates the workload's artifacts in process and draws its
// request pool from seed.
func buildPlan(ctx context.Context, workload string, seed int64) (*plan, error) {
	p := &plan{Workload: workload, Seed: seed}
	rng := rand.New(rand.NewSource(seed))
	switch workload {
	case "single_batch", "generate_mixed":
		spec := structureSpec(artifactSeed, mps.Weights{})
		res, err := runSpecs(ctx, []serve.GenerateSpec{spec})
		if err != nil {
			return nil, err
		}
		st := res[0].Structure
		p.Artifacts = []artifact{{Spec: spec, Placements: st.NumPlacements(), Coverage: res[0].Stats[0].FinalCoverage}}
		for i := 0; i < batchPool; i++ {
			r, err := structureRequest(rng, 0, spec, st, batchQueries)
			if err != nil {
				return nil, err
			}
			p.Requests = append(p.Requests, r)
		}
		p.Generate = workload == "generate_mixed"
	case "portfolio_weighted":
		ladder := mps.WeightLadder(portfolioK)
		spec := structureSpec(artifactSeed, mps.Weights{})
		spec.Portfolio = portfolioK
		for _, w := range ladder {
			spec.MemberWeights = append(spec.MemberWeights, *weightsSpec(w))
		}
		res, err := runSpecs(ctx, []serve.GenerateSpec{spec})
		if err != nil {
			return nil, err
		}
		pf := res[0].Portfolio
		// Members are ordinary artifacts: set-up POSTs them like any
		// structure, and the portfolio POST assembles them.
		for i, w := range ladder {
			p.Artifacts = append(p.Artifacts, artifact{
				Spec:       structureSpec(mps.PortfolioMemberSeed(artifactSeed, i), w),
				Placements: pf.Member(i).NumPlacements(),
				Coverage:   res[0].Stats[i].FinalCoverage,
			})
		}
		p.Artifacts = append(p.Artifacts, artifact{Spec: spec, Placements: pf.NumPlacements()})
		for i := 0; i < batchPool; i++ {
			r, err := portfolioRequest(rng, len(p.Artifacts)-1, spec, pf, ladder)
			if err != nil {
				return nil, err
			}
			p.Requests = append(p.Requests, r)
		}
	case "cluster_forward":
		p.Fleet = true
		ring, err := cluster.New(cluster.Config{Self: peerA, Peers: []string{peerA, peerB}, Replicas: 1})
		if err != nil {
			return nil, err
		}
		var specs []serve.GenerateSpec
		for s := int64(1); len(specs) < clusterKeys; s++ {
			spec := structureSpec(s, mps.Weights{})
			if key := canonicalKey(spec); ring.Owner(key) == peerB {
				specs = append(specs, spec)
				p.Artifacts = append(p.Artifacts, artifact{Spec: spec, Key: key, Owner: peerB})
			}
		}
		res, err := runSpecs(ctx, specs)
		if err != nil {
			return nil, err
		}
		for i := range p.Artifacts {
			p.Artifacts[i].Placements = res[i].Structure.NumPlacements()
			p.Artifacts[i].Coverage = res[i].Stats[0].FinalCoverage
		}
		for i := 0; i < clusterPool; i++ {
			a := rng.Intn(clusterKeys)
			r, err := structureRequest(rng, a, specs[a], res[a].Structure, clusterBatch)
			if err != nil {
				return nil, err
			}
			p.Requests = append(p.Requests, r)
		}
	default:
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	return p, nil
}

// structureSpec is a balanced-effort TwoStageOpamp spec, as a client
// writes it.
func structureSpec(seed int64, w mps.Weights) serve.GenerateSpec {
	return serve.GenerateSpec{Circuit: circuitName, Seed: seed, Effort: "balanced", Weights: weightsSpec(w)}
}

// genSpec is generate_mixed's i-th generation request.
func genSpec(i int) serve.GenerateSpec {
	return serve.GenerateSpec{Circuit: circuitName, Seed: genSeedBase + int64(i), Iterations: genBudget, BDIOSteps: genBudget}
}

func weightsSpec(w mps.Weights) *serve.WeightsSpec {
	if w.IsZero() {
		return nil
	}
	return &serve.WeightsSpec{Wire: w.Wire, Area: w.Area, Aspect: w.Aspect}
}

func weightsOf(w *serve.WeightsSpec) mps.Weights {
	if w == nil {
		return mps.Weights{}
	}
	return mps.Weights{Wire: w.Wire, Area: w.Area, Aspect: w.Aspect}
}

// canonicalKey is serve's canonical key of an unweighted single-structure
// spec. Spec keys are a compatibility promise of the store and the ring;
// set-up still checks every key the server reports against this one.
func canonicalKey(spec serve.GenerateSpec) string {
	it, bd := mps.Options{Iterations: spec.Iterations, BDIOSteps: spec.BDIOSteps}.Budgets()
	return fmt.Sprintf("%s|seed=%d|it=%d|bdio=%d|chains=1|maxp=0|backup=tree", spec.Circuit, spec.Seed, it, bd)
}

// runSpec generates spec in process through the facade, exactly as the
// server's job worker does. Specs here use balanced effort or explicit
// budgets, which mps.Options resolves the same way.
func runSpec(ctx context.Context, spec serve.GenerateSpec) (mps.RunResult, error) {
	c, err := mps.Benchmark(spec.Circuit)
	if err != nil {
		return mps.RunResult{}, err
	}
	req := mps.Request{
		Circuit: c,
		Options: mps.Options{Seed: spec.Seed, Iterations: spec.Iterations, BDIOSteps: spec.BDIOSteps},
		Weights: weightsOf(spec.Weights),
	}
	if spec.Portfolio > 1 {
		req.K = spec.Portfolio
		for i := range spec.MemberWeights {
			req.MemberWeights = append(req.MemberWeights, weightsOf(&spec.MemberWeights[i]))
		}
	}
	return mps.Run(ctx, req)
}

// runSpecs runs specs on GOMAXPROCS goroutines, results in spec order.
func runSpecs(ctx context.Context, specs []serve.GenerateSpec) ([]mps.RunResult, error) {
	out := make([]mps.RunResult, len(specs))
	errs := make([]error, len(specs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(specs); i = int(next.Add(1)) - 1 {
				out[i], errs[i] = runSpec(ctx, specs[i])
			}
		}()
	}
	wg.Wait()
	return out, errors.Join(errs...)
}

// drawQuery returns dimensions drawn uniformly from a stored placement's
// box (so a stored placement answers) or, with st nil, uniformly within
// the circuit's designer bounds (so the backup nearly always answers).
func drawQuery(rng *rand.Rand, c *mps.Circuit, st *core.Structure) mps.DimQuery {
	n := c.N()
	q := mps.DimQuery{Ws: make([]int, n), Hs: make([]int, n)}
	if st != nil {
		ids := st.IDs()
		pl := st.Get(ids[rng.Intn(len(ids))])
		for i := 0; i < n; i++ {
			q.Ws[i] = pl.WLo[i] + rng.Intn(pl.WHi[i]-pl.WLo[i]+1)
			q.Hs[i] = pl.HLo[i] + rng.Intn(pl.HHi[i]-pl.HLo[i]+1)
		}
		return q
	}
	for i, b := range c.Blocks {
		q.Ws[i] = b.WMin + rng.Intn(b.WMax-b.WMin+1)
		q.Hs[i] = b.HMin + rng.Intn(b.HMax-b.HMin+1)
	}
	return q
}

// uncovered marks every fourth query of a batch as a uniform draw; the
// other three come from stored boxes.
func uncovered(q int) bool { return q%4 == 3 }

// structureRequest draws n queries against one structure and answers them
// with the tree path (core.Structure.Instantiate), never the compiled
// index the server uses.
func structureRequest(rng *rand.Rand, art int, spec serve.GenerateSpec, st *mps.Structure, n int) (request, error) {
	r := request{Artifact: art}
	for q := 0; q < n; q++ {
		boxes := st.Structure
		if uncovered(q) {
			boxes = nil
		}
		dq := drawQuery(rng, st.Circuit(), boxes)
		res, err := st.Structure.Instantiate(dq.Ws, dq.Hs)
		if err != nil {
			return request{}, fmt.Errorf("oracle: %w", err)
		}
		member := 0
		if res.FromBackup {
			member = -1
		}
		r.Queries = append(r.Queries, dq)
		r.Want = append(r.Want, answer{X: res.X, Y: res.Y, PlacementID: res.PlacementID, Member: member, FromBackup: res.FromBackup})
	}
	return r.seal(spec)
}

// portfolioRequest draws covered queries evenly from every member's boxes
// and cycles the per-query routing weights through the ladder. The oracle
// is the in-process facade portfolio.
func portfolioRequest(rng *rand.Rand, art int, spec serve.GenerateSpec, pf *mps.Portfolio, ladder []mps.Weights) (request, error) {
	r := request{Artifact: art}
	covered := 0
	for q := 0; q < batchQueries; q++ {
		var boxes *core.Structure
		if !uncovered(q) {
			boxes = pf.Member(covered % pf.K())
			covered++
		}
		dq := drawQuery(rng, pf.Circuit(), boxes)
		dq.Weights = ladder[q%len(ladder)]
		r.Queries = append(r.Queries, dq)
	}
	for _, br := range pf.InstantiateBatch(r.Queries) {
		if br.Err != nil {
			return request{}, fmt.Errorf("oracle: %w", br.Err)
		}
		r.Want = append(r.Want, answer{X: br.X, Y: br.Y, PlacementID: br.PlacementID, Member: br.Member, FromBackup: br.FromBackup})
	}
	return r.seal(spec)
}

// seal encodes the request body and counts stored answers.
func (r request) seal(spec serve.GenerateSpec) (request, error) {
	body := instantiateBody{Spec: spec}
	for _, q := range r.Queries {
		body.Queries = append(body.Queries, queryBody{Ws: q.Ws, Hs: q.Hs, Weights: weightsSpec(q.Weights)})
	}
	b, err := json.Marshal(body)
	if err != nil {
		return request{}, err
	}
	r.Body = b
	for _, w := range r.Want {
		if !w.FromBackup {
			r.Stored++
		}
	}
	return r, nil
}
