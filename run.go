package mps

// This file is the backend-aware entry point of the facade. Run is the
// one generation call every shape reduces to: single structure or
// K-member portfolio, any registered backend, uniform cancellation.

import (
	"context"
	"fmt"
	"sync"

	"mps/internal/cost"
	"mps/internal/gen"
)

// DefaultBackend is the generation backend used when a Request (or a
// serve spec, or a CLI flag) names none: "anneal", the paper's nested
// simulated annealing.
const DefaultBackend = gen.Default

// Backends returns the registered generation backend names, sorted.
func Backends() []string { return gen.Names() }

// Weights re-exports the objective weight vector (see cost.Weights):
// wire length, bounding-box area, and aspect-ratio deviation weights.
// The zero value means "the default balanced objective" everywhere it
// appears — generation requests, portfolio members, and queries — so
// existing callers are untouched by the field's existence.
type Weights = cost.Weights

// The weight ladder re-exported: the member objectives a portfolio
// spreads across when the caller asks for K members but names no
// weights (see Request.MemberWeights).
var (
	BalancedWeights    = cost.BalancedWeights
	AreaHeavyWeights   = cost.AreaHeavyWeights
	WireHeavyWeights   = cost.WireHeavyWeights
	AspectHeavyWeights = cost.AspectHeavyWeights
)

// WeightLadder returns the k default member objectives of a
// weight-diverse portfolio: area-heavy, wire-heavy, aspect-heavy,
// balanced, cycling for larger k.
func WeightLadder(k int) []Weights { return cost.WeightLadder(k) }

// Request describes one generation run for Run: which circuit, which
// options, which backend, and how many structures.
type Request struct {
	// Circuit is the circuit to generate for. Required.
	Circuit *Circuit
	// Options tunes generation. For portfolios (K >= 1) member i runs
	// with Seed = PortfolioMemberSeed(Options.Seed, i) and every other
	// option unchanged.
	Options Options
	// Backend names the generation backend ("" = DefaultBackend). Unknown
	// names fail fast, before any generation work starts, with an error
	// listing the registered backends.
	Backend string
	// K selects the output shape: 0 produces a single Structure, 1..
	// MaxPortfolioMembers a K-member Portfolio. (K == 1 is a genuine
	// 1-member portfolio.)
	K int
	// Weights selects the generation objective (zero = the default
	// balanced cost, bit-identical to generation before weights existed).
	// For portfolios it is the objective of every member MemberWeights
	// does not override.
	Weights Weights
	// MemberWeights optionally overrides Weights per portfolio member:
	// member i uses MemberWeights[i] when non-zero, else Weights. Must be
	// empty or length K.
	//
	// When K > 1 and both Weights and MemberWeights are empty, the
	// default weight ladder (WeightLadder) replaces seed-only member
	// diversity: members still generate from their derived member seeds,
	// but each optimizes a different objective mix, so one portfolio
	// serves area-, wire-, and aspect-critical queries well. Pass an
	// explicit all-zero MemberWeights of length K to opt out and get the
	// historical seed-only diversity.
	MemberWeights []Weights
}

// weightFor resolves member i's generation weights (zero entry =
// Request.Weights).
func (req Request) weightFor(i int) Weights {
	if i < len(req.MemberWeights) && !req.MemberWeights[i].IsZero() {
		return req.MemberWeights[i]
	}
	return req.Weights
}

// RunResult is Run's output: exactly one of Structure (K == 0) or
// Portfolio (K >= 1) is set. Stats holds per-generation statistics —
// one entry for a single structure, member i's stats at index i for a
// portfolio.
type RunResult struct {
	Structure *Structure
	Portfolio *Portfolio
	Stats     []Stats
}

// Run is the backend-aware generation entry point: it validates the
// request (including the backend name) before any annealing or
// evolution starts, generates the structure or the portfolio members
// (members concurrently, each from its PortfolioMemberSeed-derived
// seed), and installs the Options.Backup uncovered-space fallback on
// every structure produced. Cancelling the context stops all generation
// within one inner-SA proposal and returns the context's error.
func Run(ctx context.Context, req Request) (RunResult, error) {
	if req.Circuit == nil {
		return RunResult{}, fmt.Errorf("mps: run: nil circuit")
	}
	if _, err := gen.ByName(req.Backend); err != nil {
		return RunResult{}, fmt.Errorf("mps: %w", err)
	}
	if err := req.Weights.Validate(); err != nil {
		return RunResult{}, fmt.Errorf("mps: run: %w", err)
	}
	for i, w := range req.MemberWeights {
		if err := w.Validate(); err != nil {
			return RunResult{}, fmt.Errorf("mps: portfolio member %d: %w", i, err)
		}
	}
	if req.K == 0 {
		if len(req.MemberWeights) != 0 {
			return RunResult{}, fmt.Errorf("mps: run: member weights given for a single-structure request")
		}
		s, stats, err := generateBackend(ctx, req.Circuit, req.Options, req.Backend, req.Weights)
		if err != nil {
			return RunResult{Stats: []Stats{stats}}, err
		}
		return RunResult{Structure: s, Stats: []Stats{stats}}, nil
	}
	if req.K < 0 || req.K > MaxPortfolioMembers {
		return RunResult{}, fmt.Errorf("mps: portfolio size %d outside [1, %d]", req.K, MaxPortfolioMembers)
	}
	if len(req.MemberWeights) != 0 && len(req.MemberWeights) != req.K {
		return RunResult{}, fmt.Errorf("mps: run: %d member weights for a %d-member portfolio",
			len(req.MemberWeights), req.K)
	}
	// Weight-diverse by default: K > 1 with no weights named gets the
	// ladder. Seed-only diversity remains one explicit all-zero
	// MemberWeights away, bit-identical to the portfolios generated before
	// weights existed.
	if req.K > 1 && req.Weights.IsZero() && len(req.MemberWeights) == 0 {
		req.MemberWeights = WeightLadder(req.K)
	}

	members := make([]*Structure, req.K)
	stats := make([]Stats, req.K)
	errs := make([]error, req.K)
	var wg sync.WaitGroup
	for i := 0; i < req.K; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			mopts := req.Options
			mopts.Seed = PortfolioMemberSeed(req.Options.Seed, i)
			members[i], stats[i], errs[i] = generateBackend(ctx, req.Circuit, mopts, req.Backend, req.weightFor(i))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return RunResult{Stats: stats}, fmt.Errorf("mps: generating portfolio member %d: %w", i, err)
		}
	}
	p, err := NewPortfolio(members)
	if err != nil {
		return RunResult{Stats: stats}, err
	}
	return RunResult{Portfolio: p, Stats: stats}, nil
}

// generateBackend runs one generation through the named backend and
// finishes the structure with the facade's backup installation. The
// backend returns a compacted, renumbered, backup-free structure (the
// gen.Generator contract); the backup is facade policy because it is
// derived from the circuit and the Options.Backup choice, not from how
// generation searched.
func generateBackend(ctx context.Context, c *Circuit, opts Options, backend string, weights Weights) (*Structure, Stats, error) {
	g, err := gen.ByName(backend)
	if err != nil {
		return nil, Stats{}, fmt.Errorf("mps: %w", err)
	}
	iters, bdioSteps := opts.Budgets()
	s, stats, err := g.Generate(ctx, c, gen.Spec{
		Backend:        g.Name(),
		Seed:           opts.Seed,
		Iterations:     iters,
		BDIOSteps:      bdioSteps,
		Chains:         opts.Chains,
		MaxPlacements:  opts.MaxPlacements,
		TargetCoverage: opts.TargetCoverage,
		Evaluator:      opts.Evaluator,
		Weights:        weights,
		Progress:       opts.Progress,
	})
	if err != nil {
		return nil, stats, err
	}
	s.SetBackup(newBackup(c, opts.Backup))
	return &Structure{s}, stats, nil
}
