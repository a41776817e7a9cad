package gen

import (
	"context"

	"mps/internal/bdio"
	"mps/internal/core"
	"mps/internal/explorer"
	"mps/internal/netlist"
)

func init() { Register(annealBackend{}) }

// annealBackend wraps the Placement Explorer — the paper's nested
// simulated annealing — as the default generation backend. The Config
// mapping below is exactly what the facade (mps.Run today) built before
// backends existed, and the Compact+Renumber finishing steps moved here
// with it, so ByName("anneal") is byte-identical to the pre-interface
// pipeline for identical seed and budgets (pinned by
// TestAnnealMatchesLegacyPipeline).
type annealBackend struct{}

func (annealBackend) Name() string { return Default }

func (annealBackend) Generate(ctx context.Context, c *netlist.Circuit, spec Spec) (*core.Structure, Stats, error) {
	s, stats, err := explorer.GenerateContext(ctx, c, explorer.Config{
		Seed:           spec.Seed,
		MaxIterations:  spec.Iterations,
		MaxPlacements:  spec.MaxPlacements,
		TargetCoverage: spec.TargetCoverage,
		Chains:         spec.Chains,
		Evaluator:      spec.evaluator(),
		BDIO:           bdio.Config{Steps: spec.BDIOSteps},
		Progress:       spec.Progress,
	})
	if err != nil {
		return nil, stats, err
	}
	// Re-merge fork fragments left by overlap resolution; queries are
	// unaffected, the structure just gets smaller and faster. Renumbering
	// then packs the ID holes deletion left, so the IDs clients see
	// survive a save/load round trip (see core.Renumber).
	s.Compact()
	s.Renumber()
	return s, stats, nil
}
