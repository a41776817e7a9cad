// Package gen puts multi-placement-structure generation behind one
// uniform, cancellable interface. A Generator turns a circuit plus a
// normalized, backend-tagged Spec into a finished *core.Structure; a
// process-global registry maps backend names to implementations so every
// layer above — the mps facade, the mpsd job scheduler and HTTP spec, the
// portfolio fan-out, the benchmarks — selects generation strategy by
// name instead of hard-wiring the nested-annealing explorer.
//
// Two backends register at init:
//
//   - "anneal" (the default): the paper's nested simulated annealing —
//     Placement Explorer outside, BDIO inside — which mps.Run runs when a
//     request names no backend. For identical seeds and budgets its output
//     is byte-identical to the pre-interface pipeline (pinned by test).
//   - "ga": a genetic algorithm over sequence-pair encodings. Parents
//     recombine by order crossover of their derived sequence pairs
//     (decoded to legal packings by longest paths), mutation reuses the
//     explorer's perturbation move set, tournament selection ranks by
//     the same BDIO average cost, and every candidate is evaluated
//     through explorer.Propose and explorer.Store, the two halves of the
//     step the explorer runs once per iteration — so compiled indexes,
//     portfolios, the store, and the cluster serve GA output unchanged.
//
// The Generator contract: on success the returned structure is finished —
// compacted (fork fragments re-merged), densely renumbered (IDs survive a
// save/load round trip), and invariant-clean — but carries no backup;
// installing the uncovered-space fallback is the caller's concern (it is
// derived from the circuit, not from generation). On cancellation the
// context's error is returned (errors.Is(err, context.Canceled) or
// DeadlineExceeded), no structure is returned, and nothing of the partial
// run escapes. Implementations must be deterministic per seed and safe
// for concurrent use by independent calls.
package gen

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"mps/internal/core"
	"mps/internal/cost"
	"mps/internal/explorer"
	"mps/internal/netlist"
)

// Default is the backend used when a spec names none — the explorer
// stack the repository always had. Every pre-interface cache key,
// manifest row, and job record implicitly meant this backend, which is
// why spec keys omit the backend tag for it (see internal/serve).
const Default = "anneal"

// Stats summarizes a generation run. All backends fill the same shape
// (it is the explorer's historical stats struct): Iterations counts
// candidate evaluations, Stored/CandidatesDied the resolve outcomes,
// Accepted the backend's notion of an improving step (Metropolis
// acceptances for anneal, fitness improvements over the selected parent
// for ga), BestAvgCost the best BDIO average cost seen.
type Stats = explorer.Stats

// Progress is the per-evaluation progress snapshot delivered to
// Spec.Progress. For the ga backend Chain is always 0 and Iteration is
// the evaluation index.
type Progress = explorer.Progress

// Spec is the normalized, backend-tagged generation request: every knob
// that affects the produced structure plus the hooks a long-running
// backend must honor. Zero budget fields mean "backend default" (the
// same defaults the explorer always applied); callers that cache by spec
// should resolve budgets before keying (mps.Options.Budgets does).
type Spec struct {
	// Backend names the generator this spec is for. Informational here —
	// dispatch happens via ByName — but carried so logs and job records
	// are self-describing. Empty means Default.
	Backend string
	// Seed drives all randomness; equal seeds and specs give identical
	// structures.
	Seed int64
	// Iterations is the candidate-evaluation budget: outer-SA steps for
	// anneal, total individual evaluations for ga. 0 = backend default.
	Iterations int
	// BDIOSteps is the inner-annealer budget per evaluated candidate,
	// identical in meaning across backends. 0 = backend default.
	BDIOSteps int
	// Chains runs parallel explorer chains feeding one structure
	// (anneal only; ga ignores it — its population is the parallelism).
	Chains int
	// MaxPlacements stops generation early at this structure size (0 = off).
	MaxPlacements int
	// TargetCoverage stops generation at this exact volume coverage
	// (0 = off; practical only for small circuits).
	TargetCoverage float64
	// Evaluator overrides the default wire-length + area cost. All
	// backends score candidates with the same evaluator, so cross-backend
	// cost columns are comparable.
	Evaluator cost.Evaluator
	// Weights selects the weighted objective vector candidates are scored
	// with (see cost.Weights): the zero vector means the default balanced
	// cost, bit-identical to generation before weights existed. Ignored
	// when Evaluator is set — an explicit evaluator always wins.
	Weights cost.Weights
	// Progress observes generation, once per candidate evaluation.
	// Called on the generating goroutine; keep it fast.
	Progress func(Progress)
}

// evaluator resolves the cost hook a backend scores with: the explicit
// Evaluator when set, else the weighted objective. The zero vector's
// canonical form is cost.DefaultWeights, so weightless specs score
// bit-identically to pre-weights output.
func (s Spec) evaluator() cost.Evaluator {
	if s.Evaluator != nil {
		return s.Evaluator
	}
	return s.Weights.Canonical()
}

// Generator is one generation backend.
type Generator interface {
	// Name returns the backend's registry name.
	Name() string
	// Generate builds a finished structure for the circuit under the
	// spec. See the package comment for the contract.
	Generate(ctx context.Context, c *netlist.Circuit, spec Spec) (*core.Structure, Stats, error)
}

var (
	regMu    sync.RWMutex
	registry = map[string]Generator{}
)

// Register adds a backend under its Name. It panics on an empty name or
// a duplicate registration — backends register from init, where a
// conflict is a programming error worth failing loudly on.
func Register(g Generator) {
	name := g.Name()
	if name == "" {
		panic("gen: Register with empty backend name")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("gen: backend %q registered twice", name))
	}
	registry[name] = g
}

// ByName returns the backend registered under name ("" means Default).
// The error for an unknown name lists every registered backend, so it is
// directly servable as an HTTP 400 body.
func ByName(name string) (Generator, error) {
	if name == "" {
		name = Default
	}
	regMu.RLock()
	g, ok := registry[name]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("gen: unknown backend %q (registered: %s)",
			name, strings.Join(Names(), ", "))
	}
	return g, nil
}

// Names returns every registered backend name, sorted.
func Names() []string {
	regMu.RLock()
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	regMu.RUnlock()
	sort.Strings(names)
	return names
}
