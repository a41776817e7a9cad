// Package explorer implements the Placement Explorer — the outer simulated
// annealing of the paper's nested generation algorithm (§3.1, Fig. 4).
//
// Each iteration follows the figure's flow exactly:
//
//	Placement Selector -> Placement Expansion -> BDIO -> Resolve Overlaps ->
//	Store Placement -> Accept New Placement? -> Perturb (or Restore)
//
// Every explored placement is resolved and stored; the Metropolis test on
// the BDIO's average cost only decides which placement seeds the next
// perturbation. The run stops on coverage target, placement budget, or
// iteration budget — whichever first. Evaluate, the step from Placement
// Expansion to Store Placement plus the stop test, is the part every
// generation backend shares: internal/gen's GA evaluates through it too.
package explorer

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"mps/internal/anneal"
	"mps/internal/bdio"
	"mps/internal/core"
	"mps/internal/cost"
	"mps/internal/netlist"
	"mps/internal/placement"
)

// Config controls one generation run.
type Config struct {
	// Seed drives all randomness; runs with equal seeds and configs are
	// identical (when Chains == 1).
	Seed int64
	// MaxIterations bounds outer-SA steps. Default 300.
	MaxIterations int
	// MaxPlacements stops once the structure holds this many placements
	// (0 = unlimited).
	MaxPlacements int
	// TargetCoverage stops once exact volume coverage reaches this fraction
	// (0 = disabled). Practical only for small circuits: a placement's
	// volume fraction is a product of 2N per-row fractions, so coverage
	// on large circuits stays far below any useful target.
	TargetCoverage float64
	// BDIO configures the inner annealer. GenerateContext sets its Rand
	// and Stop per chain; a direct caller of Evaluate sets them itself.
	BDIO bdio.Config
	// Evaluator scores layouts. Default cost.DefaultWeights.
	Evaluator cost.Evaluator
	// Chains runs this many independent explorer chains feeding one
	// structure (an extension beyond the paper's single chain, seeded
	// Seed + chain·7919). Default 1.
	Chains int
	// Progress, when non-nil, observes each iteration. Called under the
	// structure lock; keep it fast.
	Progress func(Progress)
}

// Progress is one generation progress snapshot, reported once per outer
// iteration. Placements and Coverage describe the shared structure, so
// with multiple chains they advance monotonically even though Chain and
// Iteration interleave.
type Progress struct {
	// Chain is the reporting explorer chain, Iteration its outer-SA step.
	Chain     int
	Iteration int
	// Placements is the structure's current stored-placement count.
	Placements int
	// Coverage is the structure's exact covered volume fraction so far.
	Coverage float64
}

// The outer SA's fixed settings, which the paper leaves to the user.
const (
	// perturbFraction is the share of blocks moved per perturbation
	// (§3.1.4: "a percentage value set by the user").
	perturbFraction = 0.3
	// expandStep is the units added per expansion increment.
	expandStep = 1
	// cooling is the geometric cooling factor. The initial temperature
	// is calibrated from the first iteration's cost.
	cooling = 0.98
)

func (cfg Config) withDefaults() Config {
	if cfg.MaxIterations == 0 {
		cfg.MaxIterations = 300
	}
	if cfg.Evaluator == nil {
		cfg.Evaluator = cost.DefaultWeights
	}
	if cfg.Chains == 0 {
		cfg.Chains = 1
	}
	return cfg
}

// Stats summarizes a generation run — the raw material of Table 2.
type Stats struct {
	Iterations     int
	Stored         int // placements that survived resolve (pieces counted once per insert)
	CandidatesDied int
	Accepted       int
	Chains         int // explorer chains that fed the structure
	BestAvgCost    float64
	FinalCoverage  float64
	Duration       time.Duration
}

// GenerateContext runs the Placement Explorer and returns the filled
// structure. The context is checked before every explored placement and
// threaded into the inner annealer, so a cancelled generation stops within
// one BDIO proposal. On cancellation the context's error is returned and
// the partially filled structure is discarded — generation is all or
// nothing.
func GenerateContext(ctx context.Context, c *netlist.Circuit, cfg Config) (*core.Structure, Stats, error) {
	if err := c.Validate(); err != nil {
		return nil, Stats{}, fmt.Errorf("explorer: %w", err)
	}
	cfg = cfg.withDefaults()
	s := core.NewStructure(c, placement.DefaultFloorplan(c))

	start := time.Now()
	var stats Stats
	stats.BestAvgCost = math.Inf(1)
	stats.Chains = cfg.Chains

	if cfg.Chains == 1 {
		if err := runChain(ctx, c, s, cfg, 0, rand.New(rand.NewSource(cfg.Seed)), &stats, nil); err != nil {
			return nil, stats, err
		}
	} else {
		var mu sync.Mutex
		var wg sync.WaitGroup
		errs := make([]error, cfg.Chains)
		for ch := 0; ch < cfg.Chains; ch++ {
			wg.Add(1)
			go func(ch int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(cfg.Seed + int64(ch)*7919))
				errs[ch] = runChain(ctx, c, s, cfg, ch, rng, &stats, &mu)
			}(ch)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return nil, stats, err
			}
		}
	}

	stats.FinalCoverage = s.Coverage()
	stats.Duration = time.Since(start)
	return s, stats, nil
}

// runChain executes one explorer chain: the Placement Selector, the
// perturbation schedule and the Metropolis test around Evaluate. When mu
// is non-nil, structure access and stats updates are serialized across
// chains.
func runChain(ctx context.Context, c *netlist.Circuit, s *core.Structure, cfg Config, chain int, rng *rand.Rand, stats *Stats, mu *sync.Mutex) error {
	// Placement Selector: initial random legal placement at minimum dims.
	fp := s.Floorplan()
	accepted, err := placement.RandomLegal(c, fp, rng)
	if err != nil {
		return fmt.Errorf("explorer: %w", err)
	}
	acceptedCost := math.Inf(1)
	temp := 0.0 // calibrated after the first iteration
	// Perturbation moves a block at most a quarter of the floorplan side.
	maxShift := max(1, fp.W()/4)

	iters := cfg.MaxIterations / max(1, cfg.Chains)
	if iters < 1 {
		iters = 1
	}
	cfg.BDIO.Rand = rng
	cfg.BDIO.Stop = ctx.Done()

	for it := 0; it < iters; it++ {
		// Perturb Placement: the candidate's coordinates come from the last
		// accepted placement (paper: "Otherwise, the last accepted placement
		// is used"), moved with toroidal wrap. The first iteration explores
		// the selector's placement unperturbed. The move radius cools with
		// the annealing schedule so late iterations refine rather than
		// teleport (standard SA practice; the paper leaves the move size to
		// the user).
		base := accepted.Clone()
		if it > 0 {
			shift := maxShift
			if iters > 1 {
				frac := 1.0 - 0.9*float64(it)/float64(iters-1)
				shift = int(float64(maxShift) * frac)
				if shift < 2 {
					shift = 2
				}
			}
			base.Perturb(c, fp, rng, perturbFraction, shift)
		}

		avgCost, stop, err := Evaluate(ctx, c, s, base.Clone(), cfg, chain, it, stats, mu)
		if err != nil {
			return fmt.Errorf("explorer: %w", err)
		}
		if stop {
			return nil
		}

		// Accept New Placement? — Metropolis on the BDIO average cost. On
		// acceptance the candidate's coordinates seed future perturbations;
		// on rejection the previous accepted placement is restored (it was
		// never overwritten).
		if temp == 0 {
			temp = math.Max(1, 0.1*avgCost) // first-iteration calibration
		}
		accept := avgCost <= acceptedCost ||
			rng.Float64() < math.Exp(-(avgCost-acceptedCost)/temp)
		if accept {
			accepted = base
			acceptedCost = avgCost
			if mu != nil {
				mu.Lock()
			}
			stats.Accepted++
			if mu != nil {
				mu.Unlock()
			}
		}
		temp *= cooling
	}
	return nil
}

// Evaluate runs one explored placement through the Fig. 4 step every
// generation backend shares: Placement Expansion (cand's intervals restart
// at minimum dimensions and grow by expandStep), the BDIO (cfg.Evaluator
// and cfg.BDIO, whose Rand and Stop the caller sets), then Resolve
// Overlaps and Store Placement. It takes ownership of cand and draws from
// no random stream but the BDIO's. The insert, the Stats counters, the
// cfg.Progress report for (chain, it) and the stop test run under mu when
// it is non-nil. It returns the BDIO average cost and whether the
// structure reached cfg.MaxPlacements or cfg.TargetCoverage; its errors,
// a cancelled ctx's included, carry no package prefix.
func Evaluate(ctx context.Context, c *netlist.Circuit, s *core.Structure, cand *placement.Placement, cfg Config, chain, it int, stats *Stats, mu *sync.Mutex) (avgCost float64, stop bool, err error) {
	if err := ctx.Err(); err != nil {
		return 0, false, fmt.Errorf("generation cancelled: %w", err)
	}
	// Placement Expansion grows the candidate's intervals.
	fp := s.Floorplan()
	cand.ResetToMin(c)
	cand.Expand(c, fp, expandStep)

	// Inner annealer: shrink intervals, attach costs.
	res, err := bdio.Optimize(c, cand, fp, cfg.Evaluator, cfg.BDIO)
	if err != nil {
		// A stop mid-BDIO is a cancellation, not an annealer fault: the
		// half-optimized candidate is discarded, never stored.
		if errors.Is(err, anneal.ErrStopped) {
			return 0, false, fmt.Errorf("generation cancelled: %w", context.Cause(ctx))
		}
		return 0, false, err
	}

	// Resolve Overlaps + Store Placement.
	if mu != nil {
		mu.Lock()
		defer mu.Unlock()
	}
	insert, err := s.Insert(cand)
	if err != nil {
		return 0, false, err
	}
	stats.Iterations++
	if insert.CandidateDied {
		stats.CandidatesDied++
	} else {
		stats.Stored++
	}
	if res.AvgCost < stats.BestAvgCost {
		stats.BestAvgCost = res.AvgCost
	}
	if cfg.Progress != nil {
		cfg.Progress(Progress{
			Chain:      chain,
			Iteration:  it,
			Placements: s.NumPlacements(),
			Coverage:   s.Coverage(),
		})
	}
	stop = (cfg.MaxPlacements > 0 && s.NumPlacements() >= cfg.MaxPlacements) ||
		(cfg.TargetCoverage > 0 && s.Coverage() >= cfg.TargetCoverage)
	return res.AvgCost, stop, nil
}
