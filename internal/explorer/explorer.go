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
// iteration budget — whichever first.
//
// Each step has two halves, which every generation backend shares
// (internal/gen's GA calls both in turn). Propose, the chain half, runs
// Placement Expansion and the BDIO on a candidate and reads no structure.
// Store, the store half, runs Resolve Overlaps and Store Placement, the
// Stats counters, the Progress report and the stop test. GenerateContext
// runs each chain as a goroutine that proposes and runs its own Metropolis
// test, while the calling goroutine alone stores the chains' steps, in
// (iteration, chain) order. Equal configs therefore give identical
// structures at every chain count.
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
	"mps/internal/geom"
	"mps/internal/netlist"
	"mps/internal/placement"
)

// Config controls one generation run.
type Config struct {
	// Seed drives all randomness; runs with equal seeds and configs are
	// identical.
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
	// and Stop per chain; a direct caller of Propose sets them itself.
	BDIO bdio.Config
	// Evaluator scores layouts. Default cost.DefaultWeights.
	Evaluator cost.Evaluator
	// Chains runs this many independent explorer chains feeding one
	// structure (an extension beyond the paper's single chain, seeded
	// Seed + chain·7919). Values below 1 mean 1.
	Chains int
	// Progress, when non-nil, observes each iteration. Called by the
	// goroutine that stores, in (iteration, chain) order; keep it fast.
	Progress func(Progress)
}

// Progress is one generation progress snapshot, reported once per stored
// step. Placements and Coverage describe the shared structure after the
// step; with multiple chains, the reports of one iteration come in chain
// order.
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
	cfg.Chains = max(1, cfg.Chains)
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
// structure. The context is checked before every stored step and threaded
// into the inner annealer, so a cancelled generation stops within one BDIO
// proposal. On cancellation the context's error is returned and the
// partially filled structure is discarded — generation is all or nothing.
func GenerateContext(ctx context.Context, c *netlist.Circuit, cfg Config) (*core.Structure, Stats, error) {
	if err := c.Validate(); err != nil {
		return nil, Stats{}, fmt.Errorf("explorer: %w", err)
	}
	cfg = cfg.withDefaults()
	s := core.NewStructure(c, placement.DefaultFloorplan(c))

	start := time.Now()
	stats := Stats{BestAvgCost: math.Inf(1), Chains: cfg.Chains}
	if err := run(ctx, c, s, cfg, &stats); err != nil {
		return nil, stats, fmt.Errorf("explorer: %w", err)
	}
	stats.FinalCoverage = s.Coverage()
	stats.Duration = time.Since(start)
	return s, stats, nil
}

// step is one chain iteration, handed from the chain to the store loop.
type step struct {
	cand   *placement.Placement // proposed; from here on only read, by Store and the chain
	accept bool                 // the chain's Metropolis decision on cand
	err    error                // non-nil on a chain's last step: it failed
}

// run starts cfg.Chains chains, each with MaxIterations/Chains
// iterations, and is the structure's only writer: it stores their steps
// in (iteration, chain) order until the budget is spent, a stop target is
// reached, a step fails or ctx is done. Before it returns, it cancels the
// chains and waits for every one to exit.
func run(ctx context.Context, c *netlist.Circuit, s *core.Structure, cfg Config, stats *Stats) error {
	iters := max(1, cfg.MaxIterations/cfg.Chains)
	fp := s.Floorplan()
	chainCtx, cancel := context.WithCancel(ctx)
	var wg sync.WaitGroup
	defer wg.Wait()
	defer cancel()
	steps := make([]chan step, cfg.Chains)
	for ch := range steps {
		// Room for the chain's whole budget: a chain never waits for the
		// store loop, so it runs ahead of slower chains and never blocks
		// on a loop that has returned.
		steps[ch] = make(chan step, iters)
		rng := rand.New(rand.NewSource(cfg.Seed + int64(ch)*7919))
		wg.Add(1)
		go func() {
			defer wg.Done()
			runChain(chainCtx, c, fp, cfg, rng, iters, steps[ch])
		}()
	}

	for it := 0; it < iters; it++ {
		for ch, out := range steps {
			st := <-out
			// Chains may be ahead: nothing is stored once ctx is done.
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("generation cancelled: %w", err)
			}
			if st.err != nil {
				return st.err
			}
			stop, err := Store(s, st.cand, cfg, ch, it, stats)
			if err != nil || stop {
				return err
			}
			if st.accept {
				stats.Accepted++
			}
		}
	}
	return nil
}

// runChain executes one explorer chain's half of every step: the
// Placement Selector, the perturbation schedule, Propose and the
// Metropolis test. It sends each of its iters steps on out and stops after
// the first that fails.
func runChain(ctx context.Context, c *netlist.Circuit, fp geom.Rect, cfg Config, rng *rand.Rand, iters int, out chan<- step) {
	// Placement Selector: initial random legal placement at minimum dims.
	accepted, err := placement.RandomLegal(c, fp, rng)
	if err != nil {
		out <- step{err: err}
		return
	}
	acceptedCost := math.Inf(1)
	temp := 0.0 // calibrated after the first iteration
	// Perturbation moves a block at most a quarter of the floorplan side.
	maxShift := max(1, fp.W()/4)

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
		cand := accepted.Clone()
		if it > 0 {
			shift := maxShift
			if iters > 1 {
				frac := 1.0 - 0.9*float64(it)/float64(iters-1)
				shift = int(float64(maxShift) * frac)
				if shift < 2 {
					shift = 2
				}
			}
			cand.Perturb(c, fp, rng, perturbFraction, shift)
		}

		if err := Propose(ctx, c, fp, cand, cfg); err != nil {
			out <- step{err: err}
			return
		}

		// Accept New Placement? — Metropolis on the BDIO average cost. On
		// acceptance the candidate's coordinates seed future perturbations
		// (Perturb restarts its intervals at minimum dimensions); on
		// rejection the previous accepted placement is kept.
		if temp == 0 {
			temp = math.Max(1, 0.1*cand.AvgCost) // first-iteration calibration
		}
		accept := cand.AvgCost <= acceptedCost ||
			rng.Float64() < math.Exp(-(cand.AvgCost-acceptedCost)/temp)
		if accept {
			accepted, acceptedCost = cand, cand.AvgCost
		}
		temp *= cooling
		out <- step{cand: cand, accept: accept}
	}
}

// Propose runs the chain half of one Fig. 4 step on cand: Placement
// Expansion (cand's intervals restart at minimum dimensions and grow by
// expandStep), then the BDIO with cfg.Evaluator and cfg.BDIO, whose Rand
// and Stop the caller sets. It writes cand's intervals and costs (the BDIO
// average cost lands in cand.AvgCost) but never its coordinates, reads no
// structure, and draws from no random stream but the BDIO's. Its errors,
// a cancelled ctx's included, carry no package prefix.
func Propose(ctx context.Context, c *netlist.Circuit, fp geom.Rect, cand *placement.Placement, cfg Config) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("generation cancelled: %w", err)
	}
	// Placement Expansion grows the candidate's intervals.
	cand.ResetToMin(c)
	cand.Expand(c, fp, expandStep)

	// Inner annealer: shrink intervals, attach costs.
	if _, err := bdio.Optimize(c, cand, fp, cfg.Evaluator, cfg.BDIO); err != nil {
		// A stop mid-BDIO is a cancellation, not an annealer fault: the
		// half-optimized candidate is discarded, never stored.
		if errors.Is(err, anneal.ErrStopped) {
			return fmt.Errorf("generation cancelled: %w", context.Cause(ctx))
		}
		return err
	}
	return nil
}

// Store runs the store half of one Fig. 4 step on a proposed cand:
// Resolve Overlaps and Store Placement, the Stats counters, the
// cfg.Progress report for (chain, it) and the stop test. It only reads
// cand and keeps no reference to it. It reports whether the structure
// reached cfg.MaxPlacements or cfg.TargetCoverage; its errors carry no
// package prefix.
func Store(s *core.Structure, cand *placement.Placement, cfg Config, chain, it int, stats *Stats) (stop bool, err error) {
	insert, err := s.Insert(cand)
	if err != nil {
		return false, err
	}
	stats.Iterations++
	if insert.CandidateDied {
		stats.CandidatesDied++
	} else {
		stats.Stored++
	}
	if cand.AvgCost < stats.BestAvgCost {
		stats.BestAvgCost = cand.AvgCost
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
	return stop, nil
}
