// Package anneal provides the simulated-annealing engine that three
// annealers in this repository run on: the Block Dimensions-Interval
// Optimizer (the inner loop of the paper's Fig. 4), the optimization-based
// baseline placer (optplace), and the sizing optimizer of the synthesis loop
// (synth). The Placement Explorer keeps its own outer loop: it calibrates
// its temperature after the first iteration, has no minimum-temperature
// stop, and cools its move radius with the iteration index.
//
// The engine is deliberately small: geometric cooling, Metropolis
// acceptance, and run statistics. Problem-specific state, moves and costs
// live in the Problem implementation.
package anneal

import (
	"errors"
	"math"
	"math/rand"
)

// Problem is the state an annealer optimizes. Implementations own the
// current solution and must support propose/accept/reject semantics:
// Propose mutates toward a candidate, and exactly one of Accept or Reject
// is called afterwards.
type Problem interface {
	// Propose mutates the current solution into a candidate and returns the
	// candidate's cost. The magnitude hint in (0,1] scales how disruptive
	// the move should be (1 = hottest).
	Propose(rng *rand.Rand, magnitude float64) float64
	// Accept commits the outstanding candidate.
	Accept()
	// Reject restores the solution from before the outstanding candidate.
	Reject()
}

// Config controls an annealing run. The starting temperature is
// calibrated from the initial cost (10% of it, floor 1), and the run stops
// early once the temperature falls to minTemp.
type Config struct {
	// Cooling is the geometric cooling factor per step, in (0,1).
	// Default 0.995.
	Cooling float64
	// Steps is the total number of proposals. Default 1000.
	Steps int
	// Rand supplies randomness; required (callers share one stream across
	// nested annealers deterministically).
	Rand *rand.Rand
	// Stop, when non-nil, requests cooperative cancellation: the run checks
	// it before every proposal and returns ErrStopped (with the statistics
	// accumulated so far) as soon as it is closed. Callers typically pass a
	// context's Done channel, which makes every annealer in the nested
	// generation stack stop within one proposal of the context ending.
	Stop <-chan struct{}
}

// minTemp is the temperature at which a run stops early.
const minTemp = 1e-6

// Stats summarizes a completed run.
type Stats struct {
	Steps     int
	Accepted  int
	InitCost  float64
	BestCost  float64
	FinalCost float64
	// MeanCost is the average of all candidate costs seen — the paper's
	// "average cost" that the BDIO reports to the Placement Explorer.
	MeanCost  float64
	FinalTemp float64
}

// ErrNoSteps is returned when Config.Steps resolves to a non-positive count.
var ErrNoSteps = errors.New("anneal: no steps configured")

// ErrStopped is returned when Config.Stop fires mid-run. The Stats returned
// alongside it are valid for the steps that did complete, and the problem
// holds its last-accepted solution, so a stopped run is a shorter run, not
// a corrupt one.
var ErrStopped = errors.New("anneal: stopped")

// Run anneals the problem starting from the given initial cost and returns
// run statistics. The problem is left holding its final (last-accepted)
// solution; callers needing the best-ever solution track it in their
// Problem.
func Run(p Problem, initCost float64, cfg Config) (Stats, error) {
	steps := cfg.Steps
	if steps == 0 {
		steps = 1000
	}
	if steps < 0 {
		return Stats{}, ErrNoSteps
	}
	cooling := cfg.Cooling
	if cooling == 0 {
		cooling = 0.995
	}
	if cooling <= 0 || cooling >= 1 {
		return Stats{}, errors.New("anneal: cooling factor must be in (0,1)")
	}
	rng := cfg.Rand
	if rng == nil {
		return Stats{}, errors.New("anneal: Config.Rand is required")
	}
	temp := math.Max(1, 0.1*math.Abs(initCost))

	stats := Stats{InitCost: initCost, BestCost: initCost, FinalCost: initCost}
	current := initCost
	var costSum float64
	initialTemp := temp

	var stopped bool
	for i := 0; i < steps && temp > minTemp; i++ {
		if cfg.Stop != nil {
			select {
			case <-cfg.Stop:
				stopped = true
			default:
			}
			if stopped {
				break
			}
		}
		magnitude := temp / initialTemp
		if magnitude > 1 {
			magnitude = 1
		}
		if magnitude <= 0 {
			magnitude = 1e-9
		}
		cand := p.Propose(rng, magnitude)
		costSum += cand
		accepted := metropolis(current, cand, temp, rng)
		if accepted {
			p.Accept()
			current = cand
			stats.Accepted++
		} else {
			p.Reject()
		}
		if cand < stats.BestCost {
			stats.BestCost = cand
		}
		stats.Steps++
		temp *= cooling
	}
	stats.FinalCost = current
	stats.FinalTemp = temp
	if stats.Steps > 0 {
		stats.MeanCost = costSum / float64(stats.Steps)
	} else {
		stats.MeanCost = initCost
	}
	if stopped {
		return stats, ErrStopped
	}
	return stats, nil
}

// metropolis applies the standard acceptance rule: always accept downhill,
// accept uphill with probability exp(-Δ/T).
func metropolis(current, candidate, temp float64, rng *rand.Rand) bool {
	if candidate <= current {
		return true
	}
	if temp <= 0 {
		return false
	}
	return rng.Float64() < math.Exp(-(candidate-current)/temp)
}
