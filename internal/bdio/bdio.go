// Package bdio implements the Block Dimensions-Interval Optimizer of paper
// §3.2 — the inner simulated annealing of the nested-annealing generation
// algorithm.
//
// Given a placement with fixed coordinates and expanded dimension intervals,
// the BDIO anneals over dimension vectors inside those intervals (Dimensions
// Selector, §3.2.1), scoring each with the customizable cost calculator
// (§3.2.2). It then shrinks the intervals around the best dimensions found
// (Optimize Ranges, §3.2.3, eq. 6) and reports the average and best cost
// back to the Placement Explorer.
package bdio

import (
	"fmt"
	"math"
	"math/rand"

	"mps/internal/anneal"
	"mps/internal/cost"
	"mps/internal/geom"
	"mps/internal/netlist"
	"mps/internal/placement"
)

// Config controls one BDIO run.
type Config struct {
	// Steps is the inner-SA iteration count (paper: "a number of iterations
	// set by the user"). Default 400.
	Steps int
	// Rand supplies randomness; required (pass a seeded *rand.Rand).
	Rand *rand.Rand
	// Stop, when non-nil, cooperatively cancels the inner annealing run:
	// Optimize returns anneal.ErrStopped within one proposal of it closing.
	// The Placement Explorer wires a context's Done channel here so a
	// cancelled generation stops mid-BDIO, not at the next outer iteration.
	Stop <-chan struct{}
}

// The inner SA's fixed settings, which the paper leaves to the user.
const (
	// cooling is the geometric cooling factor.
	cooling = 0.99
	// perturbPct scales dimension moves as a fraction of each interval's
	// span (paper §3.2.1: "perturbs the proposed w and h values by a
	// percentage input set by the user").
	perturbPct = 0.25
)

// Result summarizes a BDIO run. AvgCost is what the Placement Explorer uses
// as the placement's cost in its own annealing.
type Result struct {
	AvgCost  float64
	BestCost float64
	BestW    []int
	BestH    []int
	Stats    anneal.Stats
}

// problem is the inner-SA state: one dimension vector inside the intervals.
type problem struct {
	circuit *netlist.Circuit
	place   *placement.Placement
	ev      cost.Evaluator
	layout  cost.Layout

	// sc rescores moves when ev is cost.Incremental (incremental set);
	// other evaluators score every move through Cost.
	sc          cost.Scorer
	incremental bool

	// move undo state
	movedBlock int
	movedDim   int // 0 = width, 1 = height
	prevVal    int

	best  float64
	bestW []int
	bestH []int
}

// Propose implements anneal.Problem: perturb one block's width or height
// inside its validity interval.
func (pr *problem) Propose(rng *rand.Rand, magnitude float64) float64 {
	i := rng.Intn(pr.circuit.N())
	dim := rng.Intn(2)
	var iv geom.Interval
	var cur *int
	if dim == 0 {
		iv = pr.place.WIv(i)
		cur = &pr.layout.W[i]
	} else {
		iv = pr.place.HIv(i)
		cur = &pr.layout.H[i]
	}
	pr.movedBlock, pr.movedDim, pr.prevVal = i, dim, *cur

	span := iv.Len() - 1
	if span > 0 {
		step := int(math.Round(perturbPct * magnitude * float64(span)))
		if step < 1 {
			step = 1
		}
		delta := rng.Intn(2*step+1) - step
		*cur = iv.Clamp(*cur + delta)
	}
	var c float64
	if pr.incremental {
		c = pr.sc.Move(i)
	} else {
		c = pr.ev.Cost(&pr.layout)
	}
	if c < pr.best {
		pr.best = c
		copy(pr.bestW, pr.layout.W)
		copy(pr.bestH, pr.layout.H)
	}
	return c
}

// Accept implements anneal.Problem (the move is already applied).
func (pr *problem) Accept() {}

// Reject implements anneal.Problem.
func (pr *problem) Reject() {
	if pr.movedDim == 0 {
		pr.layout.W[pr.movedBlock] = pr.prevVal
	} else {
		pr.layout.H[pr.movedBlock] = pr.prevVal
	}
	if pr.incremental {
		pr.sc.Undo()
	}
}

// Optimize runs the BDIO on p (in place): it anneals dimensions inside p's
// intervals, records AvgCost/BestCost/BestW/BestH on p, and shrinks p's
// intervals around the best dimensions per eq. 6. The placement's
// coordinates are never touched.
func Optimize(c *netlist.Circuit, p *placement.Placement, fp geom.Rect, ev cost.Evaluator, cfg Config) (Result, error) {
	steps := cfg.Steps
	if steps == 0 {
		steps = 400
	}
	pr, initCost := newProblem(c, p, fp, ev)
	stats, err := anneal.Run(pr, initCost, anneal.Config{
		Cooling: cooling,
		Steps:   steps,
		Rand:    cfg.Rand,
		Stop:    cfg.Stop,
	})
	if err != nil {
		// A stopped run is propagated unwrapped in meaning: callers match it
		// with errors.Is(err, anneal.ErrStopped) to tell cancellation from
		// misconfiguration.
		return Result{}, fmt.Errorf("bdio: %w", err)
	}

	res := Result{
		AvgCost:  stats.MeanCost,
		BestCost: pr.best,
		BestW:    pr.bestW,
		BestH:    pr.bestH,
		Stats:    stats,
	}
	p.AvgCost = res.AvgCost
	p.BestCost = res.BestCost
	p.BestW = append([]int(nil), res.BestW...)
	p.BestH = append([]int(nil), res.BestH...)
	optimizeRanges(p, res.BestW, res.BestH, res.BestCost, res.AvgCost)
	return res, nil
}

// newProblem sets up the inner SA on p at its interval midpoints and
// returns it with the starting cost. The four dimension vectors share one
// allocation.
func newProblem(c *netlist.Circuit, p *placement.Placement, fp geom.Rect, ev cost.Evaluator) (*problem, float64) {
	n := c.N()
	dims := make([]int, 4*n)
	pr := &problem{
		circuit: c,
		place:   p,
		ev:      ev,
		layout: cost.Layout{
			Circuit:   c,
			X:         p.X,
			Y:         p.Y,
			W:         dims[:n:n],
			H:         dims[n : 2*n : 2*n],
			Floorplan: fp,
		},
		bestW: dims[2*n : 3*n : 3*n],
		bestH: dims[3*n : 4*n : 4*n],
	}
	// Start at the interval midpoints (deterministic; the annealer explores
	// from there).
	for i := 0; i < n; i++ {
		pr.layout.W[i] = (p.WLo[i] + p.WHi[i]) / 2
		pr.layout.H[i] = (p.HLo[i] + p.HHi[i]) / 2
	}
	var initCost float64
	if inc, ok := ev.(cost.Incremental); ok {
		pr.incremental = true
		initCost = inc.Start(&pr.sc, &pr.layout)
	} else {
		initCost = ev.Cost(&pr.layout)
	}
	pr.best = initCost
	copy(pr.bestW, pr.layout.W)
	copy(pr.bestH, pr.layout.H)
	return pr, initCost
}

// optimizeRanges implements eq. 6, read as follows: each
// interval is re-centered on the best dimension value with half-width
// (bestCost/avgCost) * span/2, clamped inside the expanded interval. A flat
// cost landscape (avg ≈ best) keeps the whole expanded interval; a spiky
// one collapses toward the best point.
func optimizeRanges(p *placement.Placement, bestW, bestH []int, best, avg float64) {
	ratio := 1.0
	if avg > 0 && best >= 0 && avg >= best {
		ratio = best / avg
	}
	for i := range p.X {
		p.WLo[i], p.WHi[i] = shrinkAround(p.WIv(i), bestW[i], ratio)
		p.HLo[i], p.HHi[i] = shrinkAround(p.HIv(i), bestH[i], ratio)
	}
}

// shrinkAround returns the interval re-centered on best with half-width
// ratio*span/2, intersected with iv. The result always contains best.
func shrinkAround(iv geom.Interval, best int, ratio float64) (lo, hi int) {
	span := float64(iv.Len() - 1)
	hw := int(math.Round(ratio * span / 2))
	lo = best - hw
	hi = best + hw
	if lo < iv.Lo {
		lo = iv.Lo
	}
	if hi > iv.Hi {
		hi = iv.Hi
	}
	// Guard: best must stay inside (it does by construction, but clamping
	// plus integer rounding keeps this worth asserting cheaply).
	if lo > best {
		lo = best
	}
	if hi < best {
		hi = best
	}
	return lo, hi
}
