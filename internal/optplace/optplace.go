// Package optplace implements the optimization-based placement baseline the
// paper compares against (§1: KOAN/ANAGRAM-class tools): a full simulated
// annealing over block coordinates, run from scratch for every dimension
// vector. It produces high-quality placements but is orders of magnitude
// slower than a multi-placement-structure query — exactly the trade-off
// Table 2 and the synthesis loop quantify.
package optplace

import (
	"fmt"
	"math/rand"

	"mps/internal/anneal"
	"mps/internal/cost"
	"mps/internal/geom"
	"mps/internal/netlist"
	"mps/internal/placement"
)

// Config controls one annealing placement run. Layouts are scored with
// cost.DefaultWeights.
type Config struct {
	// Steps is the number of SA moves. Default 2000.
	Steps int
	// Seed drives the run's randomness.
	Seed int64
}

// The annealer's fixed settings.
const (
	// cooling is the geometric cooling factor.
	cooling = 0.997
	// swapProb is the probability a move swaps two blocks instead of
	// displacing one.
	swapProb = 0.2
)

// Result is an annealed placement for one dimension vector.
type Result struct {
	X, Y      []int
	Cost      float64 // cost of the best layout found
	FinalCost float64 // cost of the last-accepted layout
	Stats     anneal.Stats
}

// problem is the SA state: block coordinates at fixed dimensions. Moves are
// displacements with toroidal wrap and pair swaps; illegal moves (overlap or
// out of bounds) are retried a bounded number of times, then proposed as
// no-ops, keeping every visited state legal.
type problem struct {
	circuit *netlist.Circuit
	fp      geom.Rect
	place   *placement.Placement
	layout  cost.Layout
	maxMove int

	// undo state
	movedI, movedJ int // movedJ == -1 for displacement moves
	prevXI, prevYI int
	prevXJ, prevYJ int

	best  float64
	bestX []int
	bestY []int
}

// Propose implements anneal.Problem.
func (pr *problem) Propose(rng *rand.Rand, magnitude float64) float64 {
	n := pr.circuit.N()
	pr.movedJ = -1
	if n > 1 && rng.Float64() < swapProb {
		i, j := rng.Intn(n), rng.Intn(n)
		for j == i {
			j = rng.Intn(n)
		}
		pr.movedI, pr.movedJ = i, j
		pr.prevXI, pr.prevYI = pr.place.X[i], pr.place.Y[i]
		pr.prevXJ, pr.prevYJ = pr.place.X[j], pr.place.Y[j]
		pr.place.SwapBlocks(pr.circuit, pr.fp, i, j) // no-op when illegal
	} else {
		i := rng.Intn(n)
		pr.movedI = i
		pr.prevXI, pr.prevYI = pr.place.X[i], pr.place.Y[i]
		shift := int(float64(pr.maxMove)*magnitude) + 1
		pr.place.Perturb1(pr.circuit, pr.fp, rng, i, shift)
	}
	pr.syncLayout()
	c := cost.DefaultWeights.Cost(&pr.layout)
	if c < pr.best {
		pr.best = c
		copy(pr.bestX, pr.place.X)
		copy(pr.bestY, pr.place.Y)
	}
	return c
}

// Accept implements anneal.Problem.
func (pr *problem) Accept() {}

// Reject implements anneal.Problem.
func (pr *problem) Reject() {
	pr.place.X[pr.movedI], pr.place.Y[pr.movedI] = pr.prevXI, pr.prevYI
	if pr.movedJ >= 0 {
		pr.place.X[pr.movedJ], pr.place.Y[pr.movedJ] = pr.prevXJ, pr.prevYJ
	}
	pr.syncLayout()
}

func (pr *problem) syncLayout() {
	copy(pr.layout.X, pr.place.X)
	copy(pr.layout.Y, pr.place.Y)
}

// Place anneals block coordinates for the sized circuit and returns the best
// placement found. Every returned placement is legal (non-overlapping, in
// bounds).
func Place(c *netlist.Circuit, fp geom.Rect, ws, hs []int, cfg Config) (Result, error) {
	steps := cfg.Steps
	if steps == 0 {
		steps = 2000
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	p, err := placement.RandomLegalAt(c, fp, rng, ws, hs)
	if err != nil {
		return Result{}, fmt.Errorf("optplace: %w", err)
	}
	n := c.N()
	pr := &problem{
		circuit: c,
		fp:      fp,
		place:   p,
		maxMove: max(1, fp.W()/3),
		layout: cost.Layout{
			Circuit:   c,
			X:         make([]int, n),
			Y:         make([]int, n),
			W:         append([]int(nil), ws...),
			H:         append([]int(nil), hs...),
			Floorplan: fp,
		},
		bestX: make([]int, n),
		bestY: make([]int, n),
	}
	pr.syncLayout()
	initCost := cost.DefaultWeights.Cost(&pr.layout)
	pr.best = initCost
	copy(pr.bestX, p.X)
	copy(pr.bestY, p.Y)

	stats, err := anneal.Run(pr, initCost, anneal.Config{
		Steps:   steps,
		Cooling: cooling,
		Rand:    rng,
	})
	if err != nil {
		return Result{}, fmt.Errorf("optplace: %w", err)
	}
	return Result{
		X:         pr.bestX,
		Y:         pr.bestY,
		Cost:      pr.best,
		FinalCost: stats.FinalCost,
		Stats:     stats,
	}, nil
}

// Provider adapts Place to the core.Backup / synthesis provider shape: a
// fresh annealing run per query, with a per-query seed derived from a
// counter so repeated queries explore independently.
type Provider struct {
	Circuit *netlist.Circuit
	FP      geom.Rect
	Cfg     Config
	queries int64
}

// Place implements the provider interface.
func (pv *Provider) Place(ws, hs []int) (x, y []int, err error) {
	cfg := pv.Cfg
	cfg.Seed = cfg.Seed*31 + pv.queries
	pv.queries++
	res, err := Place(pv.Circuit, pv.FP, ws, hs, cfg)
	if err != nil {
		return nil, nil, err
	}
	return res.X, res.Y, nil
}
