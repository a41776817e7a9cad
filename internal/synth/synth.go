// Package synth implements the layout-inclusive sizing loop of the paper's
// Figure 1b: a sizing optimizer proposes device sizes, module generators
// turn them into block dimensions, a placement provider instantiates a
// floorplan, wire parasitics are extracted from it, and the resulting
// performance estimate steers the optimizer.
//
// The placement provider is pluggable, which is the whole point of the
// comparison: a multi-placement structure answers in microseconds with
// near-optimized placements, a fixed template answers instantly but with
// one topology, and a per-query annealer answers slowly. The loop measures
// both solution quality and time-per-iteration for each.
package synth

import (
	"fmt"
	"math/rand"
	"time"

	"mps/internal/anneal"
	"mps/internal/cost"
	"mps/internal/geom"
	"mps/internal/modgen"
)

// Provider instantiates a placement for sized blocks. core.Structure (via
// the facade), template.Template and optplace.Provider all satisfy it.
type Provider interface {
	Place(ws, hs []int) (x, y []int, err error)
}

// ProviderFunc adapts a function to Provider.
type ProviderFunc func(ws, hs []int) (x, y []int, err error)

// Place implements Provider.
func (f ProviderFunc) Place(ws, hs []int) (x, y []int, err error) { return f(ws, hs) }

// Objective scores one sizing point given its extracted layout. Lower is
// better. Implementations see the sizing vector and the placed layout, so
// they can mix electrical models (perf package) with geometric terms.
type Objective interface {
	Cost(x []float64, l *cost.Layout) float64
}

// ObjectiveFunc adapts a function to Objective.
type ObjectiveFunc func(x []float64, l *cost.Layout) float64

// Cost implements Objective.
func (f ObjectiveFunc) Cost(x []float64, l *cost.Layout) float64 { return f(x, l) }

// LayoutOnlyObjective scores purely by layout quality — the generic
// objective for circuits without an electrical model.
func LayoutOnlyObjective(ev cost.Evaluator) Objective {
	return ObjectiveFunc(func(_ []float64, l *cost.Layout) float64 { return ev.Cost(l) })
}

// Config controls a synthesis run.
type Config struct {
	// Steps is the number of sizing iterations. Default 300.
	Steps int
	// Seed drives the run.
	Seed int64
}

// The sizing annealer's fixed settings.
const (
	// cooling is the geometric cooling factor.
	cooling = 0.99
	// perturbPct scales sizing moves as a fraction of each variable's
	// range.
	perturbPct = 0.2
)

// Result summarizes a synthesis run.
type Result struct {
	BestX       []float64    // best sizing vector found
	BestCost    float64      // objective at BestX
	BestLayout  *cost.Layout // layout of the best point
	Iterations  int
	PlaceTime   time.Duration // total time spent in the placement provider
	TotalTime   time.Duration
	PlaceCalls  int
	PlaceErrs   int // iterations where the provider failed (skipped points)
	AnnealStats anneal.Stats
}

// AvgPlaceTime returns the mean placement-provider latency per call.
func (r Result) AvgPlaceTime() time.Duration {
	if r.PlaceCalls == 0 {
		return 0
	}
	return r.PlaceTime / time.Duration(r.PlaceCalls)
}

// problem is the sizing-annealer state.
type problem struct {
	sizer    *modgen.Sizer
	provider Provider
	obj      Objective
	fp       geom.Rect
	ranges   []modgen.FloatRange

	x       []float64
	prevVal float64
	prevIdx int

	res *Result

	best  float64
	bestX []float64
	bestL *cost.Layout
}

// Propose implements anneal.Problem: perturb one sizing variable, run the
// full dims -> place -> extract -> objective pipeline.
func (pr *problem) Propose(rng *rand.Rand, magnitude float64) float64 {
	i := rng.Intn(len(pr.x))
	pr.prevIdx, pr.prevVal = i, pr.x[i]
	span := pr.ranges[i].Hi - pr.ranges[i].Lo
	delta := (rng.Float64()*2 - 1) * perturbPct * magnitude * span
	pr.x[i] = pr.ranges[i].Clamp(pr.x[i] + delta)
	return pr.evaluate()
}

// Accept implements anneal.Problem.
func (pr *problem) Accept() {}

// Reject implements anneal.Problem.
func (pr *problem) Reject() { pr.x[pr.prevIdx] = pr.prevVal }

// evaluate runs the Fig. 1b pipeline for the current sizing vector.
func (pr *problem) evaluate() float64 {
	const failCost = 1e12
	ws, hs, err := pr.sizer.Dims(pr.x)
	if err != nil {
		pr.res.PlaceErrs++
		return failCost
	}
	t0 := time.Now()
	x, y, err := pr.provider.Place(ws, hs)
	pr.res.PlaceTime += time.Since(t0)
	pr.res.PlaceCalls++
	if err != nil {
		pr.res.PlaceErrs++
		return failCost
	}
	l := &cost.Layout{
		Circuit: pr.sizer.Circuit(),
		X:       x, Y: y, W: ws, H: hs,
		Floorplan: pr.fp,
	}
	c := pr.obj.Cost(pr.x, l)
	if c < pr.best {
		pr.best = c
		copy(pr.bestX, pr.x)
		pr.bestL = l
	}
	return c
}

// Run executes the sizing loop and returns the best point found.
func Run(sizer *modgen.Sizer, provider Provider, obj Objective, fp geom.Rect, cfg Config) (Result, error) {
	steps := cfg.Steps
	if steps == 0 {
		steps = 300
	}
	if sizer.NumVars() == 0 {
		return Result{}, fmt.Errorf("synth: sizer has no variables")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	ranges := sizer.VarRanges()

	res := Result{}
	pr := &problem{
		sizer:    sizer,
		provider: provider,
		obj:      obj,
		fp:       fp,
		ranges:   ranges,
		x:        make([]float64, sizer.NumVars()),
		bestX:    make([]float64, sizer.NumVars()),
		res:      &res,
	}
	// Start mid-range.
	for i, r := range ranges {
		pr.x[i] = r.Lerp(0.5)
	}
	start := time.Now()
	pr.best = 1e308
	initCost := pr.evaluate()

	stats, err := anneal.Run(pr, initCost, anneal.Config{
		Steps:   steps,
		Cooling: cooling,
		Rand:    rng,
	})
	if err != nil {
		return Result{}, fmt.Errorf("synth: %w", err)
	}
	res.BestX = pr.bestX
	res.BestCost = pr.best
	res.BestLayout = pr.bestL
	res.Iterations = stats.Steps
	res.TotalTime = time.Since(start)
	res.AnnealStats = stats
	return res, nil
}
