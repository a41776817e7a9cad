package gen

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"mps/internal/bdio"
	"mps/internal/core"
	"mps/internal/explorer"
	"mps/internal/geom"
	"mps/internal/netlist"
	"mps/internal/placement"
	"mps/internal/seqpair"
)

func init() { Register(gaBackend{}) }

// gaBackend generates a multi-placement structure with a genetic
// algorithm over sequence-pair encodings instead of the explorer's
// single annealing chain.
//
// The genotype is a placement's block coordinates at minimum dimensions.
// Parents recombine through their derived sequence pairs: each parent's
// coordinates are projected onto a (Γ+, Γ-) pair (the standard diagonal
// argsorts), the pairs undergo order crossover, and the child pair is
// decoded back to packed coordinates by longest paths — legal by
// construction — then dropped at a random offset inside the floorplan.
// Mutation reuses the explorer's move set (Perturb with toroidal wrap,
// occasionally SwapBlocks). Tournament selection ranks individuals by
// the same BDIO average cost the explorer anneals on.
//
// Every individual is evaluated through explorer.Propose and
// explorer.Store, the two halves of the Fig. 4 step the anneal backend
// runs once per iteration (expansion and BDIO; resolve, store, stats,
// progress and stop test), so every evaluated individual lands in the
// structure under the same resolve rules, and GA structures are
// indistinguishable downstream — compiled indexes, structure files,
// portfolios, and the cluster all serve them unchanged.
// One seeded rand.Rand drives the entire run on one goroutine, so equal
// seeds give identical structures regardless of Spec.Chains (which this
// backend ignores).
type gaBackend struct{}

func (gaBackend) Name() string { return "ga" }

// Tuning constants. Population stays small because each evaluation is a
// full BDIO run — the budget currency is evaluations, not generations.
const (
	gaPopulation  = 8
	gaElite       = 2
	gaPerturbProb = 0.7 // mutation: explorer Perturb move
	gaSwapProb    = 0.3 // mutation: explorer SwapBlocks move
)

// errGATargetReached signals the structure hit MaxPlacements or
// TargetCoverage mid-evaluation; the run stops as a success, exactly as
// the explorer stops.
var errGATargetReached = errors.New("gen/ga: target reached")

func (gaBackend) Generate(ctx context.Context, c *netlist.Circuit, spec Spec) (*core.Structure, Stats, error) {
	if err := c.Validate(); err != nil {
		return nil, Stats{}, fmt.Errorf("gen/ga: %w", err)
	}
	iters := spec.Iterations
	if iters == 0 {
		iters = 300
	}
	fp := placement.DefaultFloorplan(c)
	rng := rand.New(rand.NewSource(spec.Seed))
	r := &gaRun{
		c:   c,
		fp:  fp,
		s:   core.NewStructure(c, fp),
		rng: rng,
		cfg: explorer.Config{
			MaxPlacements:  spec.MaxPlacements,
			TargetCoverage: spec.TargetCoverage,
			Evaluator:      spec.evaluator(),
			BDIO:           bdio.Config{Steps: spec.BDIOSteps, Rand: rng, Stop: ctx.Done()},
			Progress:       spec.Progress,
		},
		budget:   iters,
		maxShift: max(1, fp.W()/4),
		gap:      maxMargin(c),
	}
	r.stats.BestAvgCost = math.Inf(1)
	r.stats.Chains = 1

	start := time.Now()
	err := r.evolve(ctx)
	r.stats.FinalCoverage = r.s.Coverage()
	r.stats.Duration = time.Since(start)
	if err != nil && !errors.Is(err, errGATargetReached) {
		return nil, r.stats, err
	}
	r.s.Compact()
	r.s.Renumber()
	return r.s, r.stats, nil
}

// individual is one population member: coordinates at minimum
// dimensions plus the BDIO average cost its evaluation scored.
type individual struct {
	p       *placement.Placement
	fitness float64
}

type gaRun struct {
	c        *netlist.Circuit
	fp       geom.Rect
	s        *core.Structure
	rng      *rand.Rand
	cfg      explorer.Config // what explorer.Propose and Store need of the spec
	stats    Stats           // Iterations counts evaluations so far
	budget   int             // total evaluation budget (outer-iteration equivalent)
	maxShift int
	gap      int
}

func (r *gaRun) evolve(ctx context.Context) error {
	popSize := gaPopulation
	if popSize > r.budget {
		popSize = r.budget
	}
	if popSize < 2 {
		popSize = 2
	}

	pop, err := r.initialPopulation(ctx, popSize)
	if err != nil {
		return err
	}

	for r.stats.Iterations < r.budget {
		sort.SliceStable(pop, func(i, j int) bool { return pop[i].fitness < pop[j].fitness })
		next := make([]individual, 0, len(pop))
		for i := 0; i < gaElite && i < len(pop); i++ {
			next = append(next, pop[i])
		}
		for len(next) < len(pop) && r.stats.Iterations < r.budget {
			p1 := r.tournament(pop)
			p2 := r.tournament(pop)
			child := r.crossover(p1.p, p2.p)
			r.mutate(child)
			fit, err := r.evaluate(ctx, child)
			if err != nil {
				return err
			}
			if fit < p1.fitness {
				r.stats.Accepted++
			}
			next = append(next, individual{p: child, fitness: fit})
		}
		pop = next
	}
	return nil
}

// initialPopulation seeds the gene pool from both encodings: half
// uniformly random legal placements (the explorer's Placement Selector)
// and half decoded random sequence pairs, whose packed, compact layouts
// give the crossover operator good building blocks from generation zero.
func (r *gaRun) initialPopulation(ctx context.Context, size int) ([]individual, error) {
	pop := make([]individual, 0, size)
	for i := 0; i < size && r.stats.Iterations < r.budget; i++ {
		var p *placement.Placement
		if i%2 == 1 {
			p = r.decodePair(seqpair.Random(r.c.N(), r.rng))
		}
		if p == nil {
			var err error
			p, err = placement.RandomLegal(r.c, r.fp, r.rng)
			if err != nil {
				return nil, fmt.Errorf("gen/ga: %w", err)
			}
		}
		fit, err := r.evaluate(ctx, p)
		if err != nil {
			return nil, err
		}
		pop = append(pop, individual{p: p, fitness: fit})
	}
	return pop, nil
}

// evaluate proposes a copy of the individual and stores it, as
// evaluation number stats.Iterations of chain 0. The individual itself
// keeps its coordinates and minimum dims; only the stored copy carries
// the optimized intervals and costs. Returns the BDIO average cost as
// fitness.
func (r *gaRun) evaluate(ctx context.Context, p *placement.Placement) (float64, error) {
	cand := p.Clone()
	if err := explorer.Propose(ctx, r.c, r.fp, cand, r.cfg); err != nil {
		return 0, fmt.Errorf("gen/ga: %w", err)
	}
	stop, err := explorer.Store(r.s, cand, r.cfg, 0, r.stats.Iterations, &r.stats)
	if err != nil {
		return 0, fmt.Errorf("gen/ga: %w", err)
	}
	if stop {
		return cand.AvgCost, errGATargetReached
	}
	return cand.AvgCost, nil
}

// tournament returns the fitter of two individuals drawn at random
// (size-2 tournament — enough selection pressure for a population of 8
// without collapsing diversity).
func (r *gaRun) tournament(pop []individual) individual {
	a := pop[r.rng.Intn(len(pop))]
	b := pop[r.rng.Intn(len(pop))]
	if b.fitness < a.fitness {
		return b
	}
	return a
}

// crossover recombines two parents through their sequence pairs: derive
// a pair from each parent's coordinates, order-cross Γ+ and Γ-
// independently, and decode the child pair back to a packed legal
// placement. Falls back to cloning the fitter-selected parent if the
// decoded packing cannot fit the floorplan (possible only for extremely
// tight floorplans — packing at minimum dims normally fits easily).
func (r *gaRun) crossover(p1, p2 *placement.Placement) *placement.Placement {
	sp1 := derivePair(p1)
	sp2 := derivePair(p2)
	child := seqpair.SeqPair{
		Plus:  orderCross(sp1.Plus, sp2.Plus, r.rng),
		Minus: orderCross(sp1.Minus, sp2.Minus, r.rng),
	}
	if p := r.decodePair(child); p != nil {
		return p
	}
	return p1.Clone()
}

// mutate applies the explorer's perturbation move set: usually the
// paper's multi-block Perturb with toroidal wrap, sometimes a block-pair
// swap (the second move class of the optimization baseline).
func (r *gaRun) mutate(p *placement.Placement) {
	if r.rng.Float64() < gaPerturbProb {
		p.Perturb(r.c, r.fp, r.rng, 0.3, r.maxShift)
	}
	if n := p.N(); n > 1 && r.rng.Float64() < gaSwapProb {
		i := r.rng.Intn(n)
		j := r.rng.Intn(n)
		for j == i {
			j = r.rng.Intn(n)
		}
		p.SwapBlocks(r.c, r.fp, i, j)
	}
}

// decodePair turns a sequence pair into a placement at minimum block
// dimensions: longest-path packed coordinates, translated to a uniformly
// random offset so the population explores the whole floorplan, not just
// the bottom-left corner. Returns nil if the packing cannot fit.
func (r *gaRun) decodePair(sp seqpair.SeqPair) *placement.Placement {
	p := placement.New(r.c)
	x, y, err := sp.Positions(p.WHi, p.HHi, r.gap)
	if err != nil {
		return nil
	}
	// Bounding box of the packing at minimum dims.
	bw, bh := 0, 0
	for i := range x {
		if end := x[i] + p.WHi[i]; end > bw {
			bw = end
		}
		if end := y[i] + p.HHi[i]; end > bh {
			bh = end
		}
	}
	if bw > r.fp.W() || bh > r.fp.H() {
		return nil
	}
	ox := r.fp.X0
	if slack := r.fp.W() - bw; slack > 0 {
		ox += r.rng.Intn(slack + 1)
	}
	oy := r.fp.Y0
	if slack := r.fp.H() - bh; slack > 0 {
		oy += r.rng.Intn(slack + 1)
	}
	for i := range x {
		p.X[i] = x[i] + ox
		p.Y[i] = y[i] + oy
	}
	return p
}

// derivePair projects a placement's coordinates onto the sequence pair
// that reproduces its relative order: Γ+ sorts blocks along the
// up-left → down-right diagonal (ascending x−y), Γ- along the
// down-left → up-right diagonal (ascending x+y). For blocks a left of b
// this puts a before b in both sequences; for a below b, after b in Γ+
// and before b in Γ-, matching the sequence-pair relations.
func derivePair(p *placement.Placement) seqpair.SeqPair {
	n := p.N()
	sp := seqpair.SeqPair{Plus: identity(n), Minus: identity(n)}
	sort.SliceStable(sp.Plus, func(a, b int) bool {
		i, j := sp.Plus[a], sp.Plus[b]
		return p.X[i]-p.Y[i] < p.X[j]-p.Y[j]
	})
	sort.SliceStable(sp.Minus, func(a, b int) bool {
		i, j := sp.Minus[a], sp.Minus[b]
		return p.X[i]+p.Y[i] < p.X[j]+p.Y[j]
	})
	return sp
}

// orderCross is classic order crossover (OX) on permutations: a random
// slice of parent a is copied through, the remaining elements fill the
// gaps in parent b's relative order.
func orderCross(a, b []int, rng *rand.Rand) []int {
	n := len(a)
	if n < 2 {
		return append([]int(nil), a...)
	}
	lo := rng.Intn(n)
	hi := rng.Intn(n)
	if lo > hi {
		lo, hi = hi, lo
	}
	child := make([]int, n)
	taken := make([]bool, n)
	for i := lo; i <= hi; i++ {
		child[i] = a[i]
		taken[a[i]] = true
	}
	pos := (hi + 1) % n
	for k := 0; k < n; k++ {
		v := b[(hi+1+k)%n]
		if taken[v] {
			continue
		}
		child[pos] = v
		pos = (pos + 1) % n
	}
	return child
}

func identity(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}

func maxMargin(c *netlist.Circuit) int {
	gap := 0
	for _, b := range c.Blocks {
		if b.Margin > gap {
			gap = b.Margin
		}
	}
	return gap
}
