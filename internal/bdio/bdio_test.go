package bdio

import (
	"math/rand"
	"reflect"
	"testing"

	"mps/internal/circuits"
	"mps/internal/cost"
	"mps/internal/geom"
	"mps/internal/placement"
)

// expandedPlacement returns a random legal, expanded placement on the named
// benchmark, ready for the BDIO.
func expandedPlacement(t testing.TB, name string, seed int64) (*placement.Placement, geom.Rect, *cost.Layout) {
	t.Helper()
	c := circuits.MustByName(name)
	fp := placement.DefaultFloorplan(c)
	rng := rand.New(rand.NewSource(seed))
	p, err := placement.RandomLegal(c, fp, rng)
	if err != nil {
		t.Fatal(err)
	}
	p.Expand(c, fp, 1)
	return p, fp, nil
}

func TestOptimizeShrinksIntervalsAroundBest(t *testing.T) {
	c := circuits.MustByName("TwoStageOpamp")
	p, fp, _ := expandedPlacement(t, "TwoStageOpamp", 1)
	before := p.Clone()
	res, err := Optimize(c, p, fp, cost.DefaultWeights, Config{
		Steps: 500, Rand: rand.New(rand.NewSource(2)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.BestCost <= 0 {
		t.Errorf("BestCost = %g, want positive", res.BestCost)
	}
	if res.AvgCost < res.BestCost {
		t.Errorf("AvgCost %g below BestCost %g", res.AvgCost, res.BestCost)
	}
	for i := range p.X {
		// Shrunk intervals stay inside the expanded ones.
		if p.WLo[i] < before.WLo[i] || p.WHi[i] > before.WHi[i] {
			t.Errorf("block %d width interval [%d,%d] escaped expanded [%d,%d]",
				i, p.WLo[i], p.WHi[i], before.WLo[i], before.WHi[i])
		}
		if p.HLo[i] < before.HLo[i] || p.HHi[i] > before.HHi[i] {
			t.Errorf("block %d height interval escaped expansion", i)
		}
		// And contain the best dimensions.
		if !p.WIv(i).Contains(res.BestW[i]) || !p.HIv(i).Contains(res.BestH[i]) {
			t.Errorf("block %d best dims (%d,%d) outside shrunk intervals %v/%v",
				i, res.BestW[i], res.BestH[i], p.WIv(i), p.HIv(i))
		}
	}
	if p.AvgCost != res.AvgCost || p.BestCost != res.BestCost {
		t.Error("costs not recorded on the placement")
	}
}

func TestOptimizeDoesNotMoveCoordinates(t *testing.T) {
	c := circuits.MustByName("Mixer")
	p, fp, _ := expandedPlacement(t, "Mixer", 3)
	xBefore := append([]int(nil), p.X...)
	yBefore := append([]int(nil), p.Y...)
	if _, err := Optimize(c, p, fp, cost.DefaultWeights, Config{
		Steps: 300, Rand: rand.New(rand.NewSource(4)),
	}); err != nil {
		t.Fatal(err)
	}
	for i := range p.X {
		if p.X[i] != xBefore[i] || p.Y[i] != yBefore[i] {
			t.Fatalf("BDIO moved block %d — coordinates are fixed inside the BDIO", i)
		}
	}
}

func TestOptimizeBestCostBeatsOrMatchesMidpoint(t *testing.T) {
	c := circuits.MustByName("circ02")
	p, fp, _ := expandedPlacement(t, "circ02", 5)
	n := c.N()
	mid := cost.Layout{
		Circuit: c, X: p.X, Y: p.Y,
		W: make([]int, n), H: make([]int, n), Floorplan: fp,
	}
	for i := 0; i < n; i++ {
		mid.W[i] = (p.WLo[i] + p.WHi[i]) / 2
		mid.H[i] = (p.HLo[i] + p.HHi[i]) / 2
	}
	midCost := cost.DefaultWeights.Cost(&mid)
	res, err := Optimize(c, p, fp, cost.DefaultWeights, Config{
		Steps: 800, Rand: rand.New(rand.NewSource(6)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.BestCost > midCost {
		t.Errorf("BestCost %g worse than the starting midpoint %g", res.BestCost, midCost)
	}
}

func TestOptimizeRequiresRand(t *testing.T) {
	c := circuits.MustByName("circ01")
	p, fp, _ := expandedPlacement(t, "circ01", 7)
	if _, err := Optimize(c, p, fp, cost.DefaultWeights, Config{Steps: 10}); err == nil {
		t.Error("missing Rand should error")
	}
}

func TestOptimizeDeterministicWithSeed(t *testing.T) {
	run := func() Result {
		c := circuits.MustByName("circ01")
		fp := placement.DefaultFloorplan(c)
		rng := rand.New(rand.NewSource(8))
		p, err := placement.RandomLegal(c, fp, rng)
		if err != nil {
			t.Fatal(err)
		}
		p.Expand(c, fp, 1)
		res, err := Optimize(c, p, fp, cost.DefaultWeights, Config{
			Steps: 200, Rand: rand.New(rand.NewSource(9)),
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.AvgCost != b.AvgCost || a.BestCost != b.BestCost {
		t.Errorf("same seeds, different results: %+v vs %+v", a, b)
	}
}

func TestShrinkAround(t *testing.T) {
	iv := geom.NewInterval(10, 30) // span 20
	tests := []struct {
		name   string
		best   int
		ratio  float64
		wantLo int
		wantHi int
	}{
		{"flat landscape keeps full span", 20, 1.0, 10, 30},
		{"half ratio halves the interval", 20, 0.5, 15, 25},
		{"spiky collapses to the point", 20, 0.0, 20, 20},
		{"clamped at the left edge", 11, 0.5, 10, 16},
		{"clamped at the right edge", 29, 0.5, 24, 30},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			lo, hi := shrinkAround(iv, tc.best, tc.ratio)
			if lo != tc.wantLo || hi != tc.wantHi {
				t.Errorf("shrinkAround = [%d,%d], want [%d,%d]", lo, hi, tc.wantLo, tc.wantHi)
			}
			if lo > tc.best || hi < tc.best {
				t.Errorf("result [%d,%d] does not contain best %d", lo, hi, tc.best)
			}
		})
	}
}

func TestShrinkAroundDegenerateInterval(t *testing.T) {
	iv := geom.NewInterval(5, 5)
	lo, hi := shrinkAround(iv, 5, 1.0)
	if lo != 5 || hi != 5 {
		t.Errorf("point interval shrink = [%d,%d], want [5,5]", lo, hi)
	}
}

// TestHigherAvgCostShrinksMore checks the qualitative eq. 6 behaviour on
// synthetic cost ratios.
func TestHigherAvgCostShrinksMore(t *testing.T) {
	iv := geom.NewInterval(0, 100)
	_, hiTight := shrinkAround(iv, 50, 0.1) // avg >> best
	_, hiLoose := shrinkAround(iv, 50, 0.9) // avg ≈ best
	tight := hiTight - 50
	loose := hiLoose - 50
	if tight >= loose {
		t.Errorf("tight half-width %d should be smaller than loose %d", tight, loose)
	}
}

// TestStepAllocFree pins one BDIO step — a proposal scored by the
// incremental scorer, then its rejection — at zero allocations.
func TestStepAllocFree(t *testing.T) {
	c := circuits.MustByName("TwoStageOpamp")
	p, fp, _ := expandedPlacement(t, "TwoStageOpamp", 1)
	pr, _ := newProblem(c, p, fp, cost.DefaultWeights)
	if !pr.incremental {
		t.Fatal("the default weights did not take the incremental path")
	}
	rng := rand.New(rand.NewSource(1))
	if allocs := testing.AllocsPerRun(500, func() {
		pr.Propose(rng, 0.5)
		pr.Reject()
	}); allocs != 0 {
		t.Fatalf("a BDIO step allocates %v times, want 0", allocs)
	}
}

// TestIncrementalMatchesCost runs the same BDIO twice, once with the
// default weights (the incremental scorer) and once with the same weights
// behind an EvaluatorFunc (full Cost on every proposal), and requires the
// same result bit for bit on every Table 1 circuit.
func TestIncrementalMatchesCost(t *testing.T) {
	for _, name := range circuits.Names() {
		c := circuits.MustByName(name)
		for _, w := range append([]cost.Weights{{}}, cost.WeightLadder(4)...) {
			run := func(ev cost.Evaluator) (Result, *placement.Placement) {
				p, fp, _ := expandedPlacement(t, name, 3)
				res, err := Optimize(c, p, fp, ev, Config{Steps: 200, Rand: rand.New(rand.NewSource(5))})
				if err != nil {
					t.Fatal(err)
				}
				return res, p
			}
			inc, pi := run(w)
			full, pf := run(cost.EvaluatorFunc(w.Cost))
			if inc.AvgCost != full.AvgCost || inc.BestCost != full.BestCost || inc.Stats != full.Stats ||
				!reflect.DeepEqual(pi, pf) {
				t.Fatalf("%s weights %+v: incremental run %+v, full-cost run %+v", name, w, inc, full)
			}
		}
	}
}

// BenchmarkOptimize times one BDIO run at the balanced effort's 300 steps
// on every Table 1 circuit, from a fresh copy of one expanded placement.
func BenchmarkOptimize(b *testing.B) {
	for _, name := range circuits.Names() {
		b.Run(name, func(b *testing.B) {
			c := circuits.MustByName(name)
			p, fp, _ := expandedPlacement(b, name, 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				cand := p.Clone()
				b.StartTimer()
				if _, err := Optimize(c, cand, fp, cost.DefaultWeights, Config{Steps: 300, Rand: rand.New(rand.NewSource(int64(i)))}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
