package optplace

import (
	"math/rand"
	"testing"

	"mps/internal/circuits"
	"mps/internal/cost"
	"mps/internal/geom"
	"mps/internal/netlist"
	"mps/internal/placement"
)

// midDims returns mid-range dimensions for every block of c.
func midDims(c *netlist.Circuit) (ws, hs []int) {
	ws = make([]int, c.N())
	hs = make([]int, c.N())
	for i, b := range c.Blocks {
		ws[i] = (b.WMin + b.WMax) / 2
		hs[i] = (b.HMin + b.HMax) / 2
	}
	return ws, hs
}

func checkLegal(t *testing.T, fp geom.Rect, ws, hs, x, y []int) {
	t.Helper()
	for i := range ws {
		ri := geom.NewRect(x[i], y[i], ws[i], hs[i])
		if !fp.Contains(ri) {
			t.Fatalf("block %d rect %v outside floorplan %v", i, ri, fp)
		}
		for j := i + 1; j < len(ws); j++ {
			rj := geom.NewRect(x[j], y[j], ws[j], hs[j])
			if ri.Overlaps(rj) {
				t.Fatalf("blocks %d and %d overlap", i, j)
			}
		}
	}
}

func TestPlaceLegalOutput(t *testing.T) {
	for _, name := range []string{"circ01", "TwoStageOpamp", "Mixer"} {
		t.Run(name, func(t *testing.T) {
			c := circuits.MustByName(name)
			fp := placement.DefaultFloorplan(c)
			ws, hs := midDims(c)
			res, err := Place(c, fp, ws, hs, Config{Steps: 500, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			checkLegal(t, fp, ws, hs, res.X, res.Y)
			if res.Cost <= 0 {
				t.Errorf("Cost = %g, want positive", res.Cost)
			}
			if res.Cost > res.Stats.InitCost {
				t.Errorf("best cost %g worse than initial %g", res.Cost, res.Stats.InitCost)
			}
		})
	}
}

func TestPlaceImprovesOverRandom(t *testing.T) {
	c := circuits.MustByName("TwoStageOpamp")
	fp := placement.DefaultFloorplan(c)
	ws, hs := midDims(c)

	// Average random-placement cost as the reference.
	rng := rand.New(rand.NewSource(42))
	var randTotal float64
	const samples = 20
	for k := 0; k < samples; k++ {
		p, err := placement.RandomLegalAt(c, fp, rng, ws, hs)
		if err != nil {
			t.Fatal(err)
		}
		l := cost.Layout{Circuit: c, X: p.X, Y: p.Y, W: ws, H: hs, Floorplan: fp}
		randTotal += cost.DefaultWeights.Cost(&l)
	}
	randMean := randTotal / samples

	res, err := Place(c, fp, ws, hs, Config{Steps: 3000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost >= randMean {
		t.Errorf("annealed cost %g not better than mean random %g", res.Cost, randMean)
	}
}

func TestPlaceDeterministicWithSeed(t *testing.T) {
	c := circuits.MustByName("circ02")
	fp := placement.DefaultFloorplan(c)
	ws, hs := midDims(c)
	r1, err := Place(c, fp, ws, hs, Config{Steps: 400, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Place(c, fp, ws, hs, Config{Steps: 400, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cost != r2.Cost {
		t.Errorf("same seed, different costs: %g vs %g", r1.Cost, r2.Cost)
	}
	for i := range r1.X {
		if r1.X[i] != r2.X[i] || r1.Y[i] != r2.Y[i] {
			t.Fatal("same seed, different placements")
		}
	}
}

func TestPlaceMoreStepsNoWorse(t *testing.T) {
	c := circuits.MustByName("Mixer")
	fp := placement.DefaultFloorplan(c)
	ws, hs := midDims(c)
	short, err := Place(c, fp, ws, hs, Config{Steps: 100, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	long, err := Place(c, fp, ws, hs, Config{Steps: 5000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Same seed prefix: the long run has seen every state the short run saw.
	if long.Cost > short.Cost {
		t.Errorf("5000-step cost %g worse than 100-step cost %g", long.Cost, short.Cost)
	}
}

func TestPlaceOversizedBlockErrors(t *testing.T) {
	c := circuits.MustByName("circ01")
	fp := geom.NewRect(0, 0, 10, 10)
	ws, hs := midDims(c)
	ws[0] = 50
	if _, err := Place(c, fp, ws, hs, Config{Steps: 10, Seed: 1}); err == nil {
		t.Error("block larger than floorplan should error")
	}
}

func TestProviderLegalAndVaried(t *testing.T) {
	c := circuits.MustByName("circ06")
	fp := placement.DefaultFloorplan(c)
	pv := &Provider{Circuit: c, FP: fp, Cfg: Config{Steps: 300, Seed: 11}}
	ws, hs := midDims(c)
	x1, y1, err := pv.Place(ws, hs)
	if err != nil {
		t.Fatal(err)
	}
	checkLegal(t, fp, ws, hs, x1, y1)
	x2, y2, err := pv.Place(ws, hs)
	if err != nil {
		t.Fatal(err)
	}
	checkLegal(t, fp, ws, hs, x2, y2)
}
