package cost

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"testing"

	"mps/internal/circuits"
	"mps/internal/geom"
	"mps/internal/netlist"
)

// TestScorerMatchesCost drives random one-block moves, each accepted or
// undone, on every Table 1 circuit under the zero vector and every rung
// of WeightLadder(4), and requires the scorer's cost after every step to
// carry the bits of Weights.Cost on the same layout.
func TestScorerMatchesCost(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, name := range circuits.Names() {
		c := circuits.MustByName(name)
		n := c.N()
		side := 0
		for _, b := range c.Blocks {
			side += b.WMax + b.HMax
		}
		l := &Layout{
			Circuit: c,
			X:       make([]int, n), Y: make([]int, n),
			W: make([]int, n), H: make([]int, n),
			Floorplan: geom.NewRect(0, 0, side, side),
		}
		for _, w := range append([]Weights{{}}, WeightLadder(4)...) {
			for i, b := range c.Blocks {
				l.X[i], l.Y[i] = rng.Intn(side), rng.Intn(side)
				l.W[i], l.H[i] = b.WRange().Rand(rng), b.HRange().Rand(rng)
			}
			var sc Scorer
			check := func(step int, what string, got float64) {
				t.Helper()
				if want := w.Cost(l); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s weights %+v step %d (%s): scorer %v, Cost %v", name, w, step, what, got, want)
				}
			}
			check(-1, "start", w.Start(&sc, l))
			for step := 0; step < 2000; step++ {
				i := rng.Intn(n)
				b := c.Blocks[i]
				dim, prev := &l.W[i], l.W[i]
				v := b.WRange().Rand(rng)
				if rng.Intn(2) == 1 {
					dim, prev, v = &l.H[i], l.H[i], b.HRange().Rand(rng)
				}
				*dim = v
				check(step, "move", sc.Move(i))
				if rng.Intn(3) == 0 {
					*dim = prev
					sc.Undo()
					// A move that changes nothing rescores the restored
					// layout from the lengths Undo put back.
					check(step, "after undo", sc.Move(rng.Intn(n)))
				}
			}
		}
	}
}

// weightedCircuit returns a four-block circuit with, for every weight, a
// two-pin net, a three-pin net and a pad stub carrying that weight.
func weightedCircuit(weights ...float64) *netlist.Circuit {
	b := netlist.NewBuilder("weighted")
	for _, name := range []string{"a", "b", "c", "d"} {
		b.Block(name, 2, 30, 2, 30)
	}
	for k, w := range weights {
		name := fmt.Sprint("n", k)
		b.Net(name+"p", w, netlist.PAt("a", 0.2, 0.7), netlist.PAt("c", 0.9, 0.1))
		b.Net(name+"t", w, netlist.P("b"), netlist.PAt("c", 0.5, 0.3), netlist.PAt("d", 0.1, 0.8))
		b.Net(name+"s", w, netlist.T("d", 1, 0.5))
	}
	return b.MustBuild()
}

// TestScorerKeptTotalsMatchCost checks the scorer's kept totals against
// Weights.Cost bit for bit, after Start and after every Move and Undo.
// Registry weights (2, 1, 0.5, 0.25) take the fixed-point wire total, and
// a non-dyadic weight (0.1, 1/3) forces the in-order loop. Every tenth
// step shrinks the block that holds the largest right or top edge; one
// step shrinks a block to an empty rect, which hands the bounding box to
// the full scan while it stays empty; and one run places a block far
// enough out that a net's length leaves the integer total's range, where
// int has 64 bits. Where it has 32, no int length does: that run places
// the block half the int range out, and the integer total must carry its
// nets.
func TestScorerKeptTotalsMatchCost(t *testing.T) {
	for _, tc := range []struct {
		name    string
		weights []float64
		fixed   bool
		far     bool
	}{
		{"registry", []float64{2, 1, 0.5, 0.25}, true, false},
		{"unit", []float64{1}, true, false},
		{"tenth", []float64{1, 0.1, 2}, false, false},
		{"third", []float64{1.0 / 3, 0.5}, false, false},
		{"far", []float64{2, 1, 0.5, 0.25}, true, true},
	} {
		c := weightedCircuit(tc.weights...)
		n := c.N()
		rng := rand.New(rand.NewSource(3))
		l := &Layout{
			Circuit: c,
			X:       make([]int, n), Y: make([]int, n),
			W: make([]int, n), H: make([]int, n),
			Floorplan: geom.NewRect(0, 0, 200, 200),
		}
		for _, w := range append([]Weights{{}}, WeightLadder(4)...) {
			for i, b := range c.Blocks {
				l.X[i], l.Y[i] = rng.Intn(150), rng.Intn(150)
				l.W[i], l.H[i] = b.WRange().Rand(rng), b.HRange().Rand(rng)
			}
			if tc.far {
				l.X[3] = min(1<<40, math.MaxInt/2)
			}
			var sc Scorer
			check := func(step int, what string, got float64) {
				t.Helper()
				if want := w.Cost(l); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s weights %+v step %d (%s): scorer %v, Cost %v", tc.name, w, step, what, got, want)
				}
			}
			check(-1, "start", w.Start(&sc, l))
			if sc.fixed != tc.fixed {
				t.Fatalf("%s: fixed-point wire %v, want %v", tc.name, sc.fixed, tc.fixed)
			}
			if tc.far && (sc.long > 0) != (strconv.IntSize == 64) {
				t.Fatalf("%s: %d nets outside the integer total's range with %d-bit int", tc.name, sc.long, strconv.IntSize)
			}
			// largest returns the block holding the largest right edge (top
			// edge when top is set).
			largest := func(top bool) int {
				best := 0
				for k := range c.Blocks {
					if top && l.Y[k]+l.H[k] > l.Y[best]+l.H[best] ||
						!top && l.X[k]+l.W[k] > l.X[best]+l.W[best] {
						best = k
					}
				}
				return best
			}
			for step := 0; step < 600; step++ {
				i := rng.Intn(n)
				b := c.Blocks[i]
				dim, v := &l.W[i], b.WRange().Rand(rng)
				if rng.Intn(2) == 1 {
					dim, v = &l.H[i], b.HRange().Rand(rng)
				}
				what := "move"
				switch {
				case step%20 == 9:
					what, i = "shrink the largest right edge", largest(false)
					dim, v = &l.W[i], c.Blocks[i].WMin
				case step%20 == 19:
					what, i = "shrink the largest top edge", largest(true)
					dim, v = &l.H[i], c.Blocks[i].HMin
				case step == 450:
					what, v = "empty rect", 0
				}
				prev := *dim
				*dim = v
				check(step, what, sc.Move(i))
				if rng.Intn(3) == 0 {
					*dim = prev
					sc.Undo()
					check(step, "undo", sc.cost())
				}
			}
		}
	}
}

// TestScorerAllocFree pins a Move and its Undo at zero allocations: the
// BDIO runs one per proposal.
func TestScorerAllocFree(t *testing.T) {
	c := circuits.MustByName("TwoStageOpamp")
	n := c.N()
	l := &Layout{
		Circuit: c,
		X:       make([]int, n), Y: make([]int, n),
		W: make([]int, n), H: make([]int, n),
		Floorplan: geom.NewRect(0, 0, 400, 400),
	}
	for i, blk := range c.Blocks {
		l.X[i], l.Y[i], l.W[i], l.H[i] = 60*i, 40*i, blk.WMin, blk.HMin
	}
	var sc Scorer
	DefaultWeights.Start(&sc, l)
	k := 0
	if allocs := testing.AllocsPerRun(200, func() {
		i := k % n
		l.W[i] = c.Blocks[i].WMax - l.W[i] + c.Blocks[i].WMin
		sc.Move(i)
		if k%2 == 0 {
			l.W[i] = c.Blocks[i].WMax - l.W[i] + c.Blocks[i].WMin
			sc.Undo()
		}
		k++
	}); allocs != 0 {
		t.Fatalf("a Move and Undo allocate %v times, want 0", allocs)
	}
}

// BenchmarkScorerMove times one incremental rescoring against a full Cost
// on TwoStageOpamp, the BDIO's per-proposal work on either path.
func BenchmarkScorerMove(b *testing.B) {
	c := circuits.MustByName("TwoStageOpamp")
	n := c.N()
	l := &Layout{
		Circuit: c,
		X:       make([]int, n), Y: make([]int, n),
		W: make([]int, n), H: make([]int, n),
		Floorplan: geom.NewRect(0, 0, 400, 400),
	}
	for i, blk := range c.Blocks {
		l.X[i], l.Y[i], l.W[i], l.H[i] = 60*i, 40*i, blk.WMin, blk.HMin
	}
	b.Run("incremental", func(b *testing.B) {
		var sc Scorer
		DefaultWeights.Start(&sc, l)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sc.Move(i % n)
		}
	})
	b.Run("full", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			DefaultWeights.Cost(l)
		}
	})
}
