package cost

import (
	"math"
	"math/rand"
	"testing"

	"mps/internal/circuits"
	"mps/internal/geom"
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
