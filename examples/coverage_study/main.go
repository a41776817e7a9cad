// Coverage study: how a multi-placement structure grows with generation
// budget — the paper's §3.1.4 stopping-criterion trade-off made visible.
//
// For increasing explorer budgets on the circ02 benchmark the example
// reports stored placements, exact volume coverage, Monte-Carlo hit rate
// (the fraction of random sizing queries answered by a stored placement
// rather than the backup template), and generation time.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"time"

	"mps"
	"mps/internal/stats"
)

func main() {
	log.SetFlags(0)
	const benchmark = "circ02"

	circuit, err := mps.Benchmark(benchmark)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("coverage growth on %s (%d blocks, dimension space ~2^%.0f vectors)\n\n",
		benchmark, circuit.N(), circuit.DimensionSpaceLog2Volume())

	tb := stats.NewTable("iterations", "placements", "coverage", "hit rate", "gen time")
	for _, iters := range []int{10, 25, 50, 100, 200, 400} {
		out, err := mps.Run(context.Background(), mps.Request{
			Circuit: circuit,
			Options: mps.Options{Seed: 7, Iterations: iters, BDIOSteps: 80},
		})
		if err != nil {
			log.Fatal(err)
		}
		s, genStats := out.Structure, out.Stats[0]
		hit := s.CoverageMonteCarlo(rand.New(rand.NewSource(1)), 4000)
		tb.AddRow(iters, s.NumPlacements(),
			fmt.Sprintf("%.3g", s.Coverage()),
			fmt.Sprintf("%.1f%%", hit*100),
			genStats.Duration.Round(time.Millisecond).String())
	}
	tb.Render(log.Writer())

	fmt.Println("\n100% coverage is unreachable (the paper says as much); uncovered")
	fmt.Println("queries fall back to the slicing-tree template, so every sizing")
	fmt.Println("point still gets a legal floorplan.")
}
