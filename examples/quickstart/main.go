// Quickstart: generate a multi-placement structure for the two-stage opamp
// benchmark, query it with two different size vectors, and render the
// resulting floorplans — the paper's Figure 1 workflow end to end.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"mps"
	"mps/internal/cost"
	"mps/internal/render"
)

func main() {
	log.SetFlags(0)

	// The circuit topology: 5 blocks, 9 nets (paper Table 1).
	circuit, err := mps.Benchmark("TwoStageOpamp")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("circuit %s: %d blocks, %d nets, %d terminals\n\n",
		circuit.Name, circuit.N(), len(circuit.Nets), circuit.PinCount())

	// One-time generation (Fig. 1a). EffortQuick keeps this demo fast;
	// use EffortBalanced or EffortThorough for real structures.
	fmt.Println("generating multi-placement structure...")
	out, err := mps.Run(context.Background(), mps.Request{
		Circuit: circuit,
		Options: mps.Options{Seed: 42, Effort: mps.EffortQuick},
	})
	if err != nil {
		log.Fatal(err)
	}
	s, stats := out.Structure, out.Stats[0]
	fmt.Printf("  %d placements stored in %s (%d explored, %d engulfed)\n\n",
		s.NumPlacements(), stats.Duration.Round(time.Millisecond),
		stats.Iterations, stats.CandidatesDied)

	// Fast instantiation (Fig. 1b): same topology, two different sizings.
	for _, frac := range []float64{0.25, 0.8} {
		ws := make([]int, circuit.N())
		hs := make([]int, circuit.N())
		for i, b := range circuit.Blocks {
			ws[i] = b.WMin + int(frac*float64(b.WMax-b.WMin))
			hs[i] = b.HMin + int(frac*float64(b.HMax-b.HMin))
		}
		start := time.Now()
		res, err := s.Instantiate(ws, hs)
		elapsed := time.Since(start)
		if err != nil {
			log.Fatal(err)
		}
		src := fmt.Sprintf("stored placement %d", res.PlacementID)
		if res.FromBackup {
			src = "backup template"
		}
		l := &cost.Layout{Circuit: circuit, X: res.X, Y: res.Y, W: ws, H: hs, Floorplan: s.Floorplan()}
		fmt.Printf("sizes at %.0f%% of ranges -> %s in %s (wire %d, area %d)\n",
			frac*100, src, elapsed, cost.WireLength(l), cost.UsedArea(l))
		fmt.Print(render.ASCII(l, render.ASCIIOptions{Width: 56, ShowLegend: true}))
		fmt.Println()
	}
}
