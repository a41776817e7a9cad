// Symmetric mixer: symmetry-aware structure generation.
//
// Analog placement must mirror matched devices (the mixer's switching
// quads, loads and filter caps) about a common axis. This example generates
// two multi-placement structures for the Mixer benchmark — one with the
// plain wire+area cost and one with the symmetry penalty added — and
// compares the symmetry quality of the placements each returns.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"mps"
	"mps/internal/cost"
	"mps/internal/render"
	"mps/internal/stats"
)

func main() {
	log.SetFlags(0)

	circuit, err := mps.Benchmark("Mixer")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Mixer: %d blocks, %d symmetry group(s)\n", circuit.N(), len(circuit.Symmetries))
	for _, g := range circuit.Symmetries {
		fmt.Printf("  group %q: %d mirror pairs, %d self-symmetric\n",
			g.Name, len(g.Pairs), len(g.SelfSym))
	}
	fmt.Println()

	type variant struct {
		name string
		ev   cost.Evaluator
	}
	variants := []variant{
		{"wire+area only", cost.DefaultWeights},
		{"wire+area + symmetry (w=4)", cost.WithSymmetry(cost.DefaultWeights, 4)},
	}

	tb := stats.NewTable("evaluator", "placements", "gen time", "mean sym penalty", "mean wire")
	layouts := make(map[string]*cost.Layout)
	for _, v := range variants {
		out, err := mps.Run(context.Background(), mps.Request{
			Circuit: circuit,
			Options: mps.Options{Seed: 11, Effort: mps.EffortQuick, Evaluator: v.ev},
		})
		if err != nil {
			log.Fatal(err)
		}
		s, genStats := out.Structure, out.Stats[0]

		// Measure each stored placement at its own best dimensions — the
		// layouts the structure will hand to a synthesis loop. (Random
		// probes would mostly hit the shared backup template at this tiny
		// generation budget and mask the comparison.)
		var symTotal, wireTotal float64
		var lastLayout *cost.Layout
		probes := 0
		for _, id := range s.IDs() {
			p := s.Get(id)
			if p.BestW == nil {
				continue
			}
			l := &cost.Layout{
				Circuit: circuit, X: p.X, Y: p.Y,
				W: p.BestW, H: p.BestH, Floorplan: s.Floorplan(),
			}
			symTotal += cost.SymmetryPenalty(l)
			wireTotal += float64(cost.WireLength(l))
			lastLayout = l
			probes++
		}
		if probes == 0 {
			log.Fatal("structure stored no placements")
		}
		layouts[v.name] = lastLayout
		tb.AddRow(v.name, s.NumPlacements(),
			genStats.Duration.Round(time.Millisecond).String(),
			symTotal/float64(probes), wireTotal/float64(probes))
	}
	tb.Render(log.Writer())

	fmt.Println("\nlast instantiation from the symmetry-aware structure:")
	fmt.Print(render.ASCII(layouts[variants[1].name], render.ASCIIOptions{Width: 60, ShowLegend: true}))
	fmt.Println("\nexpected shape: the symmetry-weighted structure trades some wire")
	fmt.Println("length for a visibly lower mean symmetry penalty.")
}
