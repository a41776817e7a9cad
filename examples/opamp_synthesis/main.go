// Opamp synthesis: the paper's Figure 1b loop on a two-stage Miller opamp.
//
// A simulated-annealing sizing optimizer proposes device sizes (W/L per
// stage, Cc); module generators turn them into block dimensions; a placement
// provider instantiates the floorplan; wire parasitics extracted from the
// placement degrade GBW and phase margin; the resulting performance drives
// the optimizer.
//
// The example runs the identical loop with three providers and compares
// solution quality and time per iteration:
//
//   - multi-placement structure (generated once up front, queried per point)
//   - fixed slicing-tree template (the template-based baseline)
//   - per-query simulated-annealing placer (the optimization-based baseline,
//     with a reduced step budget to stay runnable)
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"mps"
	"mps/internal/cost"
	"mps/internal/modgen"
	"mps/internal/optplace"
	"mps/internal/perf"
	"mps/internal/placement"
	"mps/internal/synth"
	"mps/internal/template"
)

// opampObjective scores a sizing point: constraint penalties from the
// analytic opamp model (with layout parasitics) plus power and area terms.
type opampObjective struct {
	spec            perf.Spec
	outNet, compNet int
}

func (o *opampObjective) Cost(x []float64, l *cost.Layout) float64 {
	lengths := cost.NetLengths(l)
	p := perf.EvalTwoStage(perf.ParamsFromVector(x), lengths[o.outNet], lengths[o.compNet])
	area := float64(cost.UsedArea(l))
	return 100*o.spec.Penalty(p) + p.PowerMW + area/5e4
}

func main() {
	log.SetFlags(0)

	circuit, err := mps.Benchmark("TwoStageOpamp")
	if err != nil {
		log.Fatal(err)
	}
	sizer, err := modgen.TwoStageOpampSizer(circuit)
	if err != nil {
		log.Fatal(err)
	}
	fp := placement.DefaultFloorplan(circuit)

	// Find the nets whose parasitics matter: OUT and OUT1 (comp node).
	outNet, compNet := -1, -1
	for i, n := range circuit.Nets {
		switch n.Name {
		case "OUT":
			outNet = i
		case "OUT1":
			compNet = i
		}
	}
	obj := &opampObjective{spec: perf.DefaultSpec, outNet: outNet, compNet: compNet}

	// One-time structure generation (amortized across every synthesis run).
	fmt.Println("generating multi-placement structure for the opamp topology...")
	genStart := time.Now()
	out, err := mps.Run(context.Background(), mps.Request{
		Circuit: circuit,
		Options: mps.Options{Seed: 3, Effort: mps.EffortQuick},
	})
	if err != nil {
		log.Fatal(err)
	}
	s := out.Structure
	fmt.Printf("  %d placements in %s\n\n", s.NumPlacements(), time.Since(genStart).Round(time.Millisecond))

	providers := []struct {
		name  string
		p     synth.Provider
		steps int
	}{
		{"multi-placement structure", synth.ProviderFunc(func(ws, hs []int) ([]int, []int, error) {
			res, err := s.Instantiate(ws, hs)
			if err != nil {
				return nil, nil, err
			}
			return res.X, res.Y, nil
		}), 250},
		{"fixed template", template.Balanced(circuit), 250},
		{"per-query annealing", &optplace.Provider{
			Circuit: circuit, FP: fp, Cfg: optplace.Config{Steps: 400, Seed: 9},
		}, 60}, // fewer sizing steps: each placement call is an SA run
	}

	fmt.Printf("%-28s %10s %14s %12s %8s %8s %8s\n",
		"placement provider", "best cost", "time/iter", "place/iter", "gain dB", "GBW MHz", "PM deg")
	for _, pv := range providers {
		res, err := synth.Run(sizer, pv.p, obj, fp, synth.Config{Steps: pv.steps, Seed: 17})
		if err != nil {
			log.Fatal(err)
		}
		lengths := cost.NetLengths(res.BestLayout)
		pf := perf.EvalTwoStage(perf.ParamsFromVector(res.BestX), lengths[outNet], lengths[compNet])
		fmt.Printf("%-28s %10.2f %14s %12s %8.1f %8.1f %8.1f\n",
			pv.name, res.BestCost,
			(res.TotalTime / time.Duration(res.Iterations)).Round(time.Microsecond),
			res.AvgPlaceTime().Round(time.Microsecond),
			pf.GainDB, pf.GBWHz/1e6, pf.PhaseMarginDeg)
	}
	fmt.Println("\nThe structure provider keeps template-class iteration speed while")
	fmt.Println("adapting the floorplan to each sizing point, which is the paper's point.")
}
