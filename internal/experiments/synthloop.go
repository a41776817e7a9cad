package experiments

import (
	"fmt"
	"io"
	"time"

	"mps/internal/core"
	"mps/internal/cost"
	"mps/internal/modgen"
	"mps/internal/optplace"
	"mps/internal/placement"
	"mps/internal/stats"
	"mps/internal/synth"
	"mps/internal/template"
)

// SynthRow compares one placement provider inside the Fig. 1b sizing loop.
type SynthRow struct {
	Provider   string
	BestCost   float64
	Iterations int
	TimePerIt  time.Duration
	PlaceTime  time.Duration // mean provider latency
}

// RunSynthComparison runs the identical layout-inclusive sizing loop with
// the three provider classes of paper §1 — the generated structure, a fixed
// template, and per-query annealing — and reports quality and latency. The
// structure is passed in so callers control its generation budget.
func RunSynthComparison(w io.Writer, s *core.Structure, seed int64) ([]SynthRow, error) {
	c := s.Circuit()
	sizer := modgen.DefaultSizer(c)
	fp := s.Floorplan()
	obj := synth.LayoutOnlyObjective(cost.WithSymmetry(cost.DefaultWeights, 2))
	cs := core.Compile(s)

	providers := []struct {
		name  string
		p     synth.Provider
		steps int
	}{
		{"multi-placement structure", synth.ProviderFunc(func(ws, hs []int) ([]int, []int, error) {
			res, err := cs.Instantiate(ws, hs)
			if err != nil {
				return nil, nil, err
			}
			return res.X, res.Y, nil
		}), 200},
		{"fixed template", template.Balanced(c), 200},
		{"per-query annealing", &optplace.Provider{
			Circuit: c, FP: placement.DefaultFloorplan(c),
			Cfg: optplace.Config{Steps: 300, Seed: seed},
		}, 50},
	}

	rows := make([]SynthRow, 0, len(providers))
	for _, pv := range providers {
		res, err := synth.Run(sizer, pv.p, obj, fp, synth.Config{Steps: pv.steps, Seed: seed})
		if err != nil {
			return nil, fmt.Errorf("experiments: synth %s: %w", pv.name, err)
		}
		rows = append(rows, SynthRow{
			Provider:   pv.name,
			BestCost:   res.BestCost,
			Iterations: res.Iterations,
			TimePerIt:  res.TotalTime / time.Duration(max(1, res.Iterations)),
			PlaceTime:  res.AvgPlaceTime(),
		})
	}
	if w != nil {
		tb := stats.NewTable("provider", "best cost", "iterations", "time/iter", "place/call")
		for _, r := range rows {
			tb.AddRow(r.Provider, r.BestCost, r.Iterations,
				r.TimePerIt.Round(time.Microsecond).String(),
				r.PlaceTime.Round(time.Microsecond).String())
		}
		fmt.Fprintln(w, "Synthesis-loop comparison (Fig. 1b): identical sizing runs, three providers")
		tb.Render(w)
	}
	return rows, nil
}
