package experiments

import (
	"fmt"
	"io"
	"sort"

	"mps/internal/core"
	"mps/internal/cost"
	"mps/internal/placement"
	"mps/internal/render"
	"mps/internal/stats"
	"mps/internal/template"
)

// defaultEvaluator returns the cost function used by the figure harnesses —
// the same wire-length + area weighting the generation runs use.
func defaultEvaluator() cost.Evaluator { return cost.DefaultWeights }

// Figure5 reproduces the paper's Figure 5: two floorplan instantiations of
// the two-stage opamp from its multi-placement structure at different size
// vectors (a, b), plus the fixed-template instantiation (c) for comparison.
type Figure5 struct {
	ASCIIa, ASCIIb, ASCIIc string
	SVGa, SVGb, SVGc       string
	// Distinct reports whether (a) and (b) used different stored
	// placements — the property templates lack.
	Distinct bool
}

// RunFigure5 instantiates the structure at the low corner (~30% of each
// dimension range) and high corner (~85%), and the balanced template at the
// low corner.
func RunFigure5(s *core.Structure) (Figure5, error) {
	c := s.Circuit()
	mkDims := func(frac float64) ([]int, []int) {
		ws := make([]int, c.N())
		hs := make([]int, c.N())
		for i, b := range c.Blocks {
			ws[i] = b.WMin + int(frac*float64(b.WMax-b.WMin))
			hs[i] = b.HMin + int(frac*float64(b.HMax-b.HMin))
		}
		return ws, hs
	}
	wsA, hsA := mkDims(0.30)
	wsB, hsB := mkDims(0.85)

	cs := core.Compile(s)
	resA, err := cs.Instantiate(wsA, hsA)
	if err != nil {
		return Figure5{}, fmt.Errorf("experiments: fig5 a: %w", err)
	}
	resB, err := cs.Instantiate(wsB, hsB)
	if err != nil {
		return Figure5{}, fmt.Errorf("experiments: fig5 b: %w", err)
	}
	tpl := template.Balanced(c)
	xC, yC, err := tpl.Place(wsA, hsA)
	if err != nil {
		return Figure5{}, fmt.Errorf("experiments: fig5 c: %w", err)
	}

	layout := func(x, y, ws, hs []int) *cost.Layout {
		return &cost.Layout{Circuit: c, X: x, Y: y, W: ws, H: hs, Floorplan: s.Floorplan()}
	}
	la := layout(resA.X, resA.Y, wsA, hsA)
	lb := layout(resB.X, resB.Y, wsB, hsB)
	lc := layout(xC, yC, wsA, hsA)
	return Figure5{
		ASCIIa:   render.ASCII(la, render.DefaultASCII),
		ASCIIb:   render.ASCII(lb, render.DefaultASCII),
		ASCIIc:   render.ASCII(lc, render.DefaultASCII),
		SVGa:     render.SVG(la),
		SVGb:     render.SVG(lb),
		SVGc:     render.SVG(lc),
		Distinct: resA.PlacementID != resB.PlacementID,
	}, nil
}

// Figure6 reproduces the paper's Figure 6: sweep one dimension of the
// search space; the top series show the cost of individual stored
// placements used as fixed templates across the whole sweep, the bottom
// series shows the cost of the placement the structure actually selects —
// the lowest-cost selection behaviour.
type Figure6 struct {
	SweepBlock  int // block whose width is swept
	SweepValues []int
	// PlacementIDs are the stored placements plotted as fixed templates
	// (the distinct placements the structure selected along the sweep).
	PlacementIDs []int
	// FixedCosts[k][j] is PlacementIDs[k] used at SweepValues[j].
	FixedCosts [][]float64
	// SelectedCosts[j] is the cost of the structure's selection.
	SelectedCosts []float64
	// SelectedIDs[j] is the selected placement per sweep point (-1 backup).
	SelectedIDs []int
}

// RunFigure6 sweeps block 0's width across its designer range and evaluates
// selections with ev. The non-swept dimensions anchor at the best-cost
// stored placement's best dimension vector (the paper varies one dimension
// of the search space from a design point), falling back to range midpoints
// for an empty structure.
func RunFigure6(s *core.Structure, ev cost.Evaluator, maxPoints int) (Figure6, error) {
	c := s.Circuit()
	if maxPoints <= 1 {
		maxPoints = 40
	}
	const sweepBlock = 0
	b0 := c.Blocks[sweepBlock]
	step := (b0.WMax - b0.WMin) / (maxPoints - 1)
	if step < 1 {
		step = 1
	}
	ws := make([]int, c.N())
	hs := make([]int, c.N())
	for i, b := range c.Blocks {
		ws[i] = (b.WMin + b.WMax) / 2
		hs[i] = (b.HMin + b.HMax) / 2
	}
	if anchor := bestPlacement(s); anchor != nil && anchor.BestW != nil {
		copy(ws, anchor.BestW)
		copy(hs, anchor.BestH)
	}

	fig := Figure6{SweepBlock: sweepBlock}
	for v := b0.WMin; v <= b0.WMax; v += step {
		fig.SweepValues = append(fig.SweepValues, v)
	}

	// Pass 1: record the structure's selection per sweep point.
	cs := core.Compile(s)
	selected := map[int]bool{}
	for _, v := range fig.SweepValues {
		ws[sweepBlock] = v
		res, err := cs.Instantiate(ws, hs)
		if err != nil {
			return Figure6{}, fmt.Errorf("experiments: fig6: %w", err)
		}
		l := &cost.Layout{Circuit: c, X: res.X, Y: res.Y, W: ws, H: hs, Floorplan: s.Floorplan()}
		fig.SelectedCosts = append(fig.SelectedCosts, ev.Cost(l))
		fig.SelectedIDs = append(fig.SelectedIDs, res.PlacementID)
		if res.PlacementID >= 0 {
			selected[res.PlacementID] = true
		}
	}
	for id := range selected {
		fig.PlacementIDs = append(fig.PlacementIDs, id)
	}
	sort.Ints(fig.PlacementIDs)

	// Pass 2: each selected placement used as a fixed template across the
	// whole sweep (the paper's top plot).
	for _, id := range fig.PlacementIDs {
		p := s.Get(id)
		costs := make([]float64, len(fig.SweepValues))
		for j, v := range fig.SweepValues {
			ws[sweepBlock] = v
			l := &cost.Layout{Circuit: c, X: p.X, Y: p.Y, W: ws, H: hs, Floorplan: s.Floorplan()}
			costs[j] = ev.Cost(l)
		}
		fig.FixedCosts = append(fig.FixedCosts, costs)
	}
	return fig, nil
}

// SelectionGain quantifies Figure 6's claim: the mean sweep cost when the
// structure selects per point, divided by the mean cost of the single best
// fixed placement. Values <= 1 mean per-point selection beats any one
// template over the sweep.
func (f Figure6) SelectionGain() float64 {
	if len(f.SelectedCosts) == 0 || len(f.FixedCosts) == 0 {
		return 1
	}
	sel := stats.Summarize(f.SelectedCosts).Mean
	bestFixed := 0.0
	for k, costs := range f.FixedCosts {
		m := stats.Summarize(costs).Mean
		if k == 0 || m < bestFixed {
			bestFixed = m
		}
	}
	if bestFixed == 0 {
		return 1
	}
	return sel / bestFixed
}

// bestPlacement returns the live placement with the lowest average cost,
// or nil for an empty structure.
func bestPlacement(s *core.Structure) *placement.Placement {
	var best *placement.Placement
	for _, id := range s.IDs() {
		p := s.Get(id)
		if best == nil || p.AvgCost < best.AvgCost {
			best = p
		}
	}
	return best
}

// PlotFigure6 renders the paper's two stacked plots as ASCII charts: the
// top plot shows each stored placement's cost across the sweep, the bottom
// one the structure-selected cost. A sweep that never touched a stored
// placement (tiny generation budgets) skips the top plot with a note.
func PlotFigure6(w io.Writer, f Figure6) error {
	if len(f.PlacementIDs) == 0 {
		fmt.Fprintln(w, "Figure 6 (top): no stored placement covered the sweep (backup answered everywhere)")
	} else {
		top := make([]stats.Series, 0, len(f.PlacementIDs))
		for k, id := range f.PlacementIDs {
			top = append(top, stats.Series{
				Name:   fmt.Sprintf("p%d", id),
				Values: f.FixedCosts[k],
			})
		}
		if err := stats.Plot(w, stats.PlotOptions{
			Width: 64, Height: 12,
			Title: "Figure 6 (top): cost of individual stored placements across the sweep",
		}, top...); err != nil {
			return err
		}
	}
	return stats.Plot(w, stats.PlotOptions{
		Width: 64, Height: 12,
		Title: "Figure 6 (bottom): cost with the multi-placement structure selecting",
	}, stats.Series{Name: "selected", Values: f.SelectedCosts})
}

// RenderFigure6 writes the series as an aligned table (one row per sweep
// point) followed by the selection-gain summary.
func RenderFigure6(w io.Writer, f Figure6) {
	header := []string{"w0", "selected", "sel_id"}
	for _, id := range f.PlacementIDs {
		header = append(header, fmt.Sprintf("p%d", id))
	}
	tb := stats.NewTable(header...)
	for j, v := range f.SweepValues {
		row := []interface{}{v, f.SelectedCosts[j], f.SelectedIDs[j]}
		for k := range f.PlacementIDs {
			row = append(row, f.FixedCosts[k][j])
		}
		tb.AddRow(row...)
	}
	fmt.Fprintln(w, "Figure 6: per-placement cost vs. structure-selected cost along a 1-D sweep")
	tb.Render(w)
	fmt.Fprintf(w, "selection gain (mean selected / mean best fixed): %.3f (<= 1 reproduces the paper)\n",
		f.SelectionGain())
}

// Figure7 reproduces the paper's Figure 7: an instantiation of the
// 21-module tso-cascode benchmark from its structure.
type Figure7 struct {
	ASCII string
	SVG   string
}

// RunFigure7 instantiates the structure at mid-range dimensions.
func RunFigure7(s *core.Structure) (Figure7, error) {
	c := s.Circuit()
	ws := make([]int, c.N())
	hs := make([]int, c.N())
	for i, b := range c.Blocks {
		ws[i] = (b.WMin + b.WMax) / 2
		hs[i] = (b.HMin + b.HMax) / 2
	}
	res, err := core.Compile(s).Instantiate(ws, hs)
	if err != nil {
		return Figure7{}, fmt.Errorf("experiments: fig7: %w", err)
	}
	l := &cost.Layout{Circuit: c, X: res.X, Y: res.Y, W: ws, H: hs, Floorplan: s.Floorplan()}
	return Figure7{
		ASCII: render.ASCII(l, render.DefaultASCII),
		SVG:   render.SVG(l),
	}, nil
}
