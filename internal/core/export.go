package core

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// The gob format (serialize.go) is the compact load/store path; this file
// adds a JSON export for interchange and inspection — what cmd/mpsinfo and
// external tooling consume. JSON export is one-way by design: Load only
// accepts the gob format, so there is exactly one trusted deserializer.

// ExportJSON is the JSON document layout.
type ExportJSON struct {
	Circuit    string            `json:"circuit"`
	Blocks     int               `json:"blocks"`
	Floorplan  [4]int            `json:"floorplan"` // x0, y0, x1, y1
	Placements []PlacementJSON   `json:"placements"`
	Summary    StructSummaryJSON `json:"summary"`
}

// PlacementJSON is one stored placement in the export.
type PlacementJSON struct {
	ID       int     `json:"id"`
	X        []int   `json:"x"`
	Y        []int   `json:"y"`
	WLo      []int   `json:"w_lo"`
	WHi      []int   `json:"w_hi"`
	HLo      []int   `json:"h_lo"`
	HHi      []int   `json:"h_hi"`
	AvgCost  float64 `json:"avg_cost"`
	BestCost float64 `json:"best_cost"`
	// Log2Volume is log2 of the number of dimension vectors the placement
	// covers.
	Log2Volume float64 `json:"log2_volume"`
}

// StructSummaryJSON aggregates structure health metrics.
type StructSummaryJSON struct {
	Placements   int     `json:"placements"`
	Coverage     float64 `json:"coverage"`
	CoverageLog2 float64 `json:"coverage_log2"`
	MeanAvgCost  float64 `json:"mean_avg_cost"`
	BestBestCost float64 `json:"best_best_cost"`
	RowIntervals int     `json:"row_intervals"` // total interval objects over all 2N rows
	MaxRowLength int     `json:"max_row_length"`
}

// WriteJSON exports the structure to w as indented JSON.
func (s *Structure) WriteJSON(w io.Writer) error {
	doc := ExportJSON{
		Circuit:   s.circuit.Name,
		Blocks:    s.circuit.N(),
		Floorplan: [4]int{s.fp.X0, s.fp.Y0, s.fp.X1, s.fp.Y1},
		Summary:   s.Summary(),
	}
	saved := s.saved()
	for k, id := range s.IDs() {
		sp := saved[k]
		doc.Placements = append(doc.Placements, PlacementJSON{
			ID: id,
			X:  sp.X, Y: sp.Y,
			WLo: sp.WLo, WHi: sp.WHi, HLo: sp.HLo, HHi: sp.HHi,
			AvgCost: sp.AvgCost, BestCost: sp.BestCost,
			Log2Volume: boxLog2Volume(s.box(id)),
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return fmt.Errorf("core: encoding JSON: %w", err)
	}
	return nil
}

// Summary computes the aggregate metrics of the structure. Its row counts
// come from the compiled index, so like Compile (and RowHistogram) it
// panics on a hand-built structure past the int32 range, which Load never
// returns.
func (s *Structure) Summary() StructSummaryJSON {
	sum := StructSummaryJSON{
		Placements:   s.alive,
		Coverage:     s.Coverage(),
		CoverageLog2: s.CoverageLog2(),
		BestBestCost: math.Inf(1),
	}
	var costTotal float64
	for _, r := range s.recs {
		if r == nil {
			continue
		}
		costTotal += r.AvgCost
		if r.BestCost < sum.BestBestCost {
			sum.BestBestCost = r.BestCost
		}
	}
	if s.alive > 0 {
		sum.MeanAvgCost = costTotal / float64(s.alive)
	} else {
		sum.BestBestCost = 0
	}
	cs := Compile(s)
	sum.RowIntervals = cs.NumSpans()
	for r := 0; r < 2*cs.n; r++ {
		sum.MaxRowLength = max(sum.MaxRowLength, cs.rowLen(r))
	}
	return sum
}

// RowHistogram returns, per block, the number of intervals in its width
// and height rows — the Figure-3 row occupancy profile cmd/mpsinfo prints,
// read from the compiled index.
func (s *Structure) RowHistogram() (wLens, hLens []int) {
	cs := Compile(s)
	wLens = make([]int, cs.n)
	hLens = make([]int, cs.n)
	for i := range wLens {
		wLens[i] = cs.rowLen(2 * i)
		hLens[i] = cs.rowLen(2*i + 1)
	}
	return wLens, hLens
}

// CostQuantiles returns the q-quantiles (0 < q) of stored AvgCosts in
// ascending order, e.g. q=4 gives quartiles [min, p25, p50, p75, max].
func (s *Structure) CostQuantiles(q int) []float64 {
	if q < 1 || s.alive == 0 {
		return nil
	}
	costs := make([]float64, 0, s.alive)
	for _, r := range s.recs {
		if r != nil {
			costs = append(costs, r.AvgCost)
		}
	}
	sort.Float64s(costs)
	out := make([]float64, q+1)
	for k := 0; k <= q; k++ {
		idx := k * (len(costs) - 1) / q
		out[k] = costs[idx]
	}
	return out
}
