package experiments

import (
	"fmt"
	"io"
	"time"

	"mps/internal/circuits"
	"mps/internal/gen"
	"mps/internal/stats"
)

// ScalingRow is one point of the block-count scaling study — the extension
// study behind Table 2's size trend (generation grows steeply with block
// count, instantiation stays near-flat).
type ScalingRow struct {
	Blocks         int
	GenTime        time.Duration
	Placements     int
	InstantiateAvg time.Duration
}

// RunScaling generates structures for synthetic circuits of the given block
// counts (same per-circuit budget) and measures generation and
// instantiation time.
func RunScaling(w io.Writer, sizes []int, effort Effort, seed int64) ([]ScalingRow, error) {
	iters, steps := effort.budgets()
	rows := make([]ScalingRow, 0, len(sizes))
	for _, c := range circuits.ScalingFamily(sizes) {
		s, st, err := generate(c, gen.Spec{Seed: seed, Iterations: iters, BDIOSteps: steps})
		if err != nil {
			return nil, fmt.Errorf("experiments: scaling %s: %w", c.Name, err)
		}
		avg, _, err := MeasureInstantiation(s, 500, seed+1)
		if err != nil {
			return nil, err
		}
		rows = append(rows, ScalingRow{
			Blocks:         c.N(),
			GenTime:        st.Duration,
			Placements:     s.NumPlacements(),
			InstantiateAvg: avg,
		})
	}
	if w != nil {
		tb := stats.NewTable("Blocks", "Gen Time", "Placements", "Instantiate (avg)")
		for _, r := range rows {
			tb.AddRow(r.Blocks, r.GenTime.Round(time.Millisecond).String(),
				r.Placements, r.InstantiateAvg.String())
		}
		fmt.Fprintln(w, "Scaling study: structure generation and query vs block count")
		tb.Render(w)
	}
	return rows, nil
}
