package experiments

// Backends comparison (mpsbench -backends): every registered generation
// backend runs every Table 1 circuit from the same seed and budgets, and
// the table reports what each strategy bought — placements stored, exact
// volume coverage, best BDIO cost, wall clock. This is the measurement
// loop for backend work: a new backend registers in internal/gen and
// shows up here (and in BENCH_results.json) with zero harness changes.

import (
	"fmt"
	"io"
	"time"

	"mps/internal/circuits"
	"mps/internal/gen"
	"mps/internal/stats"
)

// BackendRow is one (backend, circuit) measurement of the comparison —
// the schema archived under "backends" in BENCH_results.json.
type BackendRow struct {
	Backend    string        `json:"backend"`
	Circuit    string        `json:"circuit"`
	Placements int           `json:"placements"`
	Coverage   float64       `json:"coverage"`
	BestCost   float64       `json:"best_cost"`
	WallClock  time.Duration `json:"wall_clock_ns"`
}

// RunBackends runs the full backends × circuits comparison, renders a
// table to w (nil = silent), and returns the rows for the JSON report.
func RunBackends(w io.Writer, effort Effort, seed int64) ([]BackendRow, error) {
	rows := make([]BackendRow, 0, len(gen.Names())*len(circuits.Table1))
	for _, backend := range gen.Names() {
		for _, e := range circuits.Table1 {
			s, st, err := generateBenchmark(e.Name, effort, gen.Spec{Backend: backend, Seed: seed})
			if err != nil {
				return nil, fmt.Errorf("experiments: %s/%s: %w", backend, e.Name, err)
			}
			rows = append(rows, BackendRow{
				Backend:    backend,
				Circuit:    e.Name,
				Placements: s.NumPlacements(),
				Coverage:   s.Coverage(),
				BestCost:   st.BestAvgCost,
				WallClock:  st.Duration,
			})
		}
	}
	if w != nil {
		fmt.Fprintln(w, "Generation backends: coverage/cost/wall-clock per Table 1 circuit")
		tb := stats.NewTable("Backend", "Circuit", "Placements", "Coverage", "Best Cost", "Wall Clock")
		for _, r := range rows {
			tb.AddRow(r.Backend, r.Circuit, r.Placements,
				fmt.Sprintf("%.4f", r.Coverage),
				fmt.Sprintf("%.1f", r.BestCost),
				r.WallClock.Round(time.Millisecond).String())
		}
		tb.Render(w)
	}
	return rows, nil
}
