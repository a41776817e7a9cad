package experiments

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"time"

	"mps/internal/circuits"
	"mps/internal/core"
	"mps/internal/gen"
	"mps/internal/netlist"
	"mps/internal/stats"
	"mps/internal/template"
)

// Effort scales the generation budgets of the harness. The paper burned
// 21 minutes to 4 hours per circuit on 2005 hardware; these presets trade
// structure richness for runtime while preserving Table 2's shape.
type Effort int

const (
	// EffortQuick finishes the whole suite in seconds (CI budget).
	EffortQuick Effort = iota
	// EffortStandard finishes the suite in a couple of minutes.
	EffortStandard
	// EffortFull spends tens of minutes for publication-quality structures.
	EffortFull
)

func (e Effort) budgets() (iterations, bdioSteps int) {
	switch e {
	case EffortQuick:
		return 30, 60
	case EffortFull:
		return 800, 600
	default:
		return 150, 250
	}
}

// budgetsFor scales the iteration budget with block count, mimicking the
// paper's coverage-driven stopping rule: bigger dimension spaces explore
// longer, so both generation time and stored-placement counts grow with
// circuit size as in the published Table 2.
func (e Effort) budgetsFor(blocks int) (iterations, bdioSteps int) {
	iters, steps := e.budgets()
	scale := 0.6 + float64(blocks)/12.0
	return int(float64(iters) * scale), steps
}

// Table2Row is one measured row next to its published counterpart.
type Table2Row struct {
	Circuit        string
	GenTime        time.Duration
	Placements     int
	InstantiateAvg time.Duration
	BackupRate     float64 // fraction of timing queries answered by backup
	Paper          *PaperTable2Row
}

// GenerateForBenchmark generates a structure for one named benchmark at the
// given effort with the default backend, with the template backup
// installed — the shared entry point for the Table 2, Figure 5/6/7
// harnesses and the benchmarks.
func GenerateForBenchmark(name string, effort Effort, seed int64) (*core.Structure, gen.Stats, error) {
	return generateBenchmark(name, effort, gen.Spec{Seed: seed})
}

// generateBenchmark is generate for a named benchmark at the effort's
// per-circuit budgets.
func generateBenchmark(name string, effort Effort, spec gen.Spec) (*core.Structure, gen.Stats, error) {
	c, err := circuits.ByName(name)
	if err != nil {
		return nil, gen.Stats{}, err
	}
	spec.Iterations, spec.BDIOSteps = effort.budgetsFor(c.N())
	return generate(c, spec)
}

// generate builds every structure the harness measures: the spec's
// backend (finished, so compacted and renumbered) at the spec's explicit
// budgets, then the template backup.
func generate(c *netlist.Circuit, spec gen.Spec) (*core.Structure, gen.Stats, error) {
	g, err := gen.ByName(spec.Backend)
	if err != nil {
		return nil, gen.Stats{}, err
	}
	s, st, err := g.Generate(context.Background(), c, spec)
	if err != nil {
		return nil, st, err
	}
	s.SetBackup(template.Balanced(c))
	return s, st, nil
}

// MeasureInstantiation times Instantiate through the structure's compiled
// index, the path mpsd serves, over uniformly random in-bounds dimension
// vectors and returns the mean latency and the backup hit rate. The index
// is compiled before the clock starts, as a server compiles it once on
// load.
func MeasureInstantiation(s *core.Structure, queries int, seed int64) (time.Duration, float64, error) {
	c := s.Circuit()
	cs := core.Compile(s)
	rng := rand.New(rand.NewSource(seed))
	ws := make([]int, c.N())
	hs := make([]int, c.N())
	backups := 0
	start := time.Now()
	for q := 0; q < queries; q++ {
		randomDims(c, rng, ws, hs)
		res, err := cs.Instantiate(ws, hs)
		if err != nil {
			return 0, 0, err
		}
		if res.FromBackup {
			backups++
		}
	}
	elapsed := time.Since(start)
	return elapsed / time.Duration(queries), float64(backups) / float64(queries), nil
}

// RunTable2 regenerates Table 2 for all nine benchmarks: per circuit the
// structure-generation CPU time, the number of placements stored, and the
// mean instantiation latency over 1000 random queries.
func RunTable2(w io.Writer, effort Effort, seed int64) ([]Table2Row, error) {
	const queries = 1000
	rows := make([]Table2Row, 0, len(circuits.Table1))
	for _, e := range circuits.Table1 {
		s, st, err := GenerateForBenchmark(e.Name, effort, seed)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", e.Name, err)
		}
		avg, backupRate, err := MeasureInstantiation(s, queries, seed+1)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", e.Name, err)
		}
		rows = append(rows, Table2Row{
			Circuit:        e.Name,
			GenTime:        st.Duration,
			Placements:     s.NumPlacements(),
			InstantiateAvg: avg,
			BackupRate:     backupRate,
			Paper:          PaperRowByName(e.Name),
		})
	}
	if w != nil {
		tb := stats.NewTable("Circuit", "Gen Time", "Placements", "Instantiate (avg)",
			"Backup %", "Paper Gen", "Paper Plc", "Paper Inst")
		for _, r := range rows {
			tb.AddRow(r.Circuit,
				r.GenTime.Round(time.Millisecond).String(),
				r.Placements,
				r.InstantiateAvg.String(),
				fmt.Sprintf("%.0f%%", r.BackupRate*100),
				r.Paper.GenTime.String(),
				r.Paper.Placements,
				fmt.Sprintf("%gms", r.Paper.InstantiateMS))
		}
		fmt.Fprintln(w, "Table 2: Usage and Generation of the Multi-Placement Structures")
		fmt.Fprintf(w, "(effort preset %d; paper columns: C++ on a 2005 SUN-Blade-1000)\n", effort)
		tb.Render(w)
	}
	return rows, nil
}

// randomDims fills ws/hs with uniform in-bounds dimensions.
func randomDims(c *netlist.Circuit, rng *rand.Rand, ws, hs []int) {
	for i, b := range c.Blocks {
		ws[i] = b.WMin + rng.Intn(b.WMax-b.WMin+1)
		hs[i] = b.HMin + rng.Intn(b.HMax-b.HMin+1)
	}
}
