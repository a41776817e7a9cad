package experiments

import (
	"fmt"
	"io"
	"math/rand"

	"mps/internal/core"
	"mps/internal/cost"
	"mps/internal/portfolio"
	"mps/internal/stats"
)

// This file implements the best-of-K portfolio study behind `mpsbench
// -portfolio`: per circuit it generates K members from derived seeds,
// merges their coverage, and measures what routing buys over the K=1
// baseline — covered fraction and mean instantiated bounding-box area on
// one shared random query stream. The K=1 column is member 0 alone (the
// same seed the single-structure benchmarks use), so the delta is exactly
// what a portfolio adds.

// PortfolioRow is one circuit's K=1 vs best-of-K comparison. Cost is the
// paper's quality metric (cost.DefaultWeights: wire length + area) — the
// axis on which stored BDIO-optimized placements beat the template
// backup; bbox area alone favors the backup, which packs tightly but
// routes badly.
type PortfolioRow struct {
	Circuit    string
	K          int
	Placements int     // total stored placements across members
	CoverageK1 float64 // member 0's sampled covered fraction
	CoverageK  float64 // merged (union) sampled covered fraction
	MeanCostK1 float64 // mean layout cost, member 0 (backup answers included)
	MeanCostK  float64 // mean layout cost, routed portfolio
	CostDelta  float64 // (MeanCostK - MeanCostK1) / MeanCostK1
	MeanAreaK1 float64 // mean bbox area, member 0 (backup answers included)
	MeanAreaK  float64 // mean bbox area, routed portfolio
	AreaDelta  float64 // (MeanAreaK - MeanAreaK1) / MeanAreaK1
}

// portfolioCircuits is the study set, matching the query-perf study.
var portfolioCircuits = []string{"circ01", "TwoStageOpamp", "Mixer", "tso-cascode"}

// portfolioSamples is the shared query stream length per circuit.
const portfolioSamples = 4000

// GeneratePortfolioForBenchmark generates a K-member portfolio at the
// given effort, member i from portfolio.MemberSeed(seed, i) — the same
// derivation the facade and the daemon use.
func GeneratePortfolioForBenchmark(name string, effort Effort, seed int64, k int) (*portfolio.Portfolio, error) {
	members := make([]*core.Structure, k)
	for i := range members {
		m, _, err := GenerateForBenchmark(name, effort, portfolio.MemberSeed(seed, i))
		if err != nil {
			return nil, err
		}
		members[i] = m
	}
	return portfolio.New(members)
}

// resultArea computes the bounding-box area of an instantiation at the
// queried dimensions.
func resultArea(res *core.Result, ws, hs []int) float64 {
	minX, minY := res.X[0], res.Y[0]
	maxX, maxY := res.X[0]+ws[0], res.Y[0]+hs[0]
	for i := 1; i < len(res.X); i++ {
		minX = min(minX, res.X[i])
		minY = min(minY, res.Y[i])
		maxX = max(maxX, res.X[i]+ws[i])
		maxY = max(maxY, res.Y[i]+hs[i])
	}
	return float64(maxX-minX) * float64(maxY-minY)
}

// RunPortfolio generates a K-member portfolio per study circuit, measures
// coverage and mean instantiated area against the K=1 baseline on a
// shared random query stream, renders a table to w, and returns the rows.
func RunPortfolio(w io.Writer, effort Effort, seed int64, k int) ([]PortfolioRow, error) {
	fmt.Fprintf(w, "Best-of-%d portfolio vs single structure (%d random queries per circuit)\n",
		k, portfolioSamples)
	tb := stats.NewTable("circuit", "placements",
		"cov K=1", fmt.Sprintf("cov K=%d", k), "gain",
		"cost K=1", fmt.Sprintf("cost K=%d", k), "cost delta", "area delta")
	rows := make([]PortfolioRow, 0, len(portfolioCircuits))
	for _, name := range portfolioCircuits {
		p, err := GeneratePortfolioForBenchmark(name, effort, seed, k)
		if err != nil {
			return nil, err
		}
		row := measurePortfolio(name, p, seed)
		rows = append(rows, row)
		tb.AddRow(row.Circuit, row.Placements,
			fmt.Sprintf("%.2f%%", 100*row.CoverageK1),
			fmt.Sprintf("%.2f%%", 100*row.CoverageK),
			coverageGain(row),
			fmt.Sprintf("%.0f", row.MeanCostK1),
			fmt.Sprintf("%.0f", row.MeanCostK),
			fmt.Sprintf("%+.2f%%", 100*row.CostDelta),
			fmt.Sprintf("%+.2f%%", 100*row.AreaDelta))
	}
	tb.Render(w)
	fmt.Fprintln(w, "cov: sampled covered fraction (K=1 is member 0). cost: mean layout cost")
	fmt.Fprintln(w, "(wire length + area, cost.DefaultWeights) over the shared query stream,")
	fmt.Fprintln(w, "backup answers included — lower is better. area: mean bbox area delta.")
	return rows, nil
}

// coverageGain renders the union-over-member-0 coverage ratio. A member-0
// coverage of exactly 0 has no finite ratio: "inf" when the union still
// covers something (0% → positive is the strongest possible gain, not a
// collapse), "n/a" when both are 0 at this sample size.
func coverageGain(row PortfolioRow) string {
	if row.CoverageK1 == 0 {
		if row.CoverageK == 0 {
			return "n/a"
		}
		return "inf"
	}
	return fmt.Sprintf("%.2fx", row.CoverageK/row.CoverageK1)
}

// measurePortfolio runs the shared query stream against member 0 and the
// routed portfolio.
func measurePortfolio(name string, p *portfolio.Portfolio, seed int64) PortfolioRow {
	c := p.Circuit()
	rng := rand.New(rand.NewSource(seed + 707))
	n := c.N()
	ws, hs := make([]int, n), make([]int, n)
	m0 := core.Compile(p.Member(0))

	fp := p.Member(0).Floorplan()
	score := func(res *core.Result) float64 {
		l := cost.Layout{Circuit: c, X: res.X, Y: res.Y, W: ws, H: hs, Floorplan: fp}
		return cost.DefaultWeights.Cost(&l)
	}

	row := PortfolioRow{Circuit: name, K: p.K(), Placements: p.NumPlacements()}
	var res core.Result
	coveredK1, coveredK := 0, 0
	var areaK1, areaK, costK1, costK float64
	for q := 0; q < portfolioSamples; q++ {
		for i, b := range c.Blocks {
			ws[i] = b.WRange().Rand(rng)
			hs[i] = b.HRange().Rand(rng)
		}
		if err := m0.InstantiateInto(&res, ws, hs); err == nil {
			if !res.FromBackup {
				coveredK1++
			}
			areaK1 += resultArea(&res, ws, hs)
			costK1 += score(&res)
		}
		if member, err := p.InstantiateWeightedInto(&res, cost.Weights{}, ws, hs); err == nil {
			if member >= 0 {
				coveredK++
			}
			areaK += resultArea(&res, ws, hs)
			costK += score(&res)
		}
	}
	row.CoverageK1 = float64(coveredK1) / portfolioSamples
	row.CoverageK = float64(coveredK) / portfolioSamples
	row.MeanAreaK1 = areaK1 / portfolioSamples
	row.MeanAreaK = areaK / portfolioSamples
	row.MeanCostK1 = costK1 / portfolioSamples
	row.MeanCostK = costK / portfolioSamples
	if row.MeanAreaK1 > 0 {
		row.AreaDelta = (row.MeanAreaK - row.MeanAreaK1) / row.MeanAreaK1
	}
	if row.MeanCostK1 > 0 {
		row.CostDelta = (row.MeanCostK - row.MeanCostK1) / row.MeanCostK1
	}
	return row
}
