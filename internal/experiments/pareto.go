package experiments

import (
	"fmt"
	"io"
	"math/rand"

	"mps/internal/core"
	"mps/internal/cost"
	"mps/internal/gen"
	"mps/internal/portfolio"
	"mps/internal/stats"
)

// This file implements the Pareto-portfolio study behind `mpsbench
// -pareto`: at equal K, does weight diversity (members optimizing
// different objective mixes — the facade's default weight ladder) beat
// seed-only diversity (the historical portfolio: same objective, K
// seeds)? Per circuit both portfolios share the member seeds and the
// query stream; each objective is measured by routing every query with
// the weight vector favoring that objective alone, so each portfolio
// answers with its best member for that objective, and the means compare
// the best each K-member artifact can do per axis.

// ParetoRow is one circuit's seed-diverse vs weight-diverse comparison.
// The per-objective columns are mean cost.Terms components over the
// queries both portfolios cover (backup answers excluded — the study
// compares stored placements, not the shared template), each measured
// under routing that favors that objective alone. Lower is better.
type ParetoRow struct {
	Circuit string `json:"circuit"`
	K       int    `json:"k"`
	// Samples counts the commonly covered queries the objective means
	// average over.
	Samples int `json:"samples"`
	// CoverageSeed and CoverageWeighted are each portfolio's own covered
	// fraction of the shared query stream.
	CoverageSeed     float64 `json:"coverage_seed"`
	CoverageWeighted float64 `json:"coverage_weighted"`
	WireSeed         float64 `json:"wire_seed"`
	WireWeighted     float64 `json:"wire_weighted"`
	AreaSeed         float64 `json:"area_seed"`
	AreaWeighted     float64 `json:"area_weighted"`
	AspectSeed       float64 `json:"aspect_seed"`
	AspectWeighted   float64 `json:"aspect_weighted"`
}

// paretoSamples is the shared query stream length per circuit.
const paretoSamples = 4000

// paretoObjectives are the single-objective routing vectors, index-matched
// to the (wire, area, aspect) term columns.
var paretoObjectives = []cost.Weights{{Wire: 1}, {Area: 1}, {Aspect: 1}}

// paretoPortfolios builds the two equal-K portfolios for a circuit:
// seed-diverse (every member weightless, the pre-weights artifact) and
// weight-diverse (member i on ladder rung i), sharing the member seeds.
func paretoPortfolios(name string, effort Effort, seed int64, k int) (seedDiv, weightDiv *portfolio.Portfolio, err error) {
	ladder := cost.WeightLadder(k)
	seedMembers := make([]*core.Structure, k)
	weightMembers := make([]*core.Structure, k)
	for i := 0; i < k; i++ {
		ms := portfolio.MemberSeed(seed, i)
		if seedMembers[i], _, err = GenerateForBenchmark(name, effort, ms); err != nil {
			return nil, nil, err
		}
		if weightMembers[i], _, err = generateBenchmark(name, effort, gen.Spec{Seed: ms, Weights: ladder[i]}); err != nil {
			return nil, nil, err
		}
	}
	if seedDiv, err = portfolio.New(seedMembers); err != nil {
		return nil, nil, err
	}
	if weightDiv, err = portfolio.New(weightMembers); err != nil {
		return nil, nil, err
	}
	return seedDiv, weightDiv, nil
}

// paretoPool is the objective-measurement query pool size per circuit,
// drawn from both portfolios' placement validity boxes in equal shares.
const paretoPool = 2000

// measurePareto measures both portfolios on the shared streams: coverage
// on a uniform random stream over the full designer ranges, objective
// means on a box-drawn pool both artifacts can answer. The pool draws
// the same number of queries from every member of each portfolio, so
// neither artifact chooses the battleground.
func measurePareto(name string, seedDiv, weightDiv *portfolio.Portfolio, seed int64) ParetoRow {
	c := seedDiv.Circuit()
	rng := rand.New(rand.NewSource(seed + 31415))
	n := c.N()
	ws, hs := make([]int, n), make([]int, n)
	row := ParetoRow{Circuit: name, K: seedDiv.K()}
	coveredSeed, coveredWeight := 0, 0
	for q := 0; q < paretoSamples; q++ {
		for i, b := range c.Blocks {
			ws[i] = b.WRange().Rand(rng)
			hs[i] = b.HRange().Rand(rng)
		}
		if m, _, err := seedDiv.Route(paretoObjectives[0], ws, hs); err == nil && m >= 0 {
			coveredSeed++
		}
		if m, _, err := weightDiv.Route(paretoObjectives[0], ws, hs); err == nil && m >= 0 {
			coveredWeight++
		}
	}
	row.CoverageSeed = float64(coveredSeed) / paretoSamples
	row.CoverageWeighted = float64(coveredWeight) / paretoSamples

	k := seedDiv.K()
	perMember := paretoPool / (2 * k)
	var poolWs, poolHs [][]int
	for m := 0; m < k; m++ {
		for _, p := range []*portfolio.Portfolio{seedDiv, weightDiv} {
			mws, mhs := CoveredQueryPool(p.Member(m), rng, perMember)
			poolWs = append(poolWs, mws...)
			poolHs = append(poolHs, mhs...)
		}
	}
	var sums [3][2]float64 // [objective][seedDiv, weightDiv]
	for q := range poolWs {
		// A pool query is common when both portfolios cover it; coverage
		// is routing-independent, so probe once per portfolio.
		sm, st, err := seedDiv.Route(paretoObjectives[0], poolWs[q], poolHs[q])
		if err != nil || sm < 0 {
			continue
		}
		wm, wt, err := weightDiv.Route(paretoObjectives[0], poolWs[q], poolHs[q])
		if err != nil || wm < 0 {
			continue
		}
		row.Samples++
		sums[0][0] += float64(st.Wire)
		sums[0][1] += float64(wt.Wire)
		for o := 1; o < len(paretoObjectives); o++ {
			if _, t, err := seedDiv.Route(paretoObjectives[o], poolWs[q], poolHs[q]); err == nil {
				sums[o][0] += term(t, o)
			}
			if _, t, err := weightDiv.Route(paretoObjectives[o], poolWs[q], poolHs[q]); err == nil {
				sums[o][1] += term(t, o)
			}
		}
	}
	if row.Samples > 0 {
		d := float64(row.Samples)
		row.WireSeed, row.WireWeighted = sums[0][0]/d, sums[0][1]/d
		row.AreaSeed, row.AreaWeighted = sums[1][0]/d, sums[1][1]/d
		row.AspectSeed, row.AspectWeighted = sums[2][0]/d, sums[2][1]/d
	}
	return row
}

// term extracts the objective-o component of a terms vector, matching
// paretoObjectives order.
func term(t cost.Terms, o int) float64 {
	switch o {
	case 0:
		return float64(t.Wire)
	case 1:
		return float64(t.Area)
	default:
		return float64(t.Aspect)
	}
}

// RunPareto builds, per study circuit, a seed-diverse and a weight-diverse
// K-member portfolio from the same member seeds, measures coverage and
// per-objective routed cost on a shared query stream, renders a table to
// w, and returns the rows for the JSON report.
func RunPareto(w io.Writer, effort Effort, seed int64, k int) ([]ParetoRow, error) {
	fmt.Fprintf(w, "Pareto portfolios: weight-diverse vs seed-diverse at K=%d (%d random queries per circuit)\n",
		k, paretoSamples)
	tb := stats.NewTable("circuit", "common",
		"cov seed", "cov wdiv",
		"wire seed", "wire wdiv",
		"area seed", "area wdiv",
		"aspect seed", "aspect wdiv")
	rows := make([]ParetoRow, 0, len(portfolioCircuits))
	for _, name := range portfolioCircuits {
		seedDiv, weightDiv, err := paretoPortfolios(name, effort, seed, k)
		if err != nil {
			return nil, err
		}
		row := measurePareto(name, seedDiv, weightDiv, seed)
		rows = append(rows, row)
		tb.AddRow(row.Circuit, row.Samples,
			fmt.Sprintf("%.2f%%", 100*row.CoverageSeed),
			fmt.Sprintf("%.2f%%", 100*row.CoverageWeighted),
			fmt.Sprintf("%.0f", row.WireSeed),
			fmt.Sprintf("%.0f", row.WireWeighted),
			fmt.Sprintf("%.0f", row.AreaSeed),
			fmt.Sprintf("%.0f", row.AreaWeighted),
			fmt.Sprintf("%.0f", row.AspectSeed),
			fmt.Sprintf("%.0f", row.AspectWeighted))
	}
	tb.Render(w)
	fmt.Fprintln(w, "Means over the queries both portfolios cover; each objective column is")
	fmt.Fprintln(w, "measured with routing favoring that objective alone, so the comparison is")
	fmt.Fprintln(w, "best-member vs best-member per axis. Lower is better. cov: own covered")
	fmt.Fprintln(w, "fraction of the full stream (seed: seed-diverse, wdiv: weight-diverse).")
	return rows, nil
}
