package experiments

import (
	"bytes"
	"strings"
	"testing"
)

// TestMeasurePareto pins the study's invariants on quick-effort K=2
// circ01 portfolios: a common box-drawn sample pool exists and objective
// means are positive over it.
func TestMeasurePareto(t *testing.T) {
	seedDiv, weightDiv, err := paretoPortfolios("circ01", EffortQuick, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	row := measurePareto("circ01", seedDiv, weightDiv, 1)
	if row.Samples == 0 {
		t.Fatal("no common covered queries in the box-drawn pool")
	}
	if row.WireSeed <= 0 || row.WireWeighted <= 0 || row.AreaSeed <= 0 || row.AreaWeighted <= 0 {
		t.Errorf("non-positive objective means: %+v", row)
	}
	if row.K != 2 || row.Circuit != "circ01" {
		t.Errorf("row %+v does not describe the study", row)
	}
}

// TestRunParetoWeightDiversityWins is the study's acceptance claim at
// seconds scale: at equal K, weight-diverse portfolios beat seed-diverse
// ones on at least one non-area objective (wire or aspect) on at least
// two Table-1 circuits. Fixed seed and budgets make the outcome
// deterministic.
func TestRunParetoWeightDiversityWins(t *testing.T) {
	if testing.Short() {
		t.Skip("generates eight quick portfolio members")
	}
	var buf bytes.Buffer
	rows, err := RunPareto(&buf, EffortQuick, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(portfolioCircuits) {
		t.Fatalf("got %d rows, want %d", len(rows), len(portfolioCircuits))
	}
	wins := 0
	for _, r := range rows {
		if r.Samples == 0 {
			continue
		}
		if r.WireWeighted < r.WireSeed || r.AspectWeighted < r.AspectSeed {
			wins++
		}
	}
	if wins < 2 {
		t.Errorf("weight diversity beat seed diversity on a non-area objective on %d circuits, want >= 2\n%+v",
			wins, rows)
	}
	if out := buf.String(); !strings.Contains(out, "aspect wdiv") || !strings.Contains(out, "circ01") {
		t.Errorf("table missing expected columns:\n%s", out)
	}
}
