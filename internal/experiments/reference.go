// Package experiments regenerates every table and figure of the paper's
// evaluation section (§4): Table 1 (benchmark suite), Table 2 (generation
// time / placements stored / instantiation time), Figure 5 (two-stage opamp
// instantiations vs. template), Figure 6 (lowest-cost selection along a
// sweep) and Figure 7 (tso-cascode instantiation).
//
// Absolute times cannot match a 2005 SUN-Blade-1000 running the authors'
// C++ implementation; the reproduction targets the paper's shape claims,
// verified by this package's tests:
// instantiation in the sub-millisecond range and roughly flat in circuit
// size, generation orders of magnitude slower and growing with size, tens
// to low-hundreds of stored placements, and per-query lowest-cost placement
// selection.
package experiments

import "time"

// PaperTable2Row is one row of the paper's Table 2 as published.
type PaperTable2Row struct {
	Circuit       string
	GenTime       time.Duration
	Placements    int
	InstantiateMS float64 // paper's "Instantiation" column, seconds -> ms
}

// PaperTable2 holds the published Table 2 ("Usage and Generation of the
// Multi-Placement Structures Generated"), keyed by our benchmark names.
var PaperTable2 = []PaperTable2Row{
	{"circ01", 21*time.Minute + 12*time.Second, 57, 70},
	{"circ02", 25*time.Minute + 35*time.Second, 51, 85},
	{"circ06", 46*time.Minute + 23*time.Second, 86, 100},
	{"TwoStageOpamp", 52*time.Minute + 45*time.Second, 82, 90},
	{"SingleEndedOpamp", 1*time.Hour + 55*time.Minute, 115, 120},
	{"Mixer", 57*time.Minute + 23*time.Second, 75, 110},
	{"circ08", 1*time.Hour + 42*time.Minute + 13*time.Second, 123, 120},
	{"tso-cascode", 2*time.Hour + 36*time.Minute + 35*time.Second, 124, 140},
	{"benchmark24", 4 * time.Hour, 133, 150},
}

// PaperRowByName returns the published row for a benchmark, or nil.
func PaperRowByName(name string) *PaperTable2Row {
	for i := range PaperTable2 {
		if PaperTable2[i].Circuit == name {
			return &PaperTable2[i]
		}
	}
	return nil
}
