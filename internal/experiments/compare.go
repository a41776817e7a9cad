package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"

	"mps/internal/stats"
)

// This file implements the CI performance-regression gate: a fresh
// micro-benchmark run is compared against the checked-in
// BENCH_baseline.json and any op that got slower beyond tolerance — or
// allocates more at all — fails the build. Allocations are compared
// exactly because they are machine-independent: an alloc crept into a hot
// path on any hardware. Wall time gets a tolerance because CI runners are
// not the machine the baseline was recorded on.

// DefaultNsTolerance is the fractional ns/op growth allowed before an op
// counts as regressed (0.30 = 30%).
const DefaultNsTolerance = 0.30

// BenchDelta is one op's baseline-vs-current comparison.
type BenchDelta struct {
	Name           string
	BaselineNs     float64
	CurrentNs      float64
	BaselineAllocs int64
	CurrentAllocs  int64
	// Status is "ok", "regressed", "missing" (in the baseline but not the
	// run — a silently dropped benchmark also fails the gate), or "new"
	// (informational; it enters the gate once the baseline is refreshed).
	Status string
	Reason string
}

// Regressed reports whether this delta fails the gate.
func (d BenchDelta) Regressed() bool { return d.Status == "regressed" || d.Status == "missing" }

// ReadBenchJSON loads a BENCH_results.json / BENCH_baseline.json document.
func ReadBenchJSON(path string) (*BenchReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	var report BenchReport
	if err := json.Unmarshal(data, &report); err != nil {
		return nil, fmt.Errorf("experiments: parsing %s: %w", path, err)
	}
	if len(report.Results) == 0 {
		return nil, fmt.Errorf("experiments: %s contains no benchmark results", path)
	}
	return &report, nil
}

// CompareBench matches ops by name and classifies each against the
// baseline: allocs/op must not grow at all, ns/op must not grow beyond
// tolerance (fraction; < 0 selects DefaultNsTolerance). Deltas come back
// sorted by name; regressed reports whether any op fails the gate.
func CompareBench(baseline, current []BenchResult, tolerance float64) (deltas []BenchDelta, regressed bool) {
	if tolerance < 0 {
		tolerance = DefaultNsTolerance
	}
	cur := make(map[string]BenchResult, len(current))
	for _, r := range current {
		cur[r.Name] = r
	}
	for _, base := range baseline {
		d := BenchDelta{
			Name:           base.Name,
			BaselineNs:     base.NsPerOp,
			BaselineAllocs: base.AllocsPerOp,
			Status:         "ok",
		}
		r, ok := cur[base.Name]
		if !ok {
			d.Status = "missing"
			d.Reason = "op present in baseline but not in this run"
			deltas = append(deltas, d)
			continue
		}
		delete(cur, base.Name)
		d.CurrentNs = r.NsPerOp
		d.CurrentAllocs = r.AllocsPerOp
		switch {
		case r.AllocsPerOp > base.AllocsPerOp:
			d.Status = "regressed"
			d.Reason = fmt.Sprintf("allocs/op grew %d -> %d (exact gate)", base.AllocsPerOp, r.AllocsPerOp)
		case base.NsPerOp > 0 && r.NsPerOp > base.NsPerOp*(1+tolerance):
			d.Status = "regressed"
			d.Reason = fmt.Sprintf("ns/op grew %.0f -> %.0f (>%.0f%% tolerance)",
				base.NsPerOp, r.NsPerOp, tolerance*100)
		}
		deltas = append(deltas, d)
	}
	for name, r := range cur {
		deltas = append(deltas, BenchDelta{
			Name:          name,
			CurrentNs:     r.NsPerOp,
			CurrentAllocs: r.AllocsPerOp,
			Status:        "new",
			Reason:        "not in baseline yet",
		})
	}
	sort.Slice(deltas, func(i, j int) bool { return deltas[i].Name < deltas[j].Name })
	for _, d := range deltas {
		if d.Regressed() {
			regressed = true
			break
		}
	}
	return deltas, regressed
}

// RenderBenchDeltas prints the comparison as a table, flagging gate
// failures in the status column.
func RenderBenchDeltas(w io.Writer, deltas []BenchDelta) {
	tb := stats.NewTable("op", "base ns/op", "ns/op", "base allocs", "allocs", "status")
	for _, d := range deltas {
		status := d.Status
		if d.Reason != "" {
			status = fmt.Sprintf("%s (%s)", d.Status, d.Reason)
		}
		tb.AddRow(d.Name,
			fmt.Sprintf("%.0f", d.BaselineNs), fmt.Sprintf("%.0f", d.CurrentNs),
			d.BaselineAllocs, d.CurrentAllocs, status)
	}
	tb.Render(w)
}
