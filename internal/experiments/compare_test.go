package experiments

import (
	"path/filepath"
	"testing"
)

func delta(t *testing.T, deltas []BenchDelta, name string) BenchDelta {
	t.Helper()
	for _, d := range deltas {
		if d.Name == name {
			return d
		}
	}
	t.Fatalf("no delta for op %q", name)
	return BenchDelta{}
}

func TestCompareBenchGate(t *testing.T) {
	baseline := []BenchResult{
		{Name: "fast", NsPerOp: 100, AllocsPerOp: 0},
		{Name: "slow", NsPerOp: 1000, AllocsPerOp: 2},
		{Name: "gone", NsPerOp: 50, AllocsPerOp: 1},
	}
	current := []BenchResult{
		{Name: "fast", NsPerOp: 129, AllocsPerOp: 0},  // +29% < 30%: ok
		{Name: "slow", NsPerOp: 1400, AllocsPerOp: 2}, // +40%: regressed
		{Name: "extra", NsPerOp: 10, AllocsPerOp: 0},  // new: informational
	}
	deltas, regressed := CompareBench(baseline, current, DefaultNsTolerance)
	if !regressed {
		t.Fatal("gate passed despite a 40% ns/op regression and a missing op")
	}
	if got := delta(t, deltas, "fast").Status; got != "ok" {
		t.Errorf("fast: status %q, want ok", got)
	}
	if got := delta(t, deltas, "slow").Status; got != "regressed" {
		t.Errorf("slow: status %q, want regressed", got)
	}
	if got := delta(t, deltas, "gone").Status; got != "missing" {
		t.Errorf("gone: status %q, want missing", got)
	}
	if d := delta(t, deltas, "extra"); d.Status != "new" || d.Regressed() {
		t.Errorf("extra: status %q (regressed=%v), want informational new", d.Status, d.Regressed())
	}
	// Deltas must come back name-sorted so gate output diffs are stable.
	for i := 1; i < len(deltas); i++ {
		if deltas[i-1].Name >= deltas[i].Name {
			t.Fatalf("deltas not sorted: %q before %q", deltas[i-1].Name, deltas[i].Name)
		}
	}
}

func TestCompareBenchAllocsExact(t *testing.T) {
	baseline := []BenchResult{{Name: "hot", NsPerOp: 100, AllocsPerOp: 0}}
	current := []BenchResult{{Name: "hot", NsPerOp: 90, AllocsPerOp: 1}}
	// Faster but allocating: still a regression — the alloc gate is exact.
	deltas, regressed := CompareBench(baseline, current, 10.0)
	if !regressed || delta(t, deltas, "hot").Status != "regressed" {
		t.Fatalf("alloc growth passed the gate: %+v", deltas)
	}
	// Equal allocs and equal time pass with zero tolerance.
	if _, regressed := CompareBench(baseline, baseline, 0); regressed {
		t.Fatal("identical results flagged as regression at zero tolerance")
	}
}

func TestBenchJSONRoundTripDeterministic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_results.json")
	results := []BenchResult{
		{Name: "z/op", N: 10, NsPerOp: 5, AllocsPerOp: 1},
		{Name: "a/op", N: 20, NsPerOp: 7, BytesPerOp: 3},
	}
	if err := WriteBenchJSON(path, 1, results); err != nil {
		t.Fatal(err)
	}
	report, err := ReadBenchJSON(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Results) != 2 || report.Results[0].Name != "a/op" || report.Results[1].Name != "z/op" {
		t.Fatalf("results not name-sorted on disk: %+v", report.Results)
	}
	if report.Seed != 1 {
		t.Fatalf("seed %d, want 1", report.Seed)
	}
	deltas, regressed := CompareBench(report.Results, results, -1)
	if regressed || len(deltas) != 2 {
		t.Fatalf("self-comparison regressed: %+v", deltas)
	}
}
