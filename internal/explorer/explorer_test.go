package explorer

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"mps/internal/bdio"
	"mps/internal/circuits"
	"mps/internal/core"
)

// quickCfg returns a small but real generation config for tests.
func quickCfg(seed int64) Config {
	return Config{
		Seed:          seed,
		MaxIterations: 40,
		BDIO:          bdio.Config{Steps: 60},
	}
}

func TestGenerateFillsStructure(t *testing.T) {
	c := circuits.MustByName("circ01")
	s, stats, err := GenerateContext(context.Background(), c, quickCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	if s.NumPlacements() < 2 {
		t.Errorf("NumPlacements = %d, want several stored placements", s.NumPlacements())
	}
	if stats.Iterations != 40 {
		t.Errorf("Iterations = %d, want 40", stats.Iterations)
	}
	if stats.Stored+stats.CandidatesDied != stats.Iterations {
		t.Errorf("stored %d + died %d != iterations %d",
			stats.Stored, stats.CandidatesDied, stats.Iterations)
	}
	if stats.Duration <= 0 {
		t.Error("Duration not recorded")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("generated structure violates invariants: %v", err)
	}
}

// TestGenerateInvariantsAcrossBenchmarks runs a tiny generation on several
// benchmarks and fully checks the result — the core integration test of the
// generation pipeline.
func TestGenerateInvariantsAcrossBenchmarks(t *testing.T) {
	for _, name := range []string{"circ02", "TwoStageOpamp", "Mixer"} {
		t.Run(name, func(t *testing.T) {
			c := circuits.MustByName(name)
			s, _, err := GenerateContext(context.Background(), c, quickCfg(2))
			if err != nil {
				t.Fatal(err)
			}
			if err := s.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			if s.NumPlacements() == 0 {
				t.Error("no placements stored")
			}
		})
	}
}

// TestGenerateDeterministicWithSeed: a config names one run at every chain
// count. Twenty runs each of chains 1, 2, 4 and 8 must write the same
// structure bytes, report the same Progress sequence and count the same
// stats. Chains run ahead of each other, so with more than one this holds
// only because one loop stores their steps in (iteration, chain) order;
// CI runs it under -race and again with GOMAXPROCS=1.
func TestGenerateDeterministicWithSeed(t *testing.T) {
	const runs = 20
	c := circuits.MustByName("circ01")
	for _, chains := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("chains-%d", chains), func(t *testing.T) {
			var wantBytes []byte
			var wantReports []Progress
			var wantStats Stats
			for run := 0; run < runs; run++ {
				cfg := quickCfg(7)
				cfg.Chains = chains
				var reports []Progress
				cfg.Progress = func(p Progress) { reports = append(reports, p) }
				s, stats, err := GenerateContext(context.Background(), c, cfg)
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := s.SaveBinary(&buf); err != nil {
					t.Fatal(err)
				}
				stats.Duration = 0
				if run == 0 {
					wantBytes, wantReports, wantStats = buf.Bytes(), reports, stats
					if len(reports) != stats.Iterations {
						t.Fatalf("%d Progress reports for %d stored steps", len(reports), stats.Iterations)
					}
					continue
				}
				if !bytes.Equal(buf.Bytes(), wantBytes) {
					t.Errorf("run %d wrote other structure bytes than run 0", run)
				}
				if !slices.Equal(reports, wantReports) {
					t.Errorf("run %d reported another Progress sequence than run 0", run)
				}
				if stats != wantStats {
					t.Errorf("run %d stats %+v, run 0 %+v", run, stats, wantStats)
				}
			}
		})
	}
}

func TestGenerateSeedChangesResult(t *testing.T) {
	c := circuits.MustByName("circ01")
	s1, _, err := GenerateContext(context.Background(), c, quickCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	s2, _, err := GenerateContext(context.Background(), c, quickCfg(2))
	if err != nil {
		t.Fatal(err)
	}
	// Different seeds should explore different placements; compare stored
	// placements' coordinates.
	same := s1.NumPlacements() == s2.NumPlacements()
	if same {
		ids1, ids2 := s1.IDs(), s2.IDs()
		for k := range ids1 {
			p1, p2 := s1.Get(ids1[k]), s2.Get(ids2[k])
			for i := range p1.X {
				if p1.X[i] != p2.X[i] || p1.Y[i] != p2.Y[i] {
					same = false
				}
			}
		}
	}
	if same {
		t.Error("different seeds produced identical structures")
	}
}

func TestGenerateStopsAtMaxPlacements(t *testing.T) {
	c := circuits.MustByName("circ01")
	cfg := quickCfg(4)
	cfg.MaxIterations = 500
	cfg.MaxPlacements = 5
	s, stats, err := GenerateContext(context.Background(), c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumPlacements() < 5 {
		t.Errorf("NumPlacements = %d, want >= 5", s.NumPlacements())
	}
	if stats.Iterations >= 500 {
		t.Errorf("Iterations = %d, want early stop", stats.Iterations)
	}
}

func TestGenerateCoverageGrowsWithBudget(t *testing.T) {
	c := circuits.MustByName("circ01")
	small := quickCfg(5)
	small.MaxIterations = 10
	large := quickCfg(5)
	large.MaxIterations = 80

	sSmall, _, err := GenerateContext(context.Background(), c, small)
	if err != nil {
		t.Fatal(err)
	}
	sLarge, _, err := GenerateContext(context.Background(), c, large)
	if err != nil {
		t.Fatal(err)
	}
	if sLarge.Coverage() < sSmall.Coverage() {
		t.Errorf("more iterations should not reduce coverage: %g vs %g",
			sLarge.Coverage(), sSmall.Coverage())
	}
}

func TestGenerateProgressCallback(t *testing.T) {
	c := circuits.MustByName("circ01")
	cfg := quickCfg(6)
	calls := 0
	lastPlacements, lastCoverage := 0, 0.0
	cfg.Progress = func(p Progress) {
		calls++
		if p.Chain != 0 {
			t.Errorf("chain = %d, want 0 for single-chain run", p.Chain)
		}
		// Placement count and coverage can dip when overlap resolution
		// trims or removes stored boxes, so they are recorded, not ordered.
		lastPlacements, lastCoverage = p.Placements, p.Coverage
	}
	if _, _, err := GenerateContext(context.Background(), c, cfg); err != nil {
		t.Fatal(err)
	}
	if calls != cfg.MaxIterations {
		t.Errorf("Progress called %d times, want %d", calls, cfg.MaxIterations)
	}
	if lastPlacements == 0 || lastCoverage == 0 {
		t.Error("progress never reported stored placements or coverage")
	}
}

// TestGenerateContextCancel checks cooperative cancellation: a context
// cancelled mid-run stops the nested annealers promptly and reports the
// context's error, returning no structure.
func TestGenerateContextCancel(t *testing.T) {
	c := circuits.MustByName("circ02")
	cfg := quickCfg(7)
	cfg.MaxIterations = 1 << 20 // would run for a very long time uncancelled
	ctx, cancel := context.WithCancel(context.Background())
	iterations := 0
	cfg.Progress = func(Progress) {
		iterations++
		if iterations == 3 {
			cancel()
		}
	}
	start := time.Now()
	s, stats, err := GenerateContext(ctx, c, cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if s != nil {
		t.Error("cancelled generation returned a structure")
	}
	// The stats of a cancelled run still time it, as the GA's do.
	if stats.Iterations == 0 || stats.Duration <= 0 {
		t.Errorf("cancelled run's stats: %d iterations in %v", stats.Iterations, stats.Duration)
	}
	if iterations > 4 {
		t.Errorf("ran %d iterations after cancellation", iterations-3)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Errorf("cancellation took %s", elapsed)
	}
}

// TestGenerateContextCancelParallelChains: every chain must observe the
// cancellation, and the shared structure must not be returned.
func TestGenerateContextCancelParallelChains(t *testing.T) {
	c := circuits.MustByName("circ02")
	cfg := quickCfg(8)
	cfg.MaxIterations = 1 << 20
	cfg.Chains = 3
	ctx, cancel := context.WithCancel(context.Background())
	var once sync.Once
	cfg.Progress = func(Progress) { once.Do(cancel) }
	s, _, err := GenerateContext(ctx, c, cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if s != nil {
		t.Error("cancelled parallel generation returned a structure")
	}
}

// TestGenerateContextPreCancelled: an already-dead context must not start
// any annealing work.
func TestGenerateContextPreCancelled(t *testing.T) {
	c := circuits.MustByName("circ01")
	cfg := quickCfg(9)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg.Progress = func(Progress) { t.Error("iteration ran under a pre-cancelled context") }
	if _, _, err := GenerateContext(ctx, c, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestGenerateParallelChains checks that the chains together run the
// config's iterations exactly, whether or not the chain count divides
// them, and that a chain count above the budget starts one chain per
// iteration.
func TestGenerateParallelChains(t *testing.T) {
	c := circuits.MustByName("circ02")
	for _, chains := range []int{3, 4, 7, 64} {
		cfg := quickCfg(8)
		cfg.MaxIterations = 40
		cfg.Chains = chains
		s, stats, err := GenerateContext(context.Background(), c, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("chains %d: parallel generation broke invariants: %v", chains, err)
		}
		if stats.Iterations != 40 {
			t.Errorf("chains %d: Iterations = %d, want 40 across chains", chains, stats.Iterations)
		}
		if want := min(chains, 40); stats.Chains != want {
			t.Errorf("chains %d: Stats.Chains = %d, want %d", chains, stats.Chains, want)
		}
		if s.NumPlacements() == 0 {
			t.Errorf("chains %d: no placements stored by parallel chains", chains)
		}
	}
}

// TestGenerateNegativeChainsRunsOne: a chain count below 1 runs the one
// chain a zero count runs, rather than none.
func TestGenerateNegativeChainsRunsOne(t *testing.T) {
	c := circuits.MustByName("circ01")
	var want []byte
	for _, chains := range []int{1, -2} {
		cfg := quickCfg(3)
		cfg.Chains = chains
		s, _, err := GenerateContext(context.Background(), c, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := s.SaveBinary(&buf); err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = buf.Bytes()
		} else if !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("chains %d wrote other bytes than one chain", chains)
		}
	}
}

func TestGenerateRejectsInvalidCircuit(t *testing.T) {
	c := circuits.MustByName("circ01")
	c.Blocks[0].WMin = -3
	if _, _, err := GenerateContext(context.Background(), c, quickCfg(9)); err == nil {
		t.Error("invalid circuit should fail Generate")
	}
}

// TestGeneratedQueriesReturnStoredPlacements exercises the full pipeline:
// every query inside a stored box must come back with legal coordinates.
func TestGeneratedQueriesReturnStoredPlacements(t *testing.T) {
	c := circuits.MustByName("TwoStageOpamp")
	s, _, err := GenerateContext(context.Background(), c, quickCfg(10))
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range s.IDs() {
		p := s.Get(id)
		// Query the box's best dims (always inside after eq. 6 shrink).
		got, err := s.Query(p.BestW, p.BestH)
		if err != nil {
			// The best point may have been carved away by a later, better
			// placement; then some other placement must answer or the point
			// must be uncovered.
			continue
		}
		if got.BoxEmpty() {
			t.Errorf("placement %d: query returned empty-box placement", id)
		}
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

var _ = core.ErrUncovered // keep import for documentation purposes
