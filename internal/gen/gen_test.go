package gen

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"

	"mps/internal/bdio"
	"mps/internal/circuits"
	"mps/internal/core"
	"mps/internal/explorer"
)

func TestRegistry(t *testing.T) {
	names := Names()
	if !slices.IsSorted(names) {
		t.Errorf("Names() = %v, want sorted", names)
	}
	for _, want := range []string{"anneal", "ga"} {
		if !slices.Contains(names, want) {
			t.Errorf("Names() = %v, missing %q", names, want)
		}
	}

	g, err := ByName("")
	if err != nil {
		t.Fatalf("ByName(\"\"): %v", err)
	}
	if g.Name() != Default {
		t.Errorf("ByName(\"\").Name() = %q, want %q", g.Name(), Default)
	}

	if _, err := ByName("nope"); err == nil {
		t.Fatal("ByName(\"nope\") succeeded")
	} else {
		for _, want := range []string{`"nope"`, "anneal", "ga"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("unknown-backend error %q does not mention %s", err, want)
			}
		}
	}
}

// TestAnnealMatchesLegacyPipeline pins the refactor's central promise:
// the anneal backend is byte-identical to the pre-interface pipeline
// (explorer.GenerateContext followed by Compact and Renumber — what the
// facade inlined before backends existed) for identical seed and budgets.
func TestAnnealMatchesLegacyPipeline(t *testing.T) {
	for _, name := range []string{"circ01", "TwoStageOpamp"} {
		c := circuits.MustByName(name)
		spec := Spec{Seed: 7, Iterations: 25, BDIOSteps: 40}

		legacy, _, err := explorer.GenerateContext(context.Background(), c, explorer.Config{
			Seed:          spec.Seed,
			MaxIterations: spec.Iterations,
			BDIO:          bdio.Config{Steps: spec.BDIOSteps},
		})
		if err != nil {
			t.Fatalf("%s: legacy pipeline: %v", name, err)
		}
		legacy.Compact()
		legacy.Renumber()

		g, err := ByName("anneal")
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := g.Generate(context.Background(), c, spec)
		if err != nil {
			t.Fatalf("%s: anneal backend: %v", name, err)
		}

		var want, have bytes.Buffer
		if err := legacy.SaveBinary(&want); err != nil {
			t.Fatal(err)
		}
		if err := got.SaveBinary(&have); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want.Bytes(), have.Bytes()) {
			t.Errorf("%s: anneal backend output differs from the legacy pipeline (%d vs %d bytes)",
				name, have.Len(), want.Len())
		}
	}
}

// TestGADeterministic: one seed, one structure — the GA runs a single
// seeded population on one goroutine, so reruns are bit-identical.
func TestGADeterministic(t *testing.T) {
	c := circuits.MustByName("circ01")
	g, err := ByName("ga")
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{Seed: 3, Iterations: 24, BDIOSteps: 40}

	var runs [2]*bytes.Buffer
	for i := range runs {
		s, stats, err := g.Generate(context.Background(), c, spec)
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if stats.Iterations != spec.Iterations {
			t.Errorf("run %d: %d evaluations, want the full budget %d", i, stats.Iterations, spec.Iterations)
		}
		runs[i] = &bytes.Buffer{}
		if err := s.SaveBinary(runs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(runs[0].Bytes(), runs[1].Bytes()) {
		t.Error("two GA runs with the same seed produced different structures")
	}
}

// TestBackendStopsAndCancels pins how every backend under test ends a
// run on circ01 before its budget, at one chain and at four (which the ga
// backend ignores): the MaxPlacements and TargetCoverage targets stop it
// as a success, and a cancelled context, before the run or from a
// Progress report, fails it with context.Canceled, no structure and no
// report after the cancelling one. However the run ends, no explorer
// chain is still running once Generate returns. Like
// TestBackendEquivalence it honours MPS_BACKENDS.
func TestBackendStopsAndCancels(t *testing.T) {
	const budget = 200
	c := circuits.MustByName("circ01")
	for _, backend := range backendsUnderTest(t) {
		g, err := ByName(backend)
		if err != nil {
			t.Fatal(err)
		}
		for _, chains := range []int{1, 4} {
			// run generates under spec at the shared seed, budgets and chain
			// count and cancels the context at the cancelAt-th Progress
			// report (0: before the run, -1: never). It returns the number
			// of reports seen.
			run := func(t *testing.T, spec Spec, cancelAt int) (*core.Structure, Stats, int, error) {
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				if cancelAt == 0 {
					cancel()
				}
				reports := 0
				spec.Seed, spec.Iterations, spec.BDIOSteps, spec.Chains = 1, budget, 40, chains
				spec.Progress = func(Progress) {
					if reports++; reports == cancelAt {
						cancel()
					}
				}
				s, stats, err := g.Generate(ctx, c, spec)
				if chainsRunning() {
					t.Error("an explorer chain is still running after Generate returned")
				}
				return s, stats, reports, err
			}
			prefix := backend
			if chains > 1 {
				prefix += fmt.Sprintf("/chains-%d", chains)
			}

			t.Run(prefix+"/max_placements", func(t *testing.T) {
				s, stats, _, err := run(t, Spec{MaxPlacements: 4}, -1)
				if err != nil {
					t.Fatal(err)
				}
				if s.NumPlacements() < 4 {
					t.Errorf("%d placements, want at least MaxPlacements = 4", s.NumPlacements())
				}
				if stats.Iterations >= budget {
					t.Errorf("%d evaluations: the run burned its budget despite MaxPlacements", stats.Iterations)
				}
			})
			t.Run(prefix+"/target_coverage", func(t *testing.T) {
				_, stats, _, err := run(t, Spec{TargetCoverage: math.SmallestNonzeroFloat64}, -1)
				if err != nil {
					t.Fatal(err)
				}
				if stats.Iterations != 1 {
					t.Errorf("%d evaluations, want 1: the first stored placement reaches any positive target", stats.Iterations)
				}
			})
			for _, tc := range []struct {
				name     string
				cancelAt int
			}{{"cancel_mid_run", 3}, {"cancel_before_run", 0}} {
				t.Run(prefix+"/"+tc.name, func(t *testing.T) {
					s, _, reports, err := run(t, Spec{}, tc.cancelAt)
					if !errors.Is(err, context.Canceled) {
						t.Fatalf("err = %v, want context.Canceled", err)
					}
					if s != nil {
						t.Error("cancelled generation returned a structure")
					}
					if reports != tc.cancelAt {
						t.Errorf("%d Progress reports, want %d", reports, tc.cancelAt)
					}
				})
			}
		}
	}
}

// chainsRunning reports whether any goroutine is inside an explorer
// chain. A chain's goroutine leaves runChain before it signals the
// explorer that it is done, so after GenerateContext returns no stack may
// show the frame.
func chainsRunning() bool {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	return bytes.Contains(buf, []byte("mps/internal/explorer.runChain("))
}

func TestGAProgressReported(t *testing.T) {
	c := circuits.MustByName("circ01")
	g, err := ByName("ga")
	if err != nil {
		t.Fatal(err)
	}
	var calls int
	last := Progress{Iteration: -1}
	_, stats, err := g.Generate(context.Background(), c, Spec{
		Seed: 1, Iterations: 12, BDIOSteps: 40,
		Progress: func(p Progress) {
			calls++
			if p.Iteration <= last.Iteration {
				t.Errorf("iteration went %d -> %d", last.Iteration, p.Iteration)
			}
			last = p
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != stats.Iterations {
		t.Errorf("progress called %d times for %d evaluations", calls, stats.Iterations)
	}
}
