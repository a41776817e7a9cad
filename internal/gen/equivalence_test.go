package gen

// Cross-backend equivalence property suite: every registered backend
// must produce structures that are indistinguishable downstream — the
// structural invariants hold, the compiled query index answers exactly
// like the reference scan (core.Structure.Instantiate), and the v3 codec
// round-trips. New backends get this
// coverage for free; CI runs the suite once per backend via the
// MPS_BACKENDS filter (see .github/workflows/ci.yml).

import (
	"bytes"
	"context"
	"math/rand"
	"os"
	"strings"
	"testing"

	"mps/internal/circuits"
	"mps/internal/core"
	"mps/internal/cost"
	"mps/internal/netlist"
	"mps/internal/template"
)

// backendsUnderTest returns the backends the suite exercises: the
// comma-separated MPS_BACKENDS env filter (the CI matrix sets one
// backend per job), or every registered backend.
func backendsUnderTest(t *testing.T) []string {
	t.Helper()
	if env := os.Getenv("MPS_BACKENDS"); env != "" {
		var names []string
		for _, name := range strings.Split(env, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			if _, err := ByName(name); err != nil {
				t.Fatalf("MPS_BACKENDS: %v", err)
			}
			names = append(names, name)
		}
		return names
	}
	return Names()
}

func randomDims(c *netlist.Circuit, rng *rand.Rand) (ws, hs []int) {
	ws = make([]int, c.N())
	hs = make([]int, c.N())
	for i, b := range c.Blocks {
		ws[i] = b.WMin + rng.Intn(b.WMax-b.WMin+1)
		hs[i] = b.HMin + rng.Intn(b.HMax-b.HMin+1)
	}
	return ws, hs
}

// checkEquivalence generates one structure for the spec and checks the
// downstream properties single-structure serving relies on: structural
// invariants, compiled-vs-scan query agreement, and the v3 round trip.
func checkEquivalence(t *testing.T, name string, spec Spec) {
	t.Helper()
	g, err := ByName(spec.Backend)
	if err != nil {
		t.Fatal(err)
	}
	c := circuits.MustByName(name)
	s, stats, err := g.Generate(context.Background(), c, spec)
	if err != nil {
		t.Fatal(err)
	}

	// Structural invariants: legal placements, consistent
	// intervals, dense IDs.
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if s.NumPlacements() == 0 && stats.Iterations > 0 {
		t.Error("no placements stored")
	}
	s.SetBackup(template.Balanced(c))

	// Compiled-vs-scan query equivalence on a mixed
	// covered/backup stream.
	cs := core.Compile(s)
	rng := rand.New(rand.NewSource(23))
	for q := 0; q < 64; q++ {
		ws, hs := randomDims(c, rng)
		ref, err := s.Instantiate(ws, hs)
		if err != nil {
			t.Fatal(err)
		}
		flat, err := cs.Instantiate(ws, hs)
		if err != nil {
			t.Fatal(err)
		}
		if ref.PlacementID != flat.PlacementID || ref.FromBackup != flat.FromBackup {
			t.Fatalf("query %d: scan (id %d, backup %v) != compiled (id %d, backup %v)",
				q, ref.PlacementID, ref.FromBackup, flat.PlacementID, flat.FromBackup)
		}
	}

	// v3 round-trip: save with the compiled tables, load, and
	// the loaded structure must answer identically.
	var v3 bytes.Buffer
	if err := s.SaveBinaryCompiled(&v3); err != nil {
		t.Fatal(err)
	}
	loaded, err := core.Load(bytes.NewReader(v3.Bytes()), c)
	if err != nil {
		t.Fatal(err)
	}
	if err := loaded.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if loaded.NumPlacements() != s.NumPlacements() {
		t.Fatalf("round trip changed placement count: %d -> %d",
			s.NumPlacements(), loaded.NumPlacements())
	}
	loaded.SetBackup(template.Balanced(c))
	for q := 0; q < 16; q++ {
		ws, hs := randomDims(c, rng)
		want, err := s.Instantiate(ws, hs)
		if err != nil {
			t.Fatal(err)
		}
		got, err := loaded.Instantiate(ws, hs)
		if err != nil {
			t.Fatal(err)
		}
		if want.PlacementID != got.PlacementID || want.FromBackup != got.FromBackup {
			t.Fatalf("round-trip query %d: id %d/backup %v != id %d/backup %v",
				q, want.PlacementID, want.FromBackup, got.PlacementID, got.FromBackup)
		}
	}
}

// TestBackendEquivalence generates a small structure per (backend, seed
// circuit) and checks the downstream properties single-structure serving
// relies on. Budgets are tiny — the property is structural, not
// quality-dependent.
func TestBackendEquivalence(t *testing.T) {
	for _, backend := range backendsUnderTest(t) {
		for _, name := range circuits.Names() {
			backend, name := backend, name
			t.Run(backend+"/"+name, func(t *testing.T) {
				t.Parallel()
				checkEquivalence(t, name,
					Spec{Backend: backend, Seed: 11, Iterations: 12, BDIOSteps: 30})
			})
		}
	}
}

// TestBackendEquivalenceWeighted is the weighted-spec dimension of the
// suite: every backend must honor Spec.Weights and still produce
// invariant-clean, compiled-equivalent, v3-round-trip-safe structures.
// Each circuit gets one non-default ladder rung (cycling) to bound cost.
func TestBackendEquivalenceWeighted(t *testing.T) {
	rungs := []cost.Weights{cost.AreaHeavyWeights, cost.WireHeavyWeights, cost.AspectHeavyWeights}
	for _, backend := range backendsUnderTest(t) {
		for i, name := range circuits.Names() {
			backend, name, w := backend, name, rungs[i%len(rungs)]
			t.Run(backend+"/"+name, func(t *testing.T) {
				t.Parallel()
				checkEquivalence(t, name,
					Spec{Backend: backend, Seed: 11, Iterations: 12, BDIOSteps: 30, Weights: w})
			})
		}
	}
}

// TestWeightedSpecDefaultBitIdentical pins the compatibility half of the
// weights contract per backend: a spec naming the balanced vector
// explicitly generates byte-for-byte the structure a weightless spec
// does, so default-weight artifacts keep their identities everywhere.
func TestWeightedSpecDefaultBitIdentical(t *testing.T) {
	for _, backend := range backendsUnderTest(t) {
		backend := backend
		t.Run(backend, func(t *testing.T) {
			t.Parallel()
			g, err := ByName(backend)
			if err != nil {
				t.Fatal(err)
			}
			c := circuits.MustByName("circ01")
			base := Spec{Backend: backend, Seed: 11, Iterations: 12, BDIOSteps: 30}
			weighted := base
			weighted.Weights = cost.BalancedWeights
			var a, b bytes.Buffer
			for _, run := range []struct {
				spec Spec
				buf  *bytes.Buffer
			}{{base, &a}, {weighted, &b}} {
				s, _, err := g.Generate(context.Background(), c, run.spec)
				if err != nil {
					t.Fatal(err)
				}
				if err := s.SaveBinary(run.buf); err != nil {
					t.Fatal(err)
				}
			}
			if !bytes.Equal(a.Bytes(), b.Bytes()) {
				t.Error("explicit balanced weights diverge from the weightless default")
			}
		})
	}
}

// TestBackendEquivalenceConcurrentQueries drives concurrent readers at a
// freshly generated structure per backend — the suite's -race teeth.
func TestBackendEquivalenceConcurrentQueries(t *testing.T) {
	for _, backend := range backendsUnderTest(t) {
		backend := backend
		t.Run(backend, func(t *testing.T) {
			t.Parallel()
			g, err := ByName(backend)
			if err != nil {
				t.Fatal(err)
			}
			c := circuits.MustByName("circ01")
			s, _, err := g.Generate(context.Background(), c,
				Spec{Backend: backend, Seed: 5, Iterations: 12, BDIOSteps: 30})
			if err != nil {
				t.Fatal(err)
			}
			s.SetBackup(template.Balanced(c))
			cs := core.Compile(s)

			done := make(chan error, 4)
			for w := 0; w < 4; w++ {
				go func(seed int64) {
					rng := rand.New(rand.NewSource(seed))
					for q := 0; q < 200; q++ {
						ws, hs := randomDims(c, rng)
						if _, err := cs.Instantiate(ws, hs); err != nil {
							done <- err
							return
						}
					}
					done <- nil
				}(int64(w))
			}
			for w := 0; w < 4; w++ {
				if err := <-done; err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}
