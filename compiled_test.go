package mps

// Equivalence property tests for the compiled query index at facade level:
// for every seed circuit, the flat index (Compiled) must answer randomized
// dimension vectors exactly as the tree path does — anchors, placement
// provenance, backup fallback and errors included — and stay race-clean
// under concurrent compiled queries.

import (
	"bytes"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"mps/internal/core"
)

// generateQuick builds a small but non-trivial structure for name.
func generateQuick(t *testing.T, name string, seed int64) *Structure {
	t.Helper()
	c, err := Benchmark(name)
	if err != nil {
		t.Fatal(err)
	}
	s, _, err := generate(c, Options{Seed: seed, Iterations: 40, BDIOSteps: 60})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestCompiledEquivalenceAllCircuits is the acceptance property: across
// every seed circuit, CompiledStructure.Instantiate ≡ Structure.Instantiate
// on randomized dimension vectors (covered and uncovered alike).
func TestCompiledEquivalenceAllCircuits(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a structure per seed circuit")
	}
	for _, name := range BenchmarkNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			s := generateQuick(t, name, 11)
			cs := s.Compiled()
			if cs.NumPlacements() != s.NumPlacements() {
				t.Fatalf("compiled %d placements, tree %d", cs.NumPlacements(), s.NumPlacements())
			}
			c := s.Circuit()
			rng := rand.New(rand.NewSource(17))
			ws, hs := make([]int, c.N()), make([]int, c.N())
			ids := s.IDs()
			covered := 0
			for trial := 0; trial < 400; trial++ {
				if trial%2 == 0 {
					// Uniform over designer bounds: mostly backup territory
					// on sparse structures.
					for i, b := range c.Blocks {
						ws[i] = b.WMin + rng.Intn(b.WMax-b.WMin+1)
						hs[i] = b.HMin + rng.Intn(b.HMax-b.HMin+1)
					}
				} else {
					// Inside a random stored placement's dimension box:
					// guaranteed covered, so the stored-placement path is
					// exercised on every circuit however sparse its coverage.
					p := s.Get(ids[rng.Intn(len(ids))])
					for i := 0; i < c.N(); i++ {
						ws[i] = p.WLo[i] + rng.Intn(p.WHi[i]-p.WLo[i]+1)
						hs[i] = p.HLo[i] + rng.Intn(p.HHi[i]-p.HLo[i]+1)
					}
				}
				treeRes, treeErr := s.Structure.Instantiate(ws, hs)
				flatRes, flatErr := cs.Instantiate(ws, hs)
				if (treeErr == nil) != (flatErr == nil) {
					t.Fatalf("error divergence at %v/%v: tree %v, compiled %v", ws, hs, treeErr, flatErr)
				}
				if treeErr != nil {
					continue
				}
				if !reflect.DeepEqual(treeRes, flatRes) {
					t.Fatalf("result divergence at %v/%v:\ntree     %+v\ncompiled %+v", ws, hs, treeRes, flatRes)
				}
				if !treeRes.FromBackup {
					covered++
				}
				if lt, lf := s.Lookup(ws, hs), cs.Lookup(ws, hs); !reflect.DeepEqual(lt, lf) {
					t.Fatalf("Lookup divergence at %v/%v: tree %v, compiled %v", ws, hs, lt, lf)
				}
			}
			if covered == 0 {
				t.Error("query sweep never hit covered space — equivalence only exercised the backup")
			}
		})
	}
}

// TestCompiledConcurrentFacadeQueries drives the facade's compiled path —
// Instantiate and InstantiateBatch together — from many goroutines on one
// structure. Run under -race in CI; the first Compiled() races against
// queries on other goroutines by design.
func TestCompiledConcurrentFacadeQueries(t *testing.T) {
	s := generateQuick(t, "TwoStageOpamp", 3)
	c := s.Circuit()
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			queries := randomQueries(c, rng, 64)
			for round := 0; round < 20; round++ {
				if seed%2 == 0 {
					for _, q := range queries {
						if _, err := s.Instantiate(q.Ws, q.Hs); err != nil {
							errs <- err
							return
						}
					}
					continue
				}
				for _, br := range s.InstantiateBatchWorkers(queries, 2) {
					if br.Err != nil {
						errs <- br.Err
						return
					}
				}
			}
		}(int64(w))
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
}

// TestCompileAllocBound pins what compiling a loaded structure allocates:
// the balanced TwoStageOpamp seed 1 structure (838 placements, 243 spans)
// holds about 70 KB of tables, and Compile may allocate little beyond
// them, since the sweeps write into pooled scratch and the span tables
// are copied out at their exact size. Compile runs after every
// generation and on every load.
func TestCompileAllocBound(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("generates a balanced-effort structure; the race detector drops pooled scratch")
	}
	c, err := Benchmark("TwoStageOpamp")
	if err != nil {
		t.Fatal(err)
	}
	s, _, err := generate(c, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.SaveBinary(&buf); err != nil {
		t.Fatal(err)
	}
	const runs = 20
	loaded := make([]*core.Structure, runs+1)
	for i := range loaded {
		if loaded[i], err = core.Load(bytes.NewReader(buf.Bytes()), c); err != nil {
			t.Fatal(err)
		}
	}
	core.Compile(loaded[runs]) // warm the scratch
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, l := range loaded[:runs] {
		core.Compile(l)
	}
	runtime.ReadMemStats(&after)
	allocs := (after.Mallocs - before.Mallocs) / runs
	kb := float64(after.TotalAlloc-before.TotalAlloc) / runs / 1024
	t.Logf("Compile of %d placements, %d spans: %d allocations, %.1f KB",
		s.NumPlacements(), core.Compile(loaded[0]).NumSpans(), allocs, kb)
	if allocs > 15 || kb > 110 {
		t.Fatalf("Compile allocates %d times and %.1f KB per call, want at most 15 and 110 KB", allocs, kb)
	}
}
