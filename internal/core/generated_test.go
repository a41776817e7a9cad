package core_test

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"mps/internal/bdio"
	"mps/internal/circuits"
	"mps/internal/core"
	"mps/internal/explorer"
	"mps/internal/gen"
	"mps/internal/placement"
)

// TestGeneratedStructuresMatchReferences runs the generation fast paths
// against their references on structures the explorer generated: Coverage
// against the from-scratch recomputation after generation, Compact,
// Renumber and Load, and Renumber against storing the live placements
// afresh, whose rows come from the definition (DefinedRows).
func TestGeneratedStructuresMatchReferences(t *testing.T) {
	for _, name := range []string{"circ01", "TwoStageOpamp", "Mixer"} {
		c := circuits.MustByName(name)
		for seed := int64(1); seed <= 2; seed++ {
			generate := func() *core.Structure {
				s, _, err := explorer.GenerateContext(context.Background(), c, explorer.Config{
					Seed:          seed,
					MaxIterations: 60,
					BDIO:          bdio.Config{Steps: 80},
				})
				if err != nil {
					t.Fatal(err)
				}
				return s
			}
			same := func(s *core.Structure, what string) {
				t.Helper()
				if got, want := s.Coverage(), core.CoverageFromScratch(s); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s seed %d %s: Coverage = %v, from scratch %v", name, seed, what, got, want)
				}
			}
			want, got := generate(), generate()
			same(got, "after generation")
			want.Compact()
			got.Compact()
			same(got, "after Compact")
			if !core.HasIDHoles(got) {
				t.Fatalf("%s seed %d: generated structure has no ID holes to renumber", name, seed)
			}

			core.RenumberRemoveInsert(want)
			got.Renumber()
			same(got, "after Renumber")
			if !reflect.DeepEqual(core.CompiledRows(core.Compile(got)), core.DefinedRows(want)) {
				t.Fatalf("%s seed %d: rows differ from the remove+insert reference", name, seed)
			}
			var gotV3, wantV3 bytes.Buffer
			if err := got.SaveBinaryCompiled(&gotV3); err != nil {
				t.Fatal(err)
			}
			if err := want.SaveBinaryCompiled(&wantV3); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotV3.Bytes(), wantV3.Bytes()) {
				t.Fatalf("%s seed %d: v3 bytes differ from the remove+insert reference", name, seed)
			}
			if err := got.CheckInvariants(); err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}

			loaded, err := core.Load(&gotV3, c)
			if err != nil {
				t.Fatal(err)
			}
			same(loaded, "after Load")
			if math.Float64bits(loaded.Coverage()) != math.Float64bits(got.Coverage()) {
				t.Fatalf("%s seed %d: loaded Coverage %v, saved %v", name, seed, loaded.Coverage(), got.Coverage())
			}
		}
	}
}

// TestGeneratedInsertsMatchBruteForce inserts 20 of another seed's
// generated placements, one at a time, into a generated structure and
// into a structure loaded from its v2 file, and after every Insert checks
// the compiled tables and the conflict scan against brute force
// (CheckBruteForce).
func TestGeneratedInsertsMatchBruteForce(t *testing.T) {
	for _, name := range []string{"circ01", "TwoStageOpamp", "Mixer"} {
		c := circuits.MustByName(name)
		generate := func(seed int64) *core.Structure {
			s, _, err := explorer.GenerateContext(context.Background(), c, explorer.Config{
				Seed:          seed,
				MaxIterations: 40,
				BDIO:          bdio.Config{Steps: 60},
			})
			if err != nil {
				t.Fatal(err)
			}
			return s
		}
		s, other := generate(1), generate(2)
		var v2 bytes.Buffer
		if err := s.SaveBinary(&v2); err != nil {
			t.Fatal(err)
		}
		loaded, err := core.Load(&v2, c)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(3))
		for _, dst := range []*core.Structure{s, loaded} {
			if err := core.CheckBruteForce(dst, rng); err != nil {
				t.Fatalf("%s before inserts: %v", name, err)
			}
			for k, id := range other.IDs()[:min(20, other.NumPlacements())] {
				if _, err := dst.Insert(other.Get(id).Clone()); err != nil {
					t.Fatal(err)
				}
				if err := core.CheckBruteForce(dst, rng); err != nil {
					t.Fatalf("%s after insert %d: %v", name, k, err)
				}
			}
			if err := dst.CheckInvariants(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
	}
}

// TestCompactMatchesRestartScan runs Compact against the restart-after-
// every-merge reference (CompactRestart) on explorer-generated structures:
// every Table 1 circuit at quick effort (60 iterations of 80 BDIO steps),
// seeds 1–3, and TwoStageOpamp at balanced effort (300 of 300), seeds
// 1–4. Both must make the same number of merges and leave the same IDs,
// boxes and cost bits, and the same v3 bytes after Renumber.
//
// Generated structures rarely hold a mergeable pair (a fork leaves the
// winner's interval between its pieces), so each is also compared
// fragmented: placements cut into abutting pieces with perturbed costs,
// all stored in shuffled order (see fragment). Merges
// then interleave across coordinate groups, a merged piece often merges
// again with a lower ID, and the order of the merges shows in the
// averaged costs.
func TestCompactMatchesRestartScan(t *testing.T) {
	type run struct {
		name         string
		seed         int64
		iters, steps int
	}
	var runs []run
	for _, name := range circuits.Names() {
		for seed := int64(1); seed <= 3; seed++ {
			runs = append(runs, run{name, seed, 60, 80})
		}
	}
	if !testing.Short() {
		for seed := int64(1); seed <= 4; seed++ {
			runs = append(runs, run{"TwoStageOpamp", seed, 300, 300})
		}
	}
	fragmentedMerges := 0
	for _, r := range runs {
		c := circuits.MustByName(r.name)
		generate := func() *core.Structure {
			s, _, err := explorer.GenerateContext(context.Background(), c, explorer.Config{
				Seed:          r.seed,
				MaxIterations: r.iters,
				BDIO:          bdio.Config{Steps: r.steps},
			})
			if err != nil {
				t.Fatal(err)
			}
			return s
		}
		compare := func(what string, got, want *core.Structure) int {
			t.Helper()
			wantMerges := core.CompactRestart(want)
			if m := got.Compact(); m != wantMerges {
				t.Fatalf("%s: Compact made %d merges, the restart scan %d", what, m, wantMerges)
			}
			if err := core.SameStructure(got, want); err != nil {
				t.Fatalf("%s after Compact (%d merges): %v", what, wantMerges, err)
			}
			got.Renumber()
			want.Renumber()
			var gotV3, wantV3 bytes.Buffer
			if err := got.SaveBinaryCompiled(&gotV3); err != nil {
				t.Fatal(err)
			}
			if err := want.SaveBinaryCompiled(&wantV3); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotV3.Bytes(), wantV3.Bytes()) {
				t.Fatalf("%s: v3 bytes after Renumber differ from the restart scan's", what)
			}
			return wantMerges
		}
		what := fmt.Sprintf("%s seed %d (%d iterations)", r.name, r.seed, r.iters)
		compare(what, generate(), generate())
		s := generate()
		fragmentedMerges += compare(what+" fragmented", fragment(t, s, r.seed), fragment(t, s, r.seed))
	}
	t.Logf("%d merges over %d fragmented structures", fragmentedMerges, len(runs))
	if fragmentedMerges < 10*len(runs) {
		t.Fatalf("%d merges over %d fragmented structures: too few to compare the merge order", fragmentedMerges, len(runs))
	}
}

// fragmented is how many placements fragment cuts: the restart scan
// costs O(merges·P²), so cutting every placement of a balanced structure
// would take the reference tens of seconds.
const fragmented = 24

// fragment returns a fresh structure holding s's live placements, the
// first fragmented of them cut into abutting pieces: each is cut in a
// random row, and each piece again with probability 1/2, down to three
// levels, and every piece gets its own AvgCost, BestCost and BestW. The pieces
// and the uncut placements are stored in one shuffled order (seeded);
// they are disjoint, so Insert stores each as it is.
func fragment(t *testing.T, s *core.Structure, seed int64) *core.Structure {
	t.Helper()
	c := s.Circuit()
	rng := rand.New(rand.NewSource(seed))
	var pieces []*placement.Placement
	var cut func(p *placement.Placement, depth int)
	cut = func(p *placement.Placement, depth int) {
		i, dim := rng.Intn(c.N()), rng.Intn(2)
		lo, hi := p.WLo, p.WHi
		if dim == 1 {
			lo, hi = p.HLo, p.HHi
		}
		if depth == 0 || hi[i] == lo[i] || (depth < 3 && rng.Intn(2) == 0) {
			// BestCost ties are common, and merge keeps the first
			// piece's best dimensions on a tie, so the merge order shows
			// in BestW too.
			p.AvgCost *= 1 + rng.Float64()
			p.BestCost = float64(rng.Intn(3))
			p.BestW = make([]int, c.N())
			p.BestW[0] = rng.Intn(1000)
			pieces = append(pieces, p)
			return
		}
		k := lo[i] + rng.Intn(hi[i]-lo[i])
		q := p.Clone()
		if dim == 0 {
			p.WHi[i], q.WLo[i] = k, k+1
		} else {
			p.HHi[i], q.HLo[i] = k, k+1
		}
		cut(p, depth-1)
		cut(q, depth-1)
	}
	for k, id := range s.IDs() {
		p := s.Get(id).Clone()
		p.ID = -1
		if k < fragmented {
			cut(p, 3)
		} else {
			pieces = append(pieces, p)
		}
	}
	rng.Shuffle(len(pieces), func(a, b int) { pieces[a], pieces[b] = pieces[b], pieces[a] })
	out := core.NewStructure(c, s.Floorplan())
	for _, p := range pieces {
		if st, err := out.Insert(p); err != nil || len(st.StoredIDs) != 1 || st.StoredShrunk+st.StoredForked+st.StoredDeleted > 0 {
			t.Fatalf("storing a fragment: %+v, %v", st, err)
		}
	}
	return out
}

// TestFindSpanGeneratedRows checks findSpan against the scan on every row
// of the seed-1 structures of every registered circuit at the facade's
// quick (60 iterations, 80 BDIO steps) and balanced (300, 300) budgets,
// at every value from two below each row's first span to two above its
// last; on a row of unit-width spans without gaps, the span must also be
// the value's offset from the row's first.
func TestFindSpanGeneratedRows(t *testing.T) {
	g, err := gen.ByName("")
	if err != nil {
		t.Fatal(err)
	}
	for _, budget := range []struct {
		name         string
		iters, steps int
	}{{"quick", 60, 80}, {"balanced", 300, 300}} {
		for _, name := range circuits.Names() {
			s, _, err := g.Generate(context.Background(), circuits.MustByName(name),
				gen.Spec{Seed: 1, Iterations: budget.iters, BDIOSteps: budget.steps})
			if err != nil {
				t.Fatal(err)
			}
			if err := core.CheckFindSpan(core.Compile(s)); err != nil {
				t.Errorf("%s %s: %v", name, budget.name, err)
			}
		}
	}
}
