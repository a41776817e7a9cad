package core_test

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"mps/internal/bdio"
	"mps/internal/circuits"
	"mps/internal/core"
	"mps/internal/explorer"
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
				s, _, err := explorer.Generate(c, explorer.Config{
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
			if !reflect.DeepEqual(core.RowSnapshots(got), core.DefinedRows(want)) {
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
// the rows view, the compiled tables and the conflict scan against brute
// force (CheckBruteForce).
func TestGeneratedInsertsMatchBruteForce(t *testing.T) {
	for _, name := range []string{"circ01", "TwoStageOpamp", "Mixer"} {
		c := circuits.MustByName(name)
		generate := func(seed int64) *core.Structure {
			s, _, err := explorer.Generate(c, explorer.Config{
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
